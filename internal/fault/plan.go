package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ParsePlan parses the -fault flag's compact schedule DSL into rules.
//
// A plan is semicolon-separated rules; each rule is colon-separated:
//
//	op:mode[:key=value...]
//
// op is an operation name ("blob.get"), a prefix glob ("repo.*") or
// "*", and must match at least one operation a decorator reports. mode
// is error, latency, torn or partial. The optional key=value segments
// tune the rule:
//
//	rate=0.5     injection probability per matching call (default 1)
//	after=3      skip the first 3 matching calls
//	times=2      inject at most 2 faults
//	lat=10ms     delay for latency mode
//	frac=0.25    byte/row prefix kept by torn and partial modes
//
// A bare float segment is shorthand for rate=. Examples:
//
//	*:error                         everything fails, always
//	blob.get:error:0.3              30% of blob reads fail
//	repo.save_benchmarks:torn:frac=0.5:times=1
//	repo.*:latency:lat=5ms          every repository call is slow
func ParsePlan(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty plan %q", spec)
	}
	return rules, nil
}

func parseRule(s string) (Rule, error) {
	fields := strings.Split(s, ":")
	if len(fields) < 2 {
		return Rule{}, fmt.Errorf("fault: rule %q: want op:mode[:key=value...]", s)
	}
	r := Rule{Op: strings.TrimSpace(fields[0])}
	if r.Op == "" {
		return Rule{}, fmt.Errorf("fault: rule %q: empty operation", s)
	}
	if !slices.ContainsFunc(ops[:], r.matches) {
		return Rule{}, fmt.Errorf("fault: rule %q: operation %q matches no reported operation", s, r.Op)
	}
	switch m := Mode(strings.TrimSpace(fields[1])); m {
	case ModeError, ModeLatency, ModeTorn, ModePartial:
		r.Mode = m
	default:
		return Rule{}, fmt.Errorf("fault: rule %q: unknown mode %q (want error, latency, torn or partial)", s, fields[1])
	}
	for _, f := range fields[2:] {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		key, val, found := strings.Cut(f, "=")
		if !found {
			// Bare float shorthand for rate=.
			rate, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return Rule{}, fmt.Errorf("fault: rule %q: bad segment %q", s, f)
			}
			r.Rate = rate
			continue
		}
		var err error
		switch key {
		case "rate":
			r.Rate, err = strconv.ParseFloat(val, 64)
		case "after":
			r.After, err = strconv.Atoi(val)
		case "times":
			r.Times, err = strconv.Atoi(val)
		case "lat":
			r.Latency, err = time.ParseDuration(val)
		case "frac":
			r.Fraction, err = strconv.ParseFloat(val, 64)
		default:
			return Rule{}, fmt.Errorf("fault: rule %q: unknown key %q", s, key)
		}
		if err != nil {
			return Rule{}, fmt.Errorf("fault: rule %q: bad %s value %q: %w", s, key, val, err)
		}
	}
	if r.Rate < 0 || r.Rate > 1 {
		return Rule{}, fmt.Errorf("fault: rule %q: rate %v outside [0, 1]", s, r.Rate)
	}
	if r.Mode == ModeLatency && r.Latency <= 0 {
		return Rule{}, fmt.Errorf("fault: rule %q: latency mode needs lat=<duration>", s)
	}
	return r, nil
}

// String renders a rule back into the DSL (diagnostics, repro lines).
func (r Rule) String() string {
	r = r.normalized()
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s", r.Op, r.Mode)
	if r.Rate < 1 {
		fmt.Fprintf(&b, ":rate=%g", r.Rate)
	}
	if r.After > 0 {
		fmt.Fprintf(&b, ":after=%d", r.After)
	}
	if r.Times > 0 {
		fmt.Fprintf(&b, ":times=%d", r.Times)
	}
	if r.Mode == ModeLatency {
		fmt.Fprintf(&b, ":lat=%s", r.Latency)
	}
	if (r.Mode == ModeTorn || r.Mode == ModePartial) && r.Fraction != 0.5 {
		fmt.Fprintf(&b, ":frac=%g", r.Fraction)
	}
	return b.String()
}
