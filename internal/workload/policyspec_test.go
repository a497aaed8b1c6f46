package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ecosched/internal/simclock"
)

// policyTestSpec is testSpec plus a full policy block and the new
// per-client job fields.
func policyTestSpec() Spec {
	spec := testSpec()
	spec.Policy = &PolicySpec{
		PowerCapW:      4000,
		PartitionCapsW: []PartitionCap{{Name: "debug", CapW: 900}},
		CapMode:        "freqcap",
		CoSchedule:     true,
		Deferral: &DeferralSpec{
			Signal: SignalPrice, Threshold: 0.3,
			MaxDefer: Duration(2 * time.Hour), Check: Duration(10 * time.Minute),
		},
	}
	spec.Clients[0].Jobs.Profile = ProfileCompute
	spec.Clients[0].Jobs.ExclusiveFraction = 0.2
	spec.Clients[0].Jobs.DeferrableFraction = 0.5
	spec.Clients[0].Jobs.DeadlineSlack = Dist{Kind: DistUniform, Min: 3600, Max: 7200}
	spec.Clients[1].Jobs.Profile = ProfileMemory
	return spec
}

// TestPolicySpecValidateErrors covers the policy-block and new
// job-field validation branches.
func TestPolicySpecValidateErrors(t *testing.T) {
	mutate := map[string]func(*Spec){
		"empty policy block":    func(s *Spec) { s.Policy = &PolicySpec{} },
		"negative cluster cap":  func(s *Spec) { s.Policy.PowerCapW = -1 },
		"unknown cap partition": func(s *Spec) { s.Policy.PartitionCapsW[0].Name = "gpu" },
		"duplicate cap partition": func(s *Spec) {
			s.Policy.PartitionCapsW = append(s.Policy.PartitionCapsW, PartitionCap{Name: "debug", CapW: 1})
		},
		"non-positive partition cap":  func(s *Spec) { s.Policy.PartitionCapsW[0].CapW = 0 },
		"unknown cap mode":            func(s *Spec) { s.Policy.CapMode = "turbo" },
		"cap mode without budget":     func(s *Spec) { s.Policy.PowerCapW = 0; s.Policy.PartitionCapsW = nil },
		"penalty without cosched":     func(s *Spec) { s.Policy.CoSchedule = false; s.Policy.InterferencePenalty = 2 },
		"penalty below one":           func(s *Spec) { s.Policy.InterferencePenalty = 0.5 },
		"unknown deferral signal":     func(s *Spec) { s.Policy.Deferral.Signal = "moon-phase" },
		"non-positive threshold":      func(s *Spec) { s.Policy.Deferral.Threshold = 0 },
		"unbounded deferral":          func(s *Spec) { s.Policy.Deferral.MaxDefer = 0 },
		"negative check":              func(s *Spec) { s.Policy.Deferral.Check = Duration(-time.Minute) },
		"check under a minute":        func(s *Spec) { s.Policy.Deferral.Check = Duration(59 * time.Second) },
		"unknown profile":             func(s *Spec) { s.Clients[0].Jobs.Profile = "disk" },
		"exclusive fraction above 1":  func(s *Spec) { s.Clients[0].Jobs.ExclusiveFraction = 1.5 },
		"negative exclusive fraction": func(s *Spec) { s.Clients[0].Jobs.ExclusiveFraction = -0.1 },
		"deferrable fraction above 1": func(s *Spec) { s.Clients[0].Jobs.DeferrableFraction = 2 },
		"bad deadline slack dist":     func(s *Spec) { s.Clients[0].Jobs.DeadlineSlack.Kind = "zipf" },
		"slack without time limit":    func(s *Spec) { s.Clients[0].Jobs.TimeLimit = Dist{} },
	}
	for name, m := range mutate {
		spec := policyTestSpec()
		m(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", name)
		}
	}
	if err := policyTestSpec().Validate(); err != nil {
		t.Fatalf("baseline policy spec invalid: %v", err)
	}
	// A penalty of exactly 1, no slowdown, is valid
	// (scripts/mutants/spec-penalty-of-one-rejected.patch).
	spec := policyTestSpec()
	spec.Policy.InterferencePenalty = 1
	if err := spec.Validate(); err != nil {
		t.Fatalf("interference_penalty 1: %v", err)
	}
}

// TestParseSpecDeferralCheck: a deferral check is 0 (the simulator's
// default) or at least MinDeferCheck. A nanosecond check once hung
// `chronus simulate`: every held job re-armed its wake each check.
func TestParseSpecDeferralCheck(t *testing.T) {
	for check, ok := range map[string]bool{"1ns": false, "59s": false, "-1m": false, "0s": true, "1m": true, "10m": true} {
		block := fmt.Sprintf(`{"deferral": {"signal": "price", "threshold": 0.3, "max_defer": "1h", "check": %q}}`, check)
		_, err := ParseSpec([]byte(fmt.Sprintf(policySpecSkeleton, block)))
		if (err == nil) != ok {
			t.Errorf("check %s: ParseSpec error %v, want accepted %v", check, err, ok)
		}
	}
}

func TestPolicySpecLabel(t *testing.T) {
	cases := []struct {
		p    *PolicySpec
		want string
	}{
		{nil, "none"},
		{&PolicySpec{}, "none"},
		{&PolicySpec{PowerCapW: 100}, "powercap-wait"},
		{&PolicySpec{PowerCapW: 100, CapMode: "freqcap"}, "powercap-freqcap"},
		{&PolicySpec{PartitionCapsW: []PartitionCap{{Name: "batch", CapW: 1}}}, "powercap-wait"},
		{&PolicySpec{CoSchedule: true}, "cosched"},
		{&PolicySpec{Deferral: &DeferralSpec{Signal: SignalCarbon}}, "defer-carbon"},
		{
			&PolicySpec{PowerCapW: 100, CapMode: "freqcap", CoSchedule: true, Deferral: &DeferralSpec{Signal: SignalPrice}},
			"powercap-freqcap+cosched+defer-price",
		},
	}
	for _, tc := range cases {
		if got := tc.p.Label(); got != tc.want {
			t.Errorf("Label(%+v) = %q, want %q", tc.p, got, tc.want)
		}
	}
}

// TestGeneratorPolicyFields: the new draw steps sample profiles,
// exclusivity, and deferral deadlines, and a fraction of 1 means
// always — with no RNG draw, so pinning it cannot shift any other
// sampled field.
func TestGeneratorPolicyFields(t *testing.T) {
	spec := policyTestSpec()
	gen, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	subs := drain(t, gen)
	var sawExclusive, sawDeferrable, sawPlain bool
	for i, s := range subs {
		switch s.Client {
		case "hpc":
			if s.Shape.Profile != ProfileCompute {
				t.Fatalf("submission %d profile %q", i, s.Shape.Profile)
			}
		case "interactive":
			if s.Shape.Profile != ProfileMemory {
				t.Fatalf("submission %d profile %q", i, s.Shape.Profile)
			}
			if s.Exclusive || s.Deferrable {
				t.Fatalf("interactive submission %d drew policy fields with zero fractions", i)
			}
		}
		if s.Exclusive {
			sawExclusive = true
		}
		if s.Deferrable {
			sawDeferrable = true
			if s.Deadline.IsZero() {
				t.Fatalf("deferrable submission %d has no deadline despite a slack dist", i)
			}
			// Deadline = At + TimeLimit + slack, slack in [3600s, 7200s].
			lo := s.At.Time().Add(s.TimeLimit + time.Hour)
			hi := s.At.Time().Add(s.TimeLimit + 2*time.Hour)
			if s.Deadline.Time().Before(lo) || s.Deadline.Time().After(hi) {
				t.Fatalf("submission %d deadline %v outside [%v, %v]", i, s.Deadline, lo, hi)
			}
		} else if !s.Deadline.IsZero() {
			t.Fatalf("non-deferrable submission %d carries a deadline", i)
		}
		if s.Client == "hpc" && !s.Exclusive && !s.Deferrable {
			sawPlain = true
		}
	}
	if !sawExclusive || !sawDeferrable || !sawPlain {
		t.Fatalf("stream missing variety: exclusive=%v deferrable=%v plain=%v",
			sawExclusive, sawDeferrable, sawPlain)
	}

	// Fraction 1 sets the flag without consuming randomness: everything
	// else in the stream must be draw-for-draw identical to fraction 0.
	always := policyTestSpec()
	always.Clients[1].Jobs.ExclusiveFraction = 1
	g2, err := NewGenerator(always, simclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, g2)
	if len(got) != len(subs) {
		t.Fatalf("fraction-1 stream has %d submissions, want %d", len(got), len(subs))
	}
	for i := range got {
		a, b := subs[i], got[i]
		if b.Client == "interactive" {
			if !b.Exclusive {
				t.Fatalf("submission %d not exclusive under fraction 1", i)
			}
			b.Exclusive = a.Exclusive
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("fraction 1 perturbed submission %d:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}

// TestLogRoundTripPolicyFields: the sp/x/df/dl log keys survive a
// record → read cycle, and submissions without the new fields encode
// without them (old logs stay byte-identical).
func TestLogRoundTripPolicyFields(t *testing.T) {
	spec := policyTestSpec()
	spec.MaxSubmissions = 400
	gen, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, gen)
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, spec, simclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range want {
		if err := lw.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	lr, err := NewLogReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, lr)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost policy fields (%d in, %d out)", len(want), len(got))
	}

	// A submission with none of the new fields must not emit the new
	// keys: logs from specs predating the policy layer re-record
	// byte-identically.
	var plainBuf bytes.Buffer
	lw2, err := NewLogWriter(&plainBuf, testSpec(), simclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw2.Record(Submission{
		At: simclock.Tick(simclock.Epoch.Add(time.Minute).UnixNano()), Client: "hpc", ClientSeq: 1,
		Tasks: 1, Shape: Sleep("s", time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	if err := lw2.Flush(); err != nil {
		t.Fatal(err)
	}
	line := plainBuf.String()
	for _, key := range []string{`"sp"`, `"x"`, `"df"`, `"dl"`} {
		if strings.Contains(line, key) {
			t.Fatalf("plain submission emitted policy key %s: %s", key, line)
		}
	}
}
