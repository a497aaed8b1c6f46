// Package fault is a deterministic, seedable fault-injection layer
// for the storage and telemetry integration points (Repository, blob
// storage, settings, system info, procfs, IPMI sampling, local model
// reads). It exists to prove the paper's core operational constraint
// — job_submit_eco must never block or reject a job; on any failure
// Chronus degrades to "submit unmodified" — under hostile conditions
// rather than assert it: the chaos suite drives every injector at
// rates up to 100% and checks the fail-open invariants hold.
//
// Faults are described by Rules keyed on operation name (e.g.
// "blob.get", "repo.save_benchmarks", or a "repo.*" prefix) and fire
// deterministically: whether the n-th matching call of a rule injects
// is a pure function of (seed, rule, n), independent of how calls
// from different operations interleave. That keeps chaos runs
// reproducible — the -fault CLI flag replays the exact same schedule
// from the same seed, ecosim-style.
//
// Four modes cover the failure classes the integration points can
// hit in production:
//
//   - ModeError: the operation fails outright (ENOSPC, unreachable
//     store, crashed BMC).
//   - ModeLatency: the operation is delayed through the injected
//     sleep hook (slow NFS, saturated database) — a no-op unless a
//     sleeper is wired, so simulations stay fast.
//   - ModeTorn: a write persists only a prefix of its payload (crash
//     mid-append, torn batch).
//   - ModePartial: a read returns only a prefix of the data (torn
//     model blob, short read).
//
// The package is ecolint-clean: no wall clock, no global RNG — the
// clock is injected and the per-decision randomness derives from the
// seed by hashing.
package fault

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"ecosched/internal/metrics"
	"ecosched/internal/trace"
)

// Operation names the decorators report. Rules match them exactly, by
// "prefix.*" glob, or with the universal "*".
const (
	OpRepoSaveSystem     = "repo.save_system"
	OpRepoGetSystem      = "repo.get_system"
	OpRepoFindSystem     = "repo.find_system"
	OpRepoListSystems    = "repo.list_systems"
	OpRepoSaveRun        = "repo.save_run"
	OpRepoListRuns       = "repo.list_runs"
	OpRepoSaveBenchmarks = "repo.save_benchmarks"
	OpRepoListBenchmarks = "repo.list_benchmarks"
	OpRepoSaveModel      = "repo.save_model"
	OpRepoGetModel       = "repo.get_model"
	OpRepoListModels     = "repo.list_models"
	OpRepoClose          = "repo.close"

	OpBlobPut    = "blob.put"
	OpBlobGet    = "blob.get"
	OpBlobDelete = "blob.delete"
	OpBlobList   = "blob.list"

	OpSettingsLoad = "settings.load"
	OpSettingsSave = "settings.save"

	OpSysInfoCollect = "sysinfo.collect"
	OpProcRead       = "procfs.read_file"
	OpIPMISample     = "ipmi.sample"
	OpModelRead      = "model.read_file"
)

// Mode is a fault class.
type Mode string

// Fault modes.
const (
	ModeError   Mode = "error"
	ModeLatency Mode = "latency"
	ModeTorn    Mode = "torn"
	ModePartial Mode = "partial"
)

// ErrInjected is the sentinel every injected error wraps, so tests
// and operators can tell a synthetic fault from a real one.
var ErrInjected = errors.New("fault: injected")

// Rule describes one fault source.
type Rule struct {
	// Op is the operation pattern: an exact name ("blob.get"), a
	// prefix glob ("repo.*"), or "*" for every operation.
	Op string
	// Mode is the fault class (default ModeError).
	Mode Mode
	// Rate is the per-call injection probability in [0, 1]; values
	// >= 1 (including the zero value's normalisation) always fire.
	Rate float64
	// After skips the first After matching calls before any fault can
	// fire — "the third batch write dies".
	After int
	// Times caps how many faults this rule injects (0 = unlimited).
	Times int
	// Latency is the delay ModeLatency applies through the sleep hook.
	Latency time.Duration
	// Fraction is the prefix of bytes kept by ModeTorn and ModePartial
	// (default 0.5). For repository batch writes it is the fraction of
	// rows that land before the injected crash.
	Fraction float64
	// Err overrides the returned error (still wrapped over
	// ErrInjected-compatible text is the caller's concern; a nil Err
	// produces the standard injected error).
	Err error
}

// normalized fills Rule defaults.
func (r Rule) normalized() Rule {
	if r.Mode == "" {
		r.Mode = ModeError
	}
	if r.Rate <= 0 {
		r.Rate = 1
	}
	if r.Fraction <= 0 || r.Fraction > 1 {
		r.Fraction = 0.5
	}
	return r
}

// matches reports whether the rule applies to op.
func (r Rule) matches(op string) bool {
	switch {
	case r.Op == "*" || r.Op == op:
		return true
	case strings.HasSuffix(r.Op, ".*"):
		return strings.HasPrefix(op, r.Op[:len(r.Op)-1])
	}
	return false
}

// Injection is one recorded fault, for test assertions and chaos-run
// reproduction output.
type Injection struct {
	Time time.Time
	Op   string
	Mode Mode
	Call int // 1-based index of the matching call that faulted
}

// injectionLogCap bounds the injection log so an unbounded chaos run
// cannot grow memory without limit.
const injectionLogCap = 4096

// Metric and trace names (ecolint/metricname: package-level constants
// in the chronus.* namespace; the injected counter uses the
// sanctioned constant-prefix + expression dynamic form).
const (
	metricFaultPrefix  = "chronus.fault.injected."
	eventFaultInjected = "chronus.fault.injected"
)

// Injector evaluates rules and records injections. It is safe for
// concurrent use; decisions are deterministic per (seed, rule, call
// index) regardless of goroutine interleaving across operations.
type Injector struct {
	seed    uint64
	clock   func() time.Time
	sleep   func(time.Duration)
	metrics *metrics.Registry
	tracer  *trace.Tracer

	mu    sync.Mutex
	rules []*boundRule
	log   []Injection
}

// boundRule is a rule plus its call counters.
type boundRule struct {
	Rule
	calls    int // matching calls seen
	injected int // faults fired
}

// Option configures an Injector.
type Option func(*Injector)

// WithClock injects the clock stamping the injection log (tests wire
// the simulated clock; the default leaves timestamps zero).
func WithClock(now func() time.Time) Option {
	return func(i *Injector) { i.clock = now }
}

// WithSleep wires the sleeper ModeLatency delays through. Unset,
// latency faults are recorded but cost nothing — the simulated-time
// analog of blob.Latent.
func WithSleep(sleep func(time.Duration)) Option {
	return func(i *Injector) { i.sleep = sleep }
}

// WithMetrics counts injections per operation under
// chronus.fault.injected.<op>.
func WithMetrics(r *metrics.Registry) Option {
	return func(i *Injector) { i.metrics = r }
}

// WithTracer emits a chronus.fault.injected event per injection.
func WithTracer(t *trace.Tracer) Option {
	return func(i *Injector) { i.tracer = t }
}

// New builds an injector with no rules; every operation passes
// through untouched until Use adds some.
func New(seed uint64, opts ...Option) *Injector {
	i := &Injector{seed: seed}
	for _, opt := range opts {
		opt(i)
	}
	return i
}

// Use appends rules to the active plan. Rules can be added while the
// system runs — the chaos suite builds a healthy deployment, then
// turns storage off mid-flight.
func (i *Injector) Use(rules ...Rule) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, r := range rules {
		r := r.normalized()
		i.rules = append(i.rules, &boundRule{Rule: r})
	}
}

// Reset discards all rules and counters, keeping the seed and hooks.
func (i *Injector) Reset() {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = nil
	i.log = nil
}

// Injected returns per-operation injection counts.
func (i *Injector) Injected() map[string]int {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[string]int)
	for _, r := range i.rules {
		if r.injected > 0 {
			// Glob rules count under their pattern; exact log entries
			// carry the concrete op.
			out[r.Op] += r.injected
		}
	}
	return out
}

// Log returns the recorded injections, oldest first (bounded at
// injectionLogCap).
func (i *Injector) Log() []Injection {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Injection(nil), i.log...)
}

// outcome is the aggregate verdict for one operation call.
type outcome struct {
	err      error
	latency  time.Duration
	fraction float64 // byte/row prefix to keep; 1 = intact
	mutate   bool
}

// decide evaluates every rule against op, updating counters and the
// log under the lock, and returns the merged outcome. The latency
// sleep and trace emission happen in the caller, outside the lock.
func (i *Injector) decide(op string) outcome {
	out := outcome{fraction: 1}
	if i == nil {
		return out
	}
	var fired []Injection
	i.mu.Lock()
	for idx, r := range i.rules {
		if !r.matches(op) {
			continue
		}
		r.calls++
		n := r.calls
		if n <= r.After {
			continue
		}
		if r.Times > 0 && r.injected >= r.Times {
			continue
		}
		if r.Rate < 1 && roll(i.seed, uint64(idx), uint64(n)) >= r.Rate {
			continue
		}
		r.injected++
		fired = append(fired, Injection{Op: op, Mode: r.Mode, Call: n})
		switch r.Mode {
		case ModeError:
			if out.err == nil {
				if r.Err != nil {
					out.err = fmt.Errorf("fault: %s call %d: %w", op, n, r.Err)
				} else {
					out.err = fmt.Errorf("%w: %s failure on %s (call %d)", ErrInjected, r.Mode, op, n)
				}
			}
		case ModeLatency:
			out.latency += r.Latency
		case ModeTorn, ModePartial:
			out.mutate = true
			if r.Fraction < out.fraction {
				out.fraction = r.Fraction
			}
		}
	}
	if len(fired) > 0 {
		now := time.Time{}
		if i.clock != nil {
			now = i.clock()
		}
		for f := range fired {
			fired[f].Time = now
			if len(i.log) < injectionLogCap {
				i.log = append(i.log, fired[f])
			}
		}
	}
	i.mu.Unlock()

	for _, f := range fired {
		i.metrics.Counter(metricFaultPrefix + f.Op).Inc()
		if i.tracer != nil {
			i.tracer.Event(eventFaultInjected, map[string]string{
				"op": f.Op, "mode": string(f.Mode), "call": fmt.Sprint(f.Call),
			})
		}
	}
	return out
}

// Fail applies error and latency faults for op: it returns the
// injected error, if any, after sleeping any injected latency through
// the sleep hook.
func (i *Injector) Fail(op string) error {
	out := i.decide(op)
	if out.latency > 0 && i.sleep != nil {
		i.sleep(out.latency)
	}
	return out.err
}

// ReadBytes applies faults to a completed read: partial-read
// truncation and error/latency faults. Call it with the data a
// successful inner read produced.
func (i *Injector) ReadBytes(op string, data []byte) ([]byte, error) {
	out := i.decide(op)
	if out.latency > 0 && i.sleep != nil {
		i.sleep(out.latency)
	}
	if out.err != nil {
		return nil, out.err
	}
	if out.mutate {
		return prefixBytes(data, out.fraction), nil
	}
	return data, nil
}

// WriteBytes applies faults to a pending write: it returns the
// (possibly torn) payload to hand the inner store and, when the write
// should also report failure, the error to return afterwards. A torn
// write persists the prefix AND fails — the crash-mid-append shape
// filedb's replay must recover from.
func (i *Injector) WriteBytes(op string, data []byte) ([]byte, error) {
	out := i.decide(op)
	if out.latency > 0 && i.sleep != nil {
		i.sleep(out.latency)
	}
	if out.mutate {
		return prefixBytes(data, out.fraction), fmt.Errorf("%w: torn write on %s", ErrInjected, op)
	}
	return data, out.err
}

// Partition applies faults to an n-element batch write: it returns
// how many leading elements should be handed to the inner store and
// the error to return. A torn batch persists a strict prefix and
// fails, modelling a crash mid-transaction.
func (i *Injector) Partition(op string, n int) (int, error) {
	out := i.decide(op)
	if out.latency > 0 && i.sleep != nil {
		i.sleep(out.latency)
	}
	if out.mutate {
		keep := int(float64(n) * out.fraction)
		if keep >= n && n > 0 {
			keep = n - 1
		}
		return keep, fmt.Errorf("%w: torn batch on %s (%d of %d committed)", ErrInjected, op, keep, n)
	}
	if out.err != nil {
		return 0, out.err
	}
	return n, nil
}

// prefixBytes returns a copy of the leading fraction of data.
func prefixBytes(data []byte, fraction float64) []byte {
	keep := int(float64(len(data)) * fraction)
	if keep >= len(data) && len(data) > 0 {
		keep = len(data) - 1
	}
	if keep < 0 {
		keep = 0
	}
	return append([]byte(nil), data[:keep]...)
}

// roll maps (seed, rule index, call index) to a uniform float in
// [0, 1) via splitmix64 — deterministic regardless of which goroutine
// asks, which is what keeps chaos schedules reproducible under
// parallel sweeps.
func roll(seed, rule, call uint64) float64 {
	x := seed ^ (rule+1)*0x9e3779b97f4a7c15 ^ (call+1)*0xbf58476d1ce4e5b9
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
