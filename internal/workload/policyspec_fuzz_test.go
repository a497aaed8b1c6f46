package workload

import (
	"fmt"
	"testing"
)

// policySpecSkeleton is a minimal valid spec with a hole for the
// fuzzed policy block: the fuzzer explores the policy grammar, not the
// whole spec surface (the rest of the spec has its own validation
// tests).
const policySpecSkeleton = `{
  "version": 1,
  "name": "fuzz",
  "seed": 1,
  "horizon": "1h",
  "max_submissions": 10,
  "cluster": {"partitions": [{"name": "batch", "nodes": 2, "default": true}]},
  "policy": %s,
  "clients": [{
    "name": "c",
    "arrival": {"process": "poisson", "rate_per_hour": 10},
    "jobs": {
      "sleep_fraction": 1,
      "sleep": {"kind": "constant", "value": 60},
      "tasks": {"kind": "constant", "value": 1}
    }
  }]
}`

// FuzzPolicySpec asserts the policy-block grammar's safety contract:
// malformed budgets, thresholds, modes, or deadlines must surface as a
// parse error — never a panic, and never a spec that parses into a
// silently-unbounded or self-contradictory cluster policy. Every block
// that survives ParseSpec must satisfy the invariants the scheduler
// relies on (deferral always bounded, caps positive and attributable,
// penalties never speeding jobs up).
func FuzzPolicySpec(f *testing.F) {
	for _, seed := range []string{
		`null`,
		`{"power_cap_w": 5600, "cap_mode": "freqcap", "co_schedule": true, "deferral": {"signal": "price", "threshold": 0.26, "max_defer": "4h", "check": "10m"}}`,
		`{"power_cap_w": 1200}`,
		`{"partition_caps_w": [{"name": "batch", "cap_w": 900}]}`,
		`{"power_cap_w": -5}`,
		`{"power_cap_w": 1e308, "cap_mode": "wait"}`,
		`{"cap_mode": "wait"}`,
		`{"cap_mode": "turbo", "power_cap_w": 100}`,
		`{"partition_caps_w": [{"name": "gpu", "cap_w": 900}]}`,
		`{"partition_caps_w": [{"name": "batch", "cap_w": 0}]}`,
		`{"partition_caps_w": [{"name": "batch", "cap_w": 10}, {"name": "batch", "cap_w": 20}]}`,
		`{"co_schedule": true, "interference_penalty": 0.5}`,
		`{"interference_penalty": 2}`,
		`{"deferral": {"signal": "price", "threshold": 0.3}}`,
		`{"deferral": {"signal": "moon-phase", "threshold": 0.3, "max_defer": "1h"}}`,
		`{"deferral": {"signal": "carbon", "threshold": -1, "max_defer": "1h"}}`,
		`{"deferral": {"signal": "carbon", "threshold": 0.3, "max_defer": "-1h"}}`,
		`{"deferral": {"signal": "carbon", "threshold": 0.3, "max_defer": "1h", "check": "-5m"}}`,
		`{"deferral": {"signal": "price", "threshold": 0.3, "max_defer": "1h", "check": "1ns"}}`,
		`{"deferral": {"signal": "price", "threshold": 0.3, "max_defer": "1h", "check": "1m"}}`,
		`{}`,
		`{"power_cap_w": "not a number"}`,
		`{"deferral": {"max_defer": 17}}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, block []byte) {
		spec, err := ParseSpec([]byte(fmt.Sprintf(policySpecSkeleton, block)))
		if err != nil {
			return // rejected loudly — the contract for malformed input
		}
		p := spec.Policy
		if p == nil {
			return // block was null/absent: the policy layer stays off
		}
		if p.PowerCapW < 0 {
			t.Fatalf("negative cluster cap survived validation: %g", p.PowerCapW)
		}
		if p.CapMode != "" && p.CapMode != "wait" && p.CapMode != "freqcap" {
			t.Fatalf("unknown cap mode survived validation: %q", p.CapMode)
		}
		if p.CapMode != "" && p.PowerCapW == 0 && len(p.PartitionCapsW) == 0 {
			t.Fatal("cap mode without any budget survived validation")
		}
		seen := map[string]bool{}
		for _, e := range p.PartitionCapsW {
			if e.Name != "batch" {
				t.Fatalf("cap for unknown partition %q survived validation", e.Name)
			}
			if seen[e.Name] {
				t.Fatalf("duplicate cap for %q survived validation", e.Name)
			}
			seen[e.Name] = true
			if e.CapW <= 0 {
				t.Fatalf("non-positive partition cap survived validation: %g", e.CapW)
			}
		}
		if p.InterferencePenalty != 0 {
			if !p.CoSchedule {
				t.Fatal("interference penalty without co_schedule survived validation")
			}
			if p.InterferencePenalty < 1 {
				t.Fatalf("penalty %g < 1 survived validation (a shared node is never faster)",
					p.InterferencePenalty)
			}
		}
		if d := p.Deferral; d != nil {
			if d.Signal != SignalPrice && d.Signal != SignalCarbon {
				t.Fatalf("unknown deferral signal survived validation: %q", d.Signal)
			}
			if d.Threshold <= 0 {
				t.Fatalf("non-positive deferral threshold survived validation: %g", d.Threshold)
			}
			if d.MaxDefer <= 0 {
				// The no-starvation property hinges on this bound.
				t.Fatalf("unbounded deferral survived validation: max_defer = %v", d.MaxDefer)
			}
			if d.Check != 0 && d.Check.Std() < MinDeferCheck {
				// A held job re-reads the signal every check: a tiny one
				// never lets the run finish.
				t.Fatalf("re-check cadence %v, neither 0 nor at least %v, survived validation", d.Check.Std(), MinDeferCheck)
			}
		}
	})
}
