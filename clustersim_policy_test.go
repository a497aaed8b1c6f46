package ecosched

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"ecosched/internal/workload"
)

// policyVariants returns the powercap-smoke spec under every policy
// combination: each variant must record, replay, and lane-split to
// byte-identical results, and each must actually exercise its
// counters so the fidelity claim is not vacuous.
func policyVariants(t *testing.T) []struct {
	name  string
	spec  workload.Spec
	check func(t *testing.T, pl *PolicyReport)
} {
	t.Helper()
	base := func() workload.Spec {
		spec := loadSpec(t, "powercap-smoke.json")
		spec.MaxSubmissions = 1200
		return spec
	}
	defer1 := base().Policy.Deferral // shared template; variants copy it

	variants := []struct {
		name  string
		spec  workload.Spec
		check func(t *testing.T, pl *PolicyReport)
	}{
		{name: "none", spec: base(), check: func(t *testing.T, pl *PolicyReport) {
			if pl != nil {
				t.Fatalf("policy report without policies: %+v", pl)
			}
		}},
		{name: "cap-wait", spec: base(), check: func(t *testing.T, pl *PolicyReport) {
			if pl.Policies != "powercap-wait" {
				t.Fatalf("policies = %q", pl.Policies)
			}
			if pl.CapDenials == 0 {
				t.Fatal("cap-wait run denied nothing; the variant is vacuous")
			}
			if pl.FreqCapped != 0 || pl.CoScheduled != 0 || pl.DeferredJobs != 0 {
				t.Fatalf("unexpected counters: %+v", pl)
			}
		}},
		{name: "cap-freqcap", spec: base(), check: func(t *testing.T, pl *PolicyReport) {
			if pl.Policies != "powercap-freqcap" {
				t.Fatalf("policies = %q", pl.Policies)
			}
			if pl.FreqCapped == 0 {
				t.Fatal("freqcap run pinned nothing; the variant is vacuous")
			}
		}},
		{name: "cosched", spec: base(), check: func(t *testing.T, pl *PolicyReport) {
			if pl.Policies != "cosched" {
				t.Fatalf("policies = %q", pl.Policies)
			}
			if pl.CoScheduled == 0 {
				t.Fatal("cosched run paired nothing; the variant is vacuous")
			}
		}},
		{name: "deferral", spec: base(), check: func(t *testing.T, pl *PolicyReport) {
			if pl.Policies != "defer-price" {
				t.Fatalf("policies = %q", pl.Policies)
			}
			if pl.DeferredJobs == 0 {
				t.Fatal("deferral run held nothing; the variant is vacuous")
			}
			if pl.DeadlineMisses != 0 {
				t.Fatalf("%d deadline misses", pl.DeadlineMisses)
			}
		}},
		{name: "all", spec: base(), check: func(t *testing.T, pl *PolicyReport) {
			if pl.Policies != "powercap-freqcap+cosched+defer-price" {
				t.Fatalf("policies = %q", pl.Policies)
			}
			if pl.CapDenials == 0 || pl.CoScheduled == 0 || pl.DeferredJobs == 0 {
				t.Fatalf("combined run left a policy idle: %+v", pl)
			}
			if pl.CapViolations != 0 {
				t.Fatalf("%d cap violations", pl.CapViolations)
			}
		}},
	}

	// The committed spec carries the full combination; carve the
	// single-policy variants out of it.
	// The cap-only variants get a tighter budget than the committed
	// spec's 5600 W: without co-scheduling packing the nodes, a 1200-
	// submission prefix never reaches that draw and the variant would
	// prove nothing. 4800 W still clears both partitions' idle floors.
	variants[0].spec.Policy = nil
	variants[1].spec.Policy = &workload.PolicySpec{PowerCapW: 4800, CapMode: "wait"}
	variants[2].spec.Policy = &workload.PolicySpec{PowerCapW: 4800, CapMode: "freqcap"}
	variants[3].spec.Policy = &workload.PolicySpec{CoSchedule: true}
	d := *defer1
	variants[4].spec.Policy = &workload.PolicySpec{Deferral: &d}
	return variants
}

// TestClusterPolicyReplayFidelity is the determinism contract for the
// policy layer: under every policy combination, same-seed runs agree,
// the recorded log replays to the same report, and the lane count
// changes nothing.
func TestClusterPolicyReplayFidelity(t *testing.T) {
	for _, v := range policyVariants(t) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			var log1, log2 bytes.Buffer
			run1, err := RunClusterSpec(v.spec, &log1, WithLanes(1))
			if err != nil {
				t.Fatal(err)
			}
			run2, err := RunClusterSpec(v.spec, &log2, WithLanes(2))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(run1, run2) {
				t.Fatalf("lanes=1 vs lanes=2 diverge:\n%+v\nvs\n%+v", run1, run2)
			}
			if !bytes.Equal(log1.Bytes(), log2.Bytes()) {
				t.Fatal("recordings are not byte-identical across lane counts")
			}

			replayed, err := ReplayClusterLog(bytes.NewReader(log1.Bytes()), WithLanes(2))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(run1, replayed) {
				t.Fatalf("replay diverges from recorded run:\n%+v\nvs\n%+v", run1, replayed)
			}

			var text1, text2 bytes.Buffer
			run1.WriteText(&text1)
			replayed.WriteText(&text2)
			if !bytes.Equal(text1.Bytes(), text2.Bytes()) {
				t.Fatal("rendered reports differ between run and replay")
			}

			v.check(t, run1.Policy)
		})
	}
}

// TestPolicyReportFitness pins that a policy run reports a non-zero
// fitness and renders it — the row `chronus simulate` prints for
// comparing policy settings.
func TestPolicyReportFitness(t *testing.T) {
	spec := loadSpec(t, "powercap-smoke.json")
	spec.MaxSubmissions = 400
	run, err := RunClusterSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Policy.Score <= 0 || run.Policy.EnergyKJ <= 0 {
		t.Fatalf("fitness = %+v", run.Policy)
	}
	var buf bytes.Buffer
	run.WriteText(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("\nfitness     ")) {
		t.Fatalf("report lacks the fitness row:\n%s", buf.String())
	}
}

// TestPolicyFlagsApply covers chronus simulate's CLI override path.
func TestPolicyFlagsApply(t *testing.T) {
	t.Run("zero value is a no-op", func(t *testing.T) {
		spec := loadSpec(t, "powercap-smoke.json")
		orig := spec.Policy
		if err := (PolicyFlags{}).Apply(&spec); err != nil {
			t.Fatal(err)
		}
		if spec.Policy != orig {
			t.Fatal("zero flags replaced the spec's policy block")
		}
	})

	t.Run("flags build a block from scratch", func(t *testing.T) {
		spec := loadSpec(t, "race-smoke.json")
		if spec.Policy != nil {
			t.Fatal("race-smoke unexpectedly carries a policy block")
		}
		pf := PolicyFlags{
			PowerCapW: 9000, CapMode: "wait", CoSchedule: true,
			DeferSignal: "carbon", DeferThreshold: 0.4, DeferMax: 2 * time.Hour,
		}
		if err := pf.Apply(&spec); err != nil {
			t.Fatal(err)
		}
		p := spec.Policy
		if p == nil || p.PowerCapW != 9000 || p.CapMode != "wait" || !p.CoSchedule {
			t.Fatalf("policy = %+v", p)
		}
		if p.Deferral == nil || p.Deferral.Signal != "carbon" || p.Deferral.MaxDefer != workload.Duration(2*time.Hour) {
			t.Fatalf("deferral = %+v", p.Deferral)
		}
		if got := p.Label(); got != "powercap-wait+cosched+defer-carbon" {
			t.Fatalf("label = %q", got)
		}
	})

	t.Run("overrides keep the original block intact", func(t *testing.T) {
		spec := loadSpec(t, "powercap-smoke.json")
		origCap := spec.Policy.PowerCapW
		origCheck := spec.Policy.Deferral.Check
		pf := PolicyFlags{PowerCapW: 7000, DeferSignal: "carbon", DeferThreshold: 0.3, DeferMax: time.Hour}
		if err := pf.Apply(&spec); err != nil {
			t.Fatal(err)
		}
		if spec.Policy.PowerCapW != 7000 {
			t.Fatalf("cap = %g", spec.Policy.PowerCapW)
		}
		// The flag-built deferral inherits the spec's re-check cadence.
		if spec.Policy.Deferral.Check != origCheck {
			t.Fatalf("check = %v, want inherited %v", spec.Policy.Deferral.Check, origCheck)
		}
		// Copy-on-write: reloading shows the file's block untouched.
		fresh := loadSpec(t, "powercap-smoke.json")
		if fresh.Policy.PowerCapW != origCap {
			t.Fatalf("original spec mutated: cap = %g", fresh.Policy.PowerCapW)
		}
	})

	t.Run("bounds alone override the spec's deferral block", func(t *testing.T) {
		spec := loadSpec(t, "powercap-smoke.json")
		orig := *spec.Policy.Deferral
		if err := (PolicyFlags{DeferThreshold: 0.1}).Apply(&spec); err != nil {
			t.Fatal(err)
		}
		want := orig
		want.Threshold = 0.1
		if got := *spec.Policy.Deferral; got != want {
			t.Fatalf("threshold-only override: deferral = %+v, want %+v", got, want)
		}
		if err := (PolicyFlags{DeferMax: time.Hour}).Apply(&spec); err != nil {
			t.Fatal(err)
		}
		want.MaxDefer = workload.Duration(time.Hour)
		if got := *spec.Policy.Deferral; got != want {
			t.Fatalf("max-only override on top: deferral = %+v, want %+v", got, want)
		}
		if fresh := loadSpec(t, "powercap-smoke.json"); *fresh.Policy.Deferral != orig {
			t.Fatalf("original spec mutated: deferral = %+v", fresh.Policy.Deferral)
		}
	})

	t.Run("invalid combinations are rejected", func(t *testing.T) {
		for name, pf := range map[string]PolicyFlags{
			"cap mode without cap": {CapMode: "wait"},
			"unknown cap mode":     {PowerCapW: 5000, CapMode: "turbo"},
			"unknown signal":       {DeferSignal: "moon-phase", DeferThreshold: 1, DeferMax: time.Hour},
			"deferral no bound":    {DeferSignal: "price", DeferThreshold: 1},
			// race-smoke has no deferral block for the bounds to override.
			"bounds without a block": {DeferThreshold: 0.1, DeferMax: time.Hour},
		} {
			spec := loadSpec(t, "race-smoke.json")
			if err := pf.Apply(&spec); err == nil {
				t.Errorf("%s: accepted", name)
			}
		}
	})
}
