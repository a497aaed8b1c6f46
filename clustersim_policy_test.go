package ecosched

import (
	"bytes"
	"reflect"
	"testing"

	"ecosched/internal/slurm"
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

// TestLanePoliciesSplitTheBudget pins the one place a cluster budget
// is split across partitions, one row per rule, for the 24-node batch
// partition of a 32-node cluster.
func TestLanePoliciesSplitTheBudget(t *testing.T) {
	batch := workload.PartitionSpec{Name: "batch", Nodes: 24}
	cases := []struct {
		name string
		pol  workload.PolicySpec
		want float64 // the lane's PowerCapPolicy.CapW; 0 = none
	}{
		{"cluster cap only: cap·n/N", workload.PolicySpec{PowerCapW: 6000, CapMode: "freqcap"}, 4500},
		{"entry below the share: the entry",
			workload.PolicySpec{PowerCapW: 6000, PartitionCapsW: []workload.PartitionCap{{Name: "batch", CapW: 3000}}}, 3000},
		{"entry above the share: the share",
			workload.PolicySpec{PowerCapW: 6000, PartitionCapsW: []workload.PartitionCap{{Name: "batch", CapW: 5000}}}, 4500},
		{"entry only: the entry",
			workload.PolicySpec{PartitionCapsW: []workload.PartitionCap{{Name: "batch", CapW: 3000}}}, 3000},
		{"another partition capped, this one not: no cap",
			workload.PolicySpec{PartitionCapsW: []workload.PartitionCap{{Name: "debug", CapW: 900}}, CoSchedule: true}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pols := lanePolicies(&tc.pol, batch, 32, 42)
			var caps []*slurm.PowerCapPolicy
			for _, p := range pols {
				if pc, ok := p.(*slurm.PowerCapPolicy); ok {
					caps = append(caps, pc)
				}
			}
			if tc.want == 0 {
				if len(caps) != 0 || len(pols) == 0 {
					t.Fatalf("lane policies %+v: want the co-scheduling policy and no cap", pols)
				}
				return
			}
			if len(caps) != 1 || caps[0].CapW != tc.want || caps[0].Mode != tc.pol.CapMode {
				t.Fatalf("lane caps %+v, want one of %g W in mode %q", caps, tc.want, tc.pol.CapMode)
			}
		})
	}
}
