package ecosched

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

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

// TestClusterLedgerChecks: every run checks its own job and cap ledgers
// (a run that fails one returns its error, so every cluster test holds
// them). Here each identity is broken on a real report in turn, and the
// error must name the partition and the identity.
func TestClusterLedgerChecks(t *testing.T) {
	spec := loadSpec(t, "powercap-smoke.json")
	spec.MaxSubmissions = 400
	run, err := RunClusterSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := run.Partitions[0]
	if batch.Name != "batch" || batch.CapW == 0 || batch.Completed == 0 {
		t.Fatalf("want a capped batch partition that completed jobs: %+v", batch)
	}
	jobs := "completed + %d failed + %d cancelled"
	cases := []struct {
		name  string
		apply func(r *ClusterReport)
		want  string // "" = the ledgers still close
	}{
		{"unchanged", func(*ClusterReport) {}, ""},
		{"a completion dropped", func(r *ClusterReport) { r.Partitions[0].Completed-- },
			fmt.Sprintf("partition batch: %d submitted, but %d "+jobs, batch.Submitted, batch.Completed-1, batch.Failed, batch.Cancelled)},
		{"a cancellation added", func(r *ClusterReport) { r.Partitions[1].Cancelled++ },
			"partition debug: "},
		{"a submission lost", func(r *ClusterReport) { r.Submissions++ },
			fmt.Sprintf("%d submissions, but", run.Submissions+1)},
		{"a rejection double-counted", func(r *ClusterReport) { r.Rejected++ },
			fmt.Sprintf("+ %d rejected", run.Rejected+1)},
		{"peak within the slack", func(r *ClusterReport) { r.Partitions[0].PeakDrawW = r.Partitions[0].CapW * (1 + 1e-12) }, ""},
		{"peak over the cap", func(r *ClusterReport) { r.Partitions[0].PeakDrawW = r.Partitions[0].CapW + 1 },
			"partition batch: peak draw"},
		{"a cap violation", func(r *ClusterReport) { r.Policy.CapViolations = 1 },
			"1 power-cap violations"},
	}
	for _, c := range cases {
		r := *run
		r.Partitions = slices.Clone(run.Partitions)
		pl := *run.Policy
		r.Policy = &pl
		c.apply(&r)
		err := r.checkLedgers()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestClusterRejectsJobsNoCapAdmits: one node and compute jobs that no
// primary could ever start under its cap. The controller refuses each
// at submission, and the run reports them rejected instead of failing
// its job ledger. Rows: a 170 W freqcap cap, above the 129.5 W idle
// floor, and 32-task jobs, which draw 174.1 W even at the ladder's
// lowest rung; and a wait cap at idle + 51.2 W under co-scheduling and
// 16-task jobs, which draw 52.2 W over idle at the ladder top, where a
// primary runs in wait mode. They would draw 30.9 W at 1.5 GHz, but
// only beside a primary at that clock, and wait mode has none.
func TestClusterRejectsJobsNoCapAdmits(t *testing.T) {
	idle := slurm.NewPowerModel(clusterCalib).IdleNodeW()
	for _, row := range []struct {
		name   string
		policy workload.PolicySpec
		tasks  float64
	}{
		{"freqcap-170w", workload.PolicySpec{PowerCapW: 170, CapMode: "freqcap"}, 32},
		{"cosched-wait-idle+51.2w", workload.PolicySpec{PowerCapW: idle + 51.2, CapMode: "wait", CoSchedule: true}, 16},
	} {
		spec := workload.Spec{
			Version: workload.SpecVersion, Name: row.name, Seed: 1,
			Horizon: workload.Duration(24 * time.Hour), MaxSubmissions: 40,
			Cluster: workload.ClusterSpec{Partitions: []workload.PartitionSpec{{Name: "batch", Nodes: 1, Default: true}}},
			Policy:  &row.policy,
			Clients: []workload.Client{{
				Name:    "hpcg",
				Arrival: workload.ArrivalSpec{Process: workload.ArrivalPoisson, RatePerHour: 10},
				Jobs: workload.JobSpec{
					Work:      workload.Dist{Kind: workload.DistConstant, Value: 36000},
					Tasks:     workload.Dist{Kind: workload.DistConstant, Value: row.tasks},
					TimeLimit: workload.Dist{Kind: workload.DistConstant, Value: 7200},
					Profile:   workload.ProfileCompute,
				},
			}},
		}
		rep, err := RunClusterSpec(spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if rep.Submissions != 40 || rep.Rejected != 40 || rep.Totals.Jobs != 0 {
			t.Fatalf("%s: %d submissions, %d rejected, %d jobs accounted; want all 40 rejected", row.name, rep.Submissions, rep.Rejected, rep.Totals.Jobs)
		}
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
		want float64 // the lane's EnergyPolicy.CapW; 0 = none
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
			ep := lanePolicies(&tc.pol, batch, 32, 42)
			if ep.CapW != tc.want || ep.FreqCap != (tc.pol.CapMode == "freqcap") || (ep.Penalty == defaultInterferencePenalty) != tc.pol.CoSchedule {
				t.Fatalf("lane policy %+v, want a cap of %g W in mode %q, co-scheduling %v", ep, tc.want, tc.pol.CapMode, tc.pol.CoSchedule)
			}
		})
	}
}
