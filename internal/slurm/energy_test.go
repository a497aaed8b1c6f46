package slurm

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// newPolicyCluster builds a cluster of nodeCount nodes under the given
// energy policy.
func newPolicyCluster(t *testing.T, nodeCount int, pol EnergyPolicy) (*simclock.Sim, *Controller) {
	t.Helper()
	sim := simclock.New()
	c, err := tryPolicyCluster(sim, nodeCount, pol)
	if err != nil {
		t.Fatal(err)
	}
	return sim, c
}

func tryPolicyCluster(sim *simclock.Sim, nodeCount int, pol EnergyPolicy) (*Controller, error) {
	nodes := make([]*hw.Node, nodeCount)
	for i := range nodes {
		spec := hw.DefaultSpec()
		spec.Name = spec.Name + string(rune('a'+i))
		nodes[i] = hw.NewNode(sim, spec, perfmodel.Default(), uint64(i+1))
	}
	return NewCluster(sim, DefaultConf(),
		WithNodes(nodes...),
		WithEnergyPolicy(pol))
}

// sleepDesc is a fixed-duration job: runtime is independent of the
// frequency the cap pins, so test timings stay exact.
func sleepDesc(tasks int, d time.Duration, profile string) JobDesc {
	return JobDesc{
		Name: "sleep", NumTasks: tasks, TimeLimit: 2 * d,
		Shape: &workload.Shape{Kind: workload.ShapeSleep, Label: "sleep", Duration: d, Profile: profile},
	}
}

// testLadderWatts returns the idle node draw and the placement deltas
// of a full-width single-thread job at each frequency rung — the knobs
// the cap tests size their budgets with.
func testLadderWatts() (idleW float64, deltas []float64) {
	pm := NewPowerModel(perfmodel.Default())
	spec := hw.DefaultSpec()
	for _, f := range spec.FrequenciesKHz {
		deltas = append(deltas, pm.PlacementDeltaW(perfmodel.Config{
			Cores: spec.Cores, FreqKHz: f, ThreadsPerCore: 1,
		}))
	}
	return pm.IdleNodeW(), deltas
}

func TestPowerModelLadderMonotone(t *testing.T) {
	idle, deltas := testLadderWatts()
	if idle <= 0 {
		t.Fatalf("IdleNodeW = %g, want > 0", idle)
	}
	for i, d := range deltas {
		if d <= 0 {
			t.Fatalf("rung %d delta = %g W, want > 0", i, d)
		}
		if i > 0 && d <= deltas[i-1] {
			t.Fatalf("ladder deltas not increasing: %v", deltas)
		}
	}
	pm := NewPowerModel(perfmodel.Default())
	cfg := perfmodel.Config{Cores: 32, FreqKHz: 2_500_000, ThreadsPerCore: 1}
	if got := pm.ActiveNodeW(cfg); got <= pm.IdleNodeW() {
		t.Fatalf("ActiveNodeW = %g, not above idle %g", got, pm.IdleNodeW())
	}
	if got := pm.CPUDeltaW(cfg); got <= 0 {
		t.Fatalf("CPUDeltaW = %g, want > 0", got)
	}
}

// TestDeltaTableIsTheModel: the placement-delta table a node reads is
// its power model, bit for bit, at every configuration it holds — cores
// 0..TotalCores, each rung of the ladder (one of them off the
// calibrated P-states) and each P-state, one or two threads — and a
// configuration outside it falls through to the model. A second
// calibration gets a table of its own values, and the first one's comes
// back with its own.
func TestDeltaTableIsTheModel(t *testing.T) {
	ladder := []int{1_500_000, 1_800_000, 2_500_000}
	first, second := perfmodel.Default(), perfmodel.Default()
	second.UncoreW *= 1.5
	check := func(calib *perfmodel.Calibration) {
		t.Helper()
		tab, pm := deltaTableFor(calib, ladder), NewPowerModel(calib)
		if tab.pm != pm || !slices.Equal(tab.freqs, []int{1_500_000, 1_800_000, 2_500_000, 2_200_000}) {
			t.Fatalf("table over %v for %p, want the ladder then the other P-states for %p", tab.freqs, tab.pm.calib, calib)
		}
		for _, f := range tab.freqs {
			for c := 0; c <= calib.TotalCores; c++ {
				for threads := 1; threads <= 2; threads++ {
					cfg := perfmodel.Config{Cores: c, FreqKHz: f, ThreadsPerCore: threads}
					if got, want := tab.deltaW(cfg), pm.PlacementDeltaW(cfg); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v: table %v W, model %v W", cfg, got, want)
					}
				}
			}
		}
		for _, cfg := range []perfmodel.Config{
			{Cores: 16, FreqKHz: 2_000_000, ThreadsPerCore: 1}, // off the ladder and the P-states
			{Cores: 16, FreqKHz: 0, ThreadsPerCore: 1},
			{Cores: calib.TotalCores + 1, FreqKHz: 2_500_000, ThreadsPerCore: 1},
			{Cores: -1, FreqKHz: 2_500_000, ThreadsPerCore: 1},
			{Cores: 16, FreqKHz: 2_500_000, ThreadsPerCore: 3},
			{Cores: 16, FreqKHz: 2_500_000, ThreadsPerCore: 0},
		} {
			if got, want := tab.deltaW(cfg), pm.PlacementDeltaW(cfg); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v, outside the table: %v W, the model %v W", cfg, got, want)
			}
		}
	}
	check(first)
	check(second)
	full := perfmodel.Config{Cores: 32, FreqKHz: 2_500_000, ThreadsPerCore: 1}
	if deltaTableFor(first, ladder).deltaW(full) == deltaTableFor(second, ladder).deltaW(full) {
		t.Fatal("two calibrations with different uncore power share a placement delta")
	}
	check(first)
	if a, b := deltaTableFor(first, ladder), deltaTableFor(first, ladder); a != b {
		t.Fatal("asking again for the same calibration and ladder built a second table")
	}
}

func TestPolicyAttachValidation(t *testing.T) {
	idle, _ := testLadderWatts()
	cases := []struct {
		name string
		pol  EnergyPolicy
		want string // error substring; "" = must attach cleanly
	}{
		{"cap below idle floor", EnergyPolicy{CapW: idle * 0.5}, "no job could ever start"},
		{"cap at idle floor", EnergyPolicy{CapW: idle}, "no job could ever start"},
		{"valid combo", EnergyPolicy{CapW: idle + 200, FreqCap: true}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tryPolicyCluster(simclock.New(), 1, tc.pol)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("attach: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestPowerCapWaitDeniesThenReleases(t *testing.T) {
	idle, deltas := testLadderWatts()
	maxDelta := deltas[len(deltas)-1]
	// Two nodes, budget for exactly one full-width job at ladder max.
	cap := 2*idle + 1.5*maxDelta
	sim, c := newPolicyCluster(t, 2, EnergyPolicy{CapW: cap})

	j1, err := c.Submit(sleepDesc(32, 10*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(sleepDesc(32, 10*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	if j1.State != StateRunning {
		t.Fatalf("job 1 = %s (%s), want RUNNING", j1.State, j1.Reason)
	}
	if j2.State != StatePending || j2.Reason != reasonPowerCap {
		t.Fatalf("job 2 = %s (%q), want PENDING/PowerCap", j2.State, j2.Reason)
	}
	draw, peak, capW := c.PartitionDrawW()
	if capW != cap {
		t.Fatalf("capW = %g, want %g", capW, cap)
	}
	if draw > cap || peak > cap {
		t.Fatalf("draw %g / peak %g exceed cap %g", draw, peak, cap)
	}

	sim.Run()
	if j1.State != StateCompleted || j2.State != StateCompleted {
		t.Fatalf("end states: %s, %s", j1.State, j2.State)
	}
	// The denied job could only start after the first finished.
	if j2.StartTime < j1.EndTime {
		t.Fatalf("job 2 started %v before job 1 ended %v", j2.StartTime, j1.EndTime)
	}
	tot := c.PolicyTotals()
	if tot.CapDenials == 0 {
		t.Fatal("no cap denials counted")
	}
	if tot.CapViolations != 0 {
		t.Fatalf("CapViolations = %d", tot.CapViolations)
	}
	if draw, _, _ := c.PartitionDrawW(); draw != 2*idle {
		t.Fatalf("draw after drain = %g, want idle floor %g", draw, 2*idle)
	}
}

func TestPowerCapFreqCapPinsLadder(t *testing.T) {
	idle, deltas := testLadderWatts()
	// Budget between the lowest and middle rung: an unpinned job fits
	// only at the lowest frequency.
	cap := idle + (deltas[0]+deltas[1])/2
	sim, c := newPolicyCluster(t, 1, EnergyPolicy{CapW: cap, FreqCap: true})

	lowest := hw.DefaultSpec().FrequenciesKHz[0]
	j, err := c.Submit(sleepDesc(32, 10*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateRunning {
		t.Fatalf("job = %s (%s), want RUNNING", j.State, j.Reason)
	}
	if j.Desc.MaxFreqKHz != lowest || j.Desc.MinFreqKHz != lowest {
		t.Fatalf("pinned to %d..%d kHz, want %d", j.Desc.MinFreqKHz, j.Desc.MaxFreqKHz, lowest)
	}
	if tot := c.PolicyTotals(); tot.FreqCapped != 1 {
		t.Fatalf("FreqCapped = %d", tot.FreqCapped)
	}
	sim.Run()

	// An explicit --cpu-freq request is honoured, never silently
	// down-pinned: over what the budget leaves above the idle floor it
	// could never start, so it is refused at submission.
	top := hw.DefaultSpec().FrequenciesKHz[len(hw.DefaultSpec().FrequenciesKHz)-1]
	desc := sleepDesc(32, 10*time.Minute, "")
	desc.MaxFreqKHz, desc.MinFreqKHz = top, top
	if _, err := c.Submit(desc); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%.1f W over idle", deltas[len(deltas)-1])) {
		t.Fatalf("pinned submit err = %v, want a refusal at its requested clock's %.1f W", err, deltas[len(deltas)-1])
	}
	if tot := c.PolicyTotals(); tot.FreqCapped != 1 {
		t.Fatalf("FreqCapped grew to %d on an explicit request", tot.FreqCapped)
	}
}

// TestPowerCapRefusesUnfittableJobAtSubmit: a 170 W cap on one node is
// above its idle floor, so the policy attaches, but below the draw of a
// 32-task job at the ladder's lowest rung. A job is refused at
// submission when the least delta fit could charge it exceeds the cap's
// headroom, the error naming both figures: the lowest rung for an
// unpinned job in freqcap mode, the ladder maximum in wait mode, the
// requested clock for a --cpu-freq job in either. Every other job is
// accepted and starts.
func TestPowerCapRefusesUnfittableJobAtSubmit(t *testing.T) {
	const capW = 170
	spec := hw.DefaultSpec()
	ladder := spec.FrequenciesKHz
	lowest, top := ladder[0], ladder[len(ladder)-1]
	pm := NewPowerModel(perfmodel.Default())
	idle := pm.IdleNodeW()
	delta := func(tasks, freq int) float64 {
		return pm.PlacementDeltaW(perfmodel.Config{Cores: tasks, FreqKHz: freq, ThreadsPerCore: 1})
	}
	// The cases need: 32 tasks exceed the headroom at every rung; 16
	// tasks fit it at the lowest rung but not at the top one.
	if !(idle < capW && delta(32, lowest) > capW-idle && delta(16, lowest) <= capW-idle && delta(16, top) > capW-idle) {
		t.Fatalf("idle floor %.1f W and deltas %.1f/%.1f/%.1f W no longer straddle the %d W cap",
			idle, delta(32, lowest), delta(16, lowest), delta(16, top), capW)
	}
	for _, tc := range []struct {
		name         string
		freqCap      bool
		tasks, freq  int // freq 0: no --cpu-freq request
		refusedLeast float64
	}{
		{"freqcap/32 tasks", true, 32, 0, delta(32, lowest)},
		{"freqcap/16 tasks", true, 16, 0, 0},
		{"freqcap/16 tasks pinned top", true, 16, top, delta(16, top)},
		{"wait/16 tasks", false, 16, 0, delta(16, top)},
		{"wait/16 tasks pinned lowest", false, 16, lowest, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newPolicyCluster(t, 1, EnergyPolicy{CapW: capW, FreqCap: tc.freqCap})
			desc := sleepDesc(tc.tasks, 10*time.Minute, "")
			desc.MaxFreqKHz, desc.MinFreqKHz = tc.freq, tc.freq
			j, err := c.Submit(desc)
			if tc.refusedLeast == 0 {
				if err != nil {
					t.Fatal(err)
				}
				if j.State != StateRunning {
					t.Fatalf("job = %s (%q), want RUNNING", j.State, j.Reason)
				}
				return
			}
			least, headroom := fmt.Sprintf("%.1f W", tc.refusedLeast), fmt.Sprintf("%.1f W", capW-idle)
			if err == nil || !strings.Contains(err.Error(), least) || !strings.Contains(err.Error(), headroom) {
				t.Fatalf("submit err = %v, want a refusal naming %s and %s", err, least, headroom)
			}
			if n := len(c.part.pending); n != 0 || c.nextID != 1 {
				t.Fatalf("a refused job left %d queued, next id %d", n, c.nextID)
			}
		})
	}
}

func TestCoSchedulePairsComplementaryProfiles(t *testing.T) {
	sim, c := newPolicyCluster(t, 1, EnergyPolicy{Penalty: 1.25})

	pri, err := c.Submit(sleepDesc(16, 20*time.Minute, workload.ProfileCompute))
	if err != nil {
		t.Fatal(err)
	}
	if pri.State != StateRunning {
		t.Fatalf("primary = %s (%s)", pri.State, pri.Reason)
	}
	// Same profile never pairs.
	same, err := c.Submit(sleepDesc(4, 5*time.Minute, workload.ProfileCompute))
	if err != nil {
		t.Fatal(err)
	}
	if same.State != StatePending {
		t.Fatalf("same-profile job = %s, want PENDING", same.State)
	}
	// Unprofiled never pairs.
	plain, err := c.Submit(sleepDesc(4, 5*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	if plain.State != StatePending {
		t.Fatalf("unprofiled job = %s, want PENDING", plain.State)
	}
	// Exclusive never pairs, even with the complementary profile.
	excl := sleepDesc(4, 5*time.Minute, workload.ProfileMemory)
	excl.Exclusive = true
	ej, err := c.Submit(excl)
	if err != nil {
		t.Fatal(err)
	}
	if ej.State != StatePending {
		t.Fatalf("exclusive job = %s, want PENDING", ej.State)
	}
	// The complementary profile pairs onto the busy node.
	sec, err := c.Submit(sleepDesc(8, 10*time.Minute, workload.ProfileMemory))
	if err != nil {
		t.Fatal(err)
	}
	if sec.State != StateRunning {
		t.Fatalf("secondary = %s (%s), want RUNNING", sec.State, sec.Reason)
	}
	if sec.NodeName != pri.NodeName {
		t.Fatalf("secondary on %q, primary on %q", sec.NodeName, pri.NodeName)
	}
	if tot := c.PolicyTotals(); tot.CoScheduled != 1 {
		t.Fatalf("CoScheduled = %d", tot.CoScheduled)
	}

	sim.Run()
	for _, j := range []*Job{pri, same, plain, ej, sec} {
		if j.State != StateCompleted {
			t.Fatalf("job %d ended %s (%s)", j.ID, j.State, j.Reason)
		}
	}
	// The secondary's energy comes from the power model, not the hw
	// stack (which runs only the primary).
	if sec.SystemJ <= 0 || sec.CPUJ <= 0 {
		t.Fatalf("secondary energy %g J system / %g J CPU, want > 0", sec.SystemJ, sec.CPUJ)
	}
	if sec.CPUJ >= sec.SystemJ {
		t.Fatalf("secondary CPU energy %g J not below system %g J", sec.CPUJ, sec.SystemJ)
	}
}

func TestCoScheduleRespectsTaskCapacity(t *testing.T) {
	_, c := newPolicyCluster(t, 1, EnergyPolicy{Penalty: 1.25})
	pri, err := c.Submit(sleepDesc(30, 20*time.Minute, workload.ProfileCompute))
	if err != nil {
		t.Fatal(err)
	}
	if pri.State != StateRunning {
		t.Fatalf("primary = %s", pri.State)
	}
	// 30 + 8 > 32 cores: no room beside the primary.
	sec, err := c.Submit(sleepDesc(8, 10*time.Minute, workload.ProfileMemory))
	if err != nil {
		t.Fatal(err)
	}
	if sec.State != StatePending {
		t.Fatalf("oversized secondary = %s, want PENDING", sec.State)
	}
}

func TestDeferralHoldsUntilSignalDrops(t *testing.T) {
	sim := simclock.New()
	start := sim.Now()
	cheapAt := start.Add(time.Hour)
	signal := func(t time.Time) float64 {
		if t.Before(cheapAt) {
			return 1.0
		}
		return 0.1
	}
	c, err := tryPolicyCluster(sim, 1, EnergyPolicy{
		Signal: signal, Threshold: 0.5, MaxDefer: 6 * time.Hour, Check: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	desc := sleepDesc(8, 30*time.Minute, "")
	desc.Deferrable = true
	j, err := c.Submit(desc)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StatePending || j.Reason != reasonEnergyHold {
		t.Fatalf("job = %s (%q), want PENDING/EnergyHold", j.State, j.Reason)
	}
	// A non-deferrable job sails through the same queue meanwhile: the
	// hold applies per job, not per partition.
	eager, err := c.Submit(sleepDesc(4, 5*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	if eager.State != StateRunning {
		t.Fatalf("non-deferrable job = %s (%s)", eager.State, eager.Reason)
	}

	sim.Run()
	if j.State != StateCompleted {
		t.Fatalf("deferred job ended %s (%s)", j.State, j.Reason)
	}
	// Re-checks run on the 10-minute cadence, so the job starts exactly
	// when the first check at or past the signal drop fires.
	if !j.StartTime.Time().Equal(cheapAt) {
		t.Fatalf("started %v, want %v", j.StartTime, cheapAt)
	}
	tot := c.PolicyTotals()
	if tot.DeferredJobs != 1 || tot.ForcedDispatches != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestDeferralForcedDispatch(t *testing.T) {
	alwaysHigh := func(time.Time) float64 { return 1.0 }

	t.Run("max defer bound", func(t *testing.T) {
		sim := simclock.New()
		c, err := tryPolicyCluster(sim, 1, EnergyPolicy{
			Signal: alwaysHigh, Threshold: 0.5, MaxDefer: time.Hour, Check: 10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		desc := sleepDesc(8, 20*time.Minute, "")
		desc.Deferrable = true
		j, err := c.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		submit := j.SubmitTime.Time()
		sim.Run()
		if j.State != StateCompleted {
			t.Fatalf("job ended %s (%s)", j.State, j.Reason)
		}
		if want := submit.Add(time.Hour); !j.StartTime.Time().Equal(want) {
			t.Fatalf("started %v, want max-defer bound %v", j.StartTime, want)
		}
		tot := c.PolicyTotals()
		if tot.DeferredJobs != 1 || tot.ForcedDispatches != 1 {
			t.Fatalf("totals = %+v", tot)
		}
	})

	t.Run("deadline bound", func(t *testing.T) {
		sim := simclock.New()
		c, err := tryPolicyCluster(sim, 1, EnergyPolicy{
			Signal: alwaysHigh, Threshold: 0.5, MaxDefer: 6 * time.Hour, Check: 10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		desc := sleepDesc(8, 20*time.Minute, "")
		desc.Deferrable = true
		desc.TimeLimit = 30 * time.Minute
		desc.Deadline = sim.Now().Add(90 * time.Minute)
		j, err := c.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		if j.State != StateCompleted {
			t.Fatalf("job ended %s (%s)", j.State, j.Reason)
		}
		// Released at Deadline − TimeLimit, leaving room for the worst
		// allowed runtime.
		if want := desc.Deadline.Add(-desc.TimeLimit); !j.StartTime.Time().Equal(want) {
			t.Fatalf("started %v, want deadline slack bound %v", j.StartTime, want)
		}
		if j.EndTime.Time().After(desc.Deadline) {
			t.Fatalf("job finished %v after its deadline %v", j.EndTime, desc.Deadline)
		}
		if tot := c.PolicyTotals(); tot.ForcedDispatches != 1 {
			t.Fatalf("ForcedDispatches = %d", tot.ForcedDispatches)
		}
	})
}

func TestPolicyAccessors(t *testing.T) {
	idle, _ := testLadderWatts()
	_, c := newPolicyCluster(t, 2, EnergyPolicy{CapW: 2*idle + 500, Penalty: 1.25})
	draw, peak, capW := c.PartitionDrawW()
	if draw != 2*idle || peak != 2*idle {
		t.Fatalf("idle cluster draw %g / peak %g, want %g", draw, peak, 2*idle)
	}
	if capW != 2*idle+500 {
		t.Fatalf("capW = %g", capW)
	}

	// Without the policy layer the accessors report inactive zeros.
	_, plain := newCluster(t, DefaultConf(), 1)
	if d, p, w := plain.PartitionDrawW(); d != 0 || p != 0 || w != 0 {
		t.Fatalf("plain controller draw = %g/%g/%g", d, p, w)
	}
}

// TestCompletionBillsRunningJob: a paired job's completion bills it in
// either role — a primary the node's measured energy since its start,
// a co-scheduled secondary its pairing's power estimate over the time
// it ran — into the job, its accounting row and the totals. Once with
// the primary ending first, promoting the secondary to the node's
// occupant, and once with the secondary ending first beside its
// running primary.
func TestCompletionBillsRunningJob(t *testing.T) {
	for _, role := range []string{"primary", "secondary"} {
		t.Run(role, func(t *testing.T) {
			_, c := newPolicyCluster(t, 1, EnergyPolicy{Penalty: 1.25})
			node := c.Nodes()[0]
			pri, err := c.Submit(sleepDesc(16, 20*time.Minute, workload.ProfileCompute))
			if err != nil {
				t.Fatal(err)
			}
			sys0, cpu0 := node.EnergyJ()
			// The secondary's plan is stretched by the 1.25 penalty:
			// 25 minutes, after the primary; 10 minutes, before it.
			secFor := 20 * time.Minute
			if role == "secondary" {
				secFor = 8 * time.Minute
			}
			sec, err := c.Submit(sleepDesc(8, secFor, workload.ProfileMemory))
			if err != nil {
				t.Fatal(err)
			}
			if pri.State != StateRunning || sec.State != StateRunning || !sec.coSecondary {
				t.Fatalf("primary %s, secondary %s (paired %v): want both running, paired", pri.State, sec.State, sec.coSecondary)
			}
			done, other := pri, sec
			if role == "secondary" {
				done, other = sec, pri
			}
			if _, err := c.WaitFor(done.ID); err != nil {
				t.Fatal(err)
			}
			if other.State != StateRunning {
				t.Fatalf("the %s ended first but its partner is %s", role, other.State)
			}
			if role == "primary" && c.part.nodes[0].current != sec {
				t.Fatal("the primary's completion did not promote the secondary to the node's occupant")
			}
			wantSys, wantCPU := sec.estSysW*600, sec.estCPUW*600
			if role == "primary" {
				sys1, cpu1 := node.EnergyJ()
				wantSys, wantCPU = sys1-sys0, cpu1-cpu0
			}
			if wantSys <= 0 || wantCPU <= 0 {
				t.Fatalf("expected energy %g J system / %g J CPU: the test measures nothing", wantSys, wantCPU)
			}
			if done.SystemJ != wantSys || done.CPUJ != wantCPU {
				t.Fatalf("completed %s billed %g J system / %g J CPU, want %g / %g", role, done.SystemJ, done.CPUJ, wantSys, wantCPU)
			}
			rec, ok := c.Accounting().Record(done.ID)
			if !ok || rec.State != StateCompleted || rec.SystemKJ != wantSys/1000 || rec.CPUKJ != wantCPU/1000 {
				t.Fatalf("accounting row %+v (found %v), want COMPLETED with %g kJ / %g kJ", rec, ok, wantSys/1000, wantCPU/1000)
			}
			if tot := c.Accounting().Totals(); tot.SystemKJ != rec.SystemKJ || tot.CPUKJ != rec.CPUKJ {
				t.Fatalf("totals %g kJ / %g kJ, want the completed job's %g / %g", tot.SystemKJ, tot.CPUKJ, rec.SystemKJ, rec.CPUKJ)
			}
		})
	}
}
