package hw

import (
	"math"
	"slices"
	"testing"
	"time"
	"unsafe"

	"ecosched/internal/paperdata"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
)

func newTestNode() (*simclock.Sim, *Node) {
	sim := simclock.New()
	return sim, NewNode(sim, DefaultSpec(), perfmodel.Default(), 1)
}

func TestDefaultSpecMatchesPaperNode(t *testing.T) {
	s := DefaultSpec()
	if s.Cores != 32 || s.ThreadsPerCore != 2 || s.RAMGB != 256 {
		t.Fatalf("spec = %+v, want the paper's SR650", s)
	}
	if len(s.FrequenciesKHz) != 3 {
		t.Fatalf("frequency ladder = %v", s.FrequenciesKHz)
	}
}

func TestIdleNodeSensors(t *testing.T) {
	_, n := newTestNode()
	if n.job != nil {
		t.Fatal("fresh node has an active job")
	}
	if _, got, _ := n.Sensors(); math.Abs(got-n.Calibration().IdleCPUPowerW()) > 1e-9 {
		t.Fatalf("idle CPU power = %v", got)
	}
	sys := n.SystemPowerW()
	if sys < 100 || sys > 170 {
		t.Fatalf("idle system power %.1f W implausible", sys)
	}
}

func TestGovernorFrequencies(t *testing.T) {
	_, n := newTestNode()
	if f := n.CurrentFreqKHz(); f != 2_500_000 {
		t.Fatalf("performance governor runs %d kHz, want max", f)
	}
	if err := n.SetGovernor(GovernorPowersave); err != nil {
		t.Fatal(err)
	}
	if f := n.CurrentFreqKHz(); f != 1_500_000 {
		t.Fatalf("powersave governor runs %d kHz, want min", f)
	}
	if err := n.SetGovernor(GovernorOndemand); err != nil {
		t.Fatal(err)
	}
	if f := n.CurrentFreqKHz(); f != 1_500_000 {
		t.Fatalf("idle ondemand runs %d kHz, want min", f)
	}
	job, err := n.StartJob(perfmodel.Config{Cores: 32, ThreadsPerCore: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f := n.CurrentFreqKHz(); f != 2_500_000 {
		t.Fatalf("loaded ondemand runs %d kHz, want max", f)
	}
	job.End()
}

func TestUserspaceGovernorSnapsToPState(t *testing.T) {
	_, n := newTestNode()
	if err := n.SetGovernor(GovernorUserspace); err != nil {
		t.Fatal(err)
	}
	if err := n.SetUserspaceFreq(2_300_000); err != nil {
		t.Fatal(err)
	}
	if f := n.CurrentFreqKHz(); f != 2_200_000 {
		t.Fatalf("userspace freq = %d, want snap to 2200000", f)
	}
	if err := n.SetUserspaceFreq(0); err == nil {
		t.Fatal("SetUserspaceFreq(0) accepted")
	}
}

// A node switched to userspace before any frequency is set runs at the
// ladder top. Kills scripts/mutants/userspace-default-ladder-bottom.patch.
func TestUserspaceGovernorWithoutFreqRunsLadderTop(t *testing.T) {
	_, n := newTestNode()
	if err := n.SetGovernor(GovernorUserspace); err != nil {
		t.Fatal(err)
	}
	if f := n.CurrentFreqKHz(); f != 2_500_000 {
		t.Fatalf("userspace governor with no frequency set runs %d kHz, want the ladder top", f)
	}
}

func TestUnknownGovernorRejected(t *testing.T) {
	_, n := newTestNode()
	if err := n.SetGovernor("turbo"); err == nil {
		t.Fatal("unknown governor accepted")
	}
}

func TestExclusiveAllocation(t *testing.T) {
	_, n := newTestNode()
	j, err := n.StartJob(perfmodel.BestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartJob(perfmodel.BestConfig()); err == nil {
		t.Fatal("second concurrent job accepted")
	}
	j.End()
	j.End() // idempotent
	if n.job != nil {
		t.Fatal("node still occupied after End")
	}
	if _, err := n.StartJob(perfmodel.BestConfig()); err != nil {
		t.Fatalf("node not reusable after End: %v", err)
	}
}

func TestStartJobValidatesConfig(t *testing.T) {
	_, n := newTestNode()
	if _, err := n.StartJob(perfmodel.Config{Cores: 64, FreqKHz: 2_500_000, ThreadsPerCore: 1}); err == nil {
		t.Fatal("oversubscribed config accepted")
	}
	if _, err := n.StartJob(perfmodel.Config{Cores: 4, FreqKHz: 2_500_000, ThreadsPerCore: 3}); err == nil {
		t.Fatal("3 threads per core accepted on 2-way SMT node")
	}
}

func TestJobWithoutFreqFollowsGovernor(t *testing.T) {
	_, n := newTestNode()
	n.SetGovernor(GovernorPowersave)
	j, err := n.StartJob(perfmodel.Config{Cores: 32, ThreadsPerCore: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.End()
	if j.Config.FreqKHz != 1_500_000 {
		t.Fatalf("job freq = %d, want governor's 1500000", j.Config.FreqKHz)
	}
}

func TestLoadedPowerMatchesCalibration(t *testing.T) {
	sim, n := newTestNode()
	j, err := n.StartJob(perfmodel.StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer j.End()
	// Average instantaneous power over exactly one oscillation period
	// must equal the calibrated steady value.
	period := time.Duration(n.Calibration().PhasePeriodS * float64(time.Second))
	var sum float64
	const steps = 1000
	for i := 0; i < steps; i++ {
		sim.RunFor(period / steps)
		_, w, _ := n.Sensors()
		sum += w
	}
	avg := sum / steps
	want := n.Calibration().CPUPowerW(perfmodel.StandardConfig(), 1)
	if math.Abs(avg-want)/want > 0.01 {
		t.Fatalf("mean CPU power = %.2f, want %.2f", avg, want)
	}
}

func TestStandardTraceFluctuatesMoreThanBest(t *testing.T) {
	spread := func(cfg perfmodel.Config) float64 {
		sim, n := newTestNode()
		j, err := n.StartJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer j.End()
		sim.RunFor(5 * time.Minute) // settle the thermal/fan transient
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 300; i++ {
			sim.RunFor(time.Second)
			p := n.SystemPowerW()
			lo, hi = math.Min(lo, p), math.Max(hi, p)
		}
		return hi - lo
	}
	std := spread(perfmodel.StandardConfig())
	best := spread(perfmodel.BestConfig())
	if std < 3*best {
		t.Fatalf("standard power spread %.1f W not ≫ best %.1f W (Figure 15 shape)", std, best)
	}
}

func TestEnergyAccountingMatchesTable2(t *testing.T) {
	for _, tc := range []struct {
		cfg perfmodel.Config
		agg paperdata.RunAggregate
	}{
		{perfmodel.StandardConfig(), paperdata.Table2Standard},
		{perfmodel.BestConfig(), paperdata.Table2Best},
	} {
		sim := simclock.New()
		n := NewNode(sim, DefaultSpec(), perfmodel.Default(), 2)
		// Warm to steady state first, as a run preceded by other
		// benchmarks would be.
		warm, _ := n.StartJob(tc.cfg)
		sim.RunFor(5 * time.Minute)
		runSecs := n.Calibration().RuntimeSeconds(tc.cfg)
		n.ResetEnergy()
		sim.RunFor(time.Duration(runSecs * float64(time.Second)))
		sysJ, cpuJ := n.EnergyJ()
		warm.End()

		if math.Abs(sysJ/1000-tc.agg.SystemKJ)/tc.agg.SystemKJ > 0.02 {
			t.Errorf("%s: system energy %.1f kJ, Table 2 says %.1f", tc.agg.Name, sysJ/1000, tc.agg.SystemKJ)
		}
		if math.Abs(cpuJ/1000-tc.agg.CPUKJ)/tc.agg.CPUKJ > 0.02 {
			t.Errorf("%s: CPU energy %.1f kJ, Table 2 says %.1f", tc.agg.Name, cpuJ/1000, tc.agg.CPUKJ)
		}
	}
}

func TestTemperatureApproachesSteadyState(t *testing.T) {
	sim, n := newTestNode()
	_, _, t0 := n.Sensors()
	j, _ := n.StartJob(perfmodel.StandardConfig())
	defer j.End()
	sim.RunFor(10 * time.Second)
	_, _, t1 := n.Sensors()
	sim.RunFor(10 * time.Minute)
	_, _, t2 := n.Sensors()
	want := n.Calibration().SteadyTempC(n.Calibration().CPUPowerW(perfmodel.StandardConfig(), 1))
	if !(t0 < t1 && t1 < t2) {
		t.Fatalf("temperature not rising: %.1f → %.1f → %.1f", t0, t1, t2)
	}
	if math.Abs(t2-want) > 0.5 {
		t.Fatalf("steady temp = %.1f, want %.1f", t2, want)
	}
}

func TestTemperatureCoolsAfterJob(t *testing.T) {
	sim, n := newTestNode()
	j, _ := n.StartJob(perfmodel.StandardConfig())
	sim.RunFor(10 * time.Minute)
	_, _, hot := n.Sensors()
	j.End()
	sim.RunFor(10 * time.Minute)
	_, _, cool := n.Sensors()
	if cool >= hot {
		t.Fatalf("node did not cool after job: %.1f → %.1f", hot, cool)
	}
}

func TestWallPowerReproducesEq1Bias(t *testing.T) {
	sim, n := newTestNode()
	j, _ := n.StartJob(perfmodel.StandardConfig())
	defer j.End()
	sim.RunFor(5 * time.Minute)
	dc := n.SystemPowerW()
	total, psu1, psu2 := n.WallPowerW()
	diffPct := math.Abs(dc-total) / dc * 100
	if math.Abs(diffPct-paperdata.Eq1PercentDiff) > 0.1 {
		t.Fatalf("IPMI-vs-wattmeter difference = %.2f%%, paper says 5.96%%", diffPct)
	}
	if psu1 >= psu2 {
		t.Fatalf("PSU split %.1f/%.1f, paper's PSU1 draws less", psu1, psu2)
	}
}

func TestResetEnergy(t *testing.T) {
	sim, n := newTestNode()
	sim.RunFor(time.Minute)
	if s, _ := n.EnergyJ(); s <= 0 {
		t.Fatal("no idle energy accumulated")
	}
	n.ResetEnergy()
	if s, c := n.EnergyJ(); s != 0 || c != 0 {
		t.Fatalf("energy not reset: %v %v", s, c)
	}
}

func TestEnergyIsMonotone(t *testing.T) {
	sim, n := newTestNode()
	var prevSys float64
	for i := 0; i < 50; i++ {
		sim.RunFor(7 * time.Second)
		sysJ, cpuJ := n.EnergyJ()
		if sysJ < prevSys {
			t.Fatal("system energy decreased")
		}
		if cpuJ > sysJ {
			t.Fatal("CPU energy exceeds system energy")
		}
		prevSys = sysJ
	}
}

// TestNodesShareOneLadderTable: nodes built from one calibration and
// spec ladder share one per-frequency power table, and run jobs to the
// same configuration and joules, bit for bit, as a node that built a
// table of its own from an equal calibration.
func TestNodesShareOneLadderTable(t *testing.T) {
	sim := simclock.New()
	calib := perfmodel.Default()
	a := NewNode(sim, DefaultSpec(), calib, 1)
	b := NewNode(sim, DefaultSpec(), calib, 2)
	if a.ladder != b.ladder {
		t.Fatal("two nodes of one calibration built two tables")
	}
	own := NewNode(sim, DefaultSpec(), perfmodel.Default(), 2)
	if own.ladder == b.ladder {
		t.Fatal("a node of another calibration reused the first one's table")
	}
	if !slices.Equal(own.ladder.rows, b.ladder.rows) || len(b.ladder.rows) != 3 {
		t.Fatalf("tables differ: %v vs %v", own.ladder.rows, b.ladder.rows)
	}
	for _, cfg := range []perfmodel.Config{
		{Cores: 32, FreqKHz: 2_200_000, ThreadsPerCore: 1},
		{Cores: 16, FreqKHz: 2_500_000, ThreadsPerCore: 2},
		{Cores: 8, FreqKHz: 1_500_000, ThreadsPerCore: 1},
		{Cores: 4, ThreadsPerCore: 1}, // the governor's frequency
	} {
		jb, err := b.StartJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jo, err := own.StartJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if jb.Config != jo.Config {
			t.Fatalf("%+v resolves to %+v on a shared table, %+v on its own", cfg, jb.Config, jo.Config)
		}
		sim.RunFor(7*time.Minute + 3*time.Second)
		jb.End()
		jo.End()
		sim.RunFor(time.Minute)
		bs, bc := b.EnergyJ()
		ownS, ownC := own.EnergyJ()
		if bs != ownS || bc != ownC || bs == 0 {
			t.Fatalf("after %+v: shared table %v J system, %v J cpu; own table %v, %v", cfg, bs, bc, ownS, ownC)
		}
	}
}

// TestNodeSize pins the node at 288 bytes, an allocation size class: a
// cluster builds one per node and a sweep one per configuration, and a
// field added here takes every one into the next class.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 288 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 288", got)
	}
}

// A job that starts on the tick its predecessor ended, read at that
// tick, runs at its own phase's opening power: the per-tick memo of
// seconds since the job's start belongs to one job.
func TestJobStartedOnPredecessorsEndTick(t *testing.T) {
	sim, n := newTestNode()
	a, err := n.StartJob(perfmodel.StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(7*time.Minute + 300*time.Millisecond)
	n.Sensors()
	a.End()
	if _, err := n.StartJob(perfmodel.StandardConfig()); err != nil {
		t.Fatal(err)
	}
	_, cpuW, _ := n.Sensors()
	want := n.jobBaseW * (1 + n.jobAmp*math.Sin(n.jobPhase))
	if n.jobAmp == 0 || cpuW != want {
		t.Fatalf("CPU power at the new job's first tick = %v W, want %v W (amplitude %v)", cpuW, want, n.jobAmp)
	}
}
