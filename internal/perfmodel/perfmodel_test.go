package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"ecosched/internal/paperdata"
)

func cfg(cores int, ghz float64, ht bool) Config {
	tpc := 1
	if ht {
		tpc = 2
	}
	return Config{Cores: cores, FreqKHz: int(ghz * 1e6), ThreadsPerCore: tpc}
}

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Fatalf("%s = %.4f, want %.4f (±%.1f%%)", name, got, want, relTol*100)
	}
}

// Tables 4–6 must reproduce exactly at every measured configuration:
// the efficiency surface is the paper's own data.
func TestEfficiencyExactAtMeasuredPoints(t *testing.T) {
	c := Default()
	for _, r := range paperdata.Sweep {
		got := c.Efficiency(cfg(r.Cores, r.GHz, r.HyperThread))
		if got != r.GFLOPSPerWatt {
			t.Fatalf("Efficiency(%d, %.1f, %v) = %v, want exact %v",
				r.Cores, r.GHz, r.HyperThread, got, r.GFLOPSPerWatt)
		}
	}
}

func TestFig1GFLOPSAnchor(t *testing.T) {
	c := Default()
	within(t, "GFLOPS(standard)", c.GFLOPS(StandardConfig()), paperdata.Fig1GFLOPS, 0.001)
}

func TestTable2PowerAnchors(t *testing.T) {
	c := Default()
	std, best := StandardConfig(), BestConfig()
	within(t, "sysW(standard)", c.SteadySystemPowerW(std), paperdata.Table2Standard.AvgSystemWatts, 0.005)
	within(t, "sysW(best)", c.SteadySystemPowerW(best), paperdata.Table2Best.AvgSystemWatts, 0.005)
	within(t, "cpuW(standard)", c.CPUPowerW(std, 1), paperdata.Table2Standard.AvgCPUWatts, 0.005)
	within(t, "cpuW(best)", c.CPUPowerW(best, 1), paperdata.Table2Best.AvgCPUWatts, 0.005)
}

func TestTable2TemperatureAnchors(t *testing.T) {
	c := Default()
	within(t, "temp(standard)",
		c.SteadyTempC(c.CPUPowerW(StandardConfig(), 1)), paperdata.Table2Standard.AvgCPUTempC, 0.01)
	within(t, "temp(best)",
		c.SteadyTempC(c.CPUPowerW(BestConfig(), 1)), paperdata.Table2Best.AvgCPUTempC, 0.01)
}

func TestTable2RuntimeAndEnergy(t *testing.T) {
	c := Default()
	std, best := StandardConfig(), BestConfig()
	within(t, "runtime(standard)", c.RuntimeSeconds(std), float64(paperdata.Table2Standard.RuntimeSeconds), 0.001)
	within(t, "runtime(best)", c.RuntimeSeconds(best), float64(paperdata.Table2Best.RuntimeSeconds), 0.015)
	sysKJ, cpuKJ := c.JobEnergyKJ(std)
	within(t, "sysKJ(standard)", sysKJ, paperdata.Table2Standard.SystemKJ, 0.01)
	within(t, "cpuKJ(standard)", cpuKJ, paperdata.Table2Standard.CPUKJ, 0.01)
	sysKJ, cpuKJ = c.JobEnergyKJ(best)
	within(t, "sysKJ(best)", sysKJ, paperdata.Table2Best.SystemKJ, 0.015)
	within(t, "cpuKJ(best)", cpuKJ, paperdata.Table2Best.CPUKJ, 0.015)
}

// The headline result: the best configuration saves ~11 % system
// energy and ~18 % CPU energy over the full job.
func TestHeadlineEnergyReductions(t *testing.T) {
	c := Default()
	stdSys, stdCPU := c.JobEnergyKJ(StandardConfig())
	bestSys, bestCPU := c.JobEnergyKJ(BestConfig())
	sysRed := 100 * (1 - bestSys/stdSys)
	cpuRed := 100 * (1 - bestCPU/stdCPU)
	if sysRed < 10 || sysRed > 12.5 {
		t.Fatalf("system energy reduction = %.2f%%, paper says ~11%%", sysRed)
	}
	if cpuRed < 17 || cpuRed > 19.5 {
		t.Fatalf("CPU energy reduction = %.2f%%, paper says ~18%%", cpuRed)
	}
}

func TestTable1PerformanceColumn(t *testing.T) {
	c := Default()
	gStd := c.GFLOPS(StandardConfig())
	for _, row := range paperdata.Table1 {
		rel := c.GFLOPS(cfg(row.Cores, row.GHz, row.HyperThread)) / gStd
		if math.Abs(rel-row.RelPerformance) > 0.05 {
			t.Errorf("rel perf(%dc %.1fGHz ht=%v) = %.3f, paper column says %.2f",
				row.Cores, row.GHz, row.HyperThread, rel, row.RelPerformance)
		}
	}
}

func TestBestConfigWinsSweep(t *testing.T) {
	c := Default()
	best := BestConfig()
	bestEff := c.Efficiency(best)
	for _, n := range paperdata.CoreCounts {
		for _, f := range paperdata.FrequenciesGHz {
			for _, ht := range []bool{false, true} {
				e := c.Efficiency(cfg(n, f, ht))
				if e > bestEff {
					t.Fatalf("config %dc/%.1f/ht=%v beats the paper's best (%.5f > %.5f)",
						n, f, ht, e, bestEff)
				}
			}
		}
	}
}

func TestEquation1WallPower(t *testing.T) {
	c := Default()
	total, psu1, psu2 := c.WallPowerW(paperdata.Eq1IPMIWatts)
	within(t, "wattmeter total", total, paperdata.Eq1WattmeterWatts, 0.002)
	within(t, "PSU1", psu1, paperdata.Eq1PSU1Watts, 0.005)
	within(t, "PSU2", psu2, paperdata.Eq1PSU2Watts, 0.005)
	diff := math.Abs(paperdata.Eq1IPMIWatts-total) / paperdata.Eq1IPMIWatts * 100
	within(t, "Eq.1 percentage difference", diff, paperdata.Eq1PercentDiff, 0.01)
}

func TestIdlePowerPlausible(t *testing.T) {
	c := Default()
	idleCPU := c.IdleCPUPowerW()
	if idleCPU < 20 || idleCPU > 70 {
		t.Fatalf("idle CPU power %.1f W implausible", idleCPU)
	}
	idleSys := c.SystemPowerW(idleCPU, c.SteadyTempC(idleCPU))
	if idleSys < 100 || idleSys > 160 {
		t.Fatalf("idle system power %.1f W implausible for an SR650", idleSys)
	}
	if idleSys >= c.SteadySystemPowerW(StandardConfig()) {
		t.Fatal("idle system power not below loaded power")
	}
}

func TestCPUPowerMonotoneInActivity(t *testing.T) {
	c := Default()
	conf := StandardConfig()
	prev := -1.0
	for a := 0.0; a <= 1.0; a += 0.125 {
		p := c.CPUPowerW(conf, a)
		if p < prev {
			t.Fatalf("CPU power not monotone in activity at %.3f", a)
		}
		prev = p
	}
}

func TestCPUPowerMonotoneInCores(t *testing.T) {
	c := Default()
	for _, f := range paperdata.FrequenciesKHz {
		prev := -1.0
		for n := 1; n <= 32; n++ {
			p := c.CPUPowerW(Config{Cores: n, FreqKHz: f, ThreadsPerCore: 1}, 1)
			if p < prev {
				t.Fatalf("CPU power not monotone in cores at %d cores, %d kHz", n, f)
			}
			prev = p
		}
	}
}

func TestCPUPowerActivityClamped(t *testing.T) {
	c := Default()
	conf := StandardConfig()
	if c.CPUPowerW(conf, -3) != c.CPUPowerW(conf, 0) {
		t.Fatal("activity below 0 not clamped")
	}
	if c.CPUPowerW(conf, 7) != c.CPUPowerW(conf, 1) {
		t.Fatal("activity above 1 not clamped")
	}
}

func TestHTCostsPower(t *testing.T) {
	c := Default()
	noHT := c.CPUPowerW(cfg(32, 2.2, false), 1)
	withHT := c.CPUPowerW(cfg(32, 2.2, true), 1)
	if withHT <= noHT {
		t.Fatalf("HT power %.1f not above non-HT %.1f", withHT, noHT)
	}
}

func TestInterpolationBetweenCoreCounts(t *testing.T) {
	c := Default()
	// 11 cores is not measured; it must land between 10 and 12.
	e10 := c.Efficiency(cfg(10, 2.2, false))
	e11 := c.Efficiency(cfg(11, 2.2, false))
	e12 := c.Efficiency(cfg(12, 2.2, false))
	lo, hi := math.Min(e10, e12), math.Max(e10, e12)
	if e11 < lo || e11 > hi {
		t.Fatalf("Efficiency(11c) = %v outside [%v, %v]", e11, lo, hi)
	}
	if got, want := e11, (e10+e12)/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("11 cores should interpolate midway: got %v want %v", got, want)
	}
}

func TestInterpolationBetweenFrequencies(t *testing.T) {
	c := Default()
	e22 := c.Efficiency(cfg(32, 2.2, false))
	e25 := c.Efficiency(cfg(32, 2.5, false))
	mid := c.Efficiency(Config{Cores: 32, FreqKHz: 2_350_000, ThreadsPerCore: 1})
	if got, want := mid, (e22+e25)/2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("2.35 GHz should interpolate midway: got %v want %v", got, want)
	}
}

func TestInterpolationClampsAtEdges(t *testing.T) {
	c := Default()
	if c.Efficiency(Config{Cores: 32, FreqKHz: 3_000_000, ThreadsPerCore: 1}) !=
		c.Efficiency(cfg(32, 2.5, false)) {
		t.Fatal("frequency above ladder not clamped")
	}
	if c.Efficiency(Config{Cores: 32, FreqKHz: 1_000_000, ThreadsPerCore: 1}) !=
		c.Efficiency(cfg(32, 1.5, false)) {
		t.Fatal("frequency below ladder not clamped")
	}
}

func TestEfficiencyWithinSurfaceBounds(t *testing.T) {
	c := Default()
	minE, maxE := math.Inf(1), math.Inf(-1)
	for _, r := range paperdata.Sweep {
		minE = math.Min(minE, r.GFLOPSPerWatt)
		maxE = math.Max(maxE, r.GFLOPSPerWatt)
	}
	// Property: interpolation never leaves the measured envelope.
	if err := quick.Check(func(n uint8, fk uint32, ht bool) bool {
		conf := Config{
			Cores:          1 + int(n)%32,
			FreqKHz:        1_000_000 + int(fk)%2_000_000,
			ThreadsPerCore: 1,
		}
		if ht {
			conf.ThreadsPerCore = 2
		}
		e := c.Efficiency(conf)
		return e >= minE-1e-12 && e <= maxE+1e-12
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestPState(t *testing.T) {
	c := Default()
	cases := []struct{ in, want int }{
		{1_500_000, 1_500_000},
		{1_000_000, 1_500_000},
		{1_900_000, 2_200_000},
		{1_800_000, 1_500_000},
		{2_300_000, 2_200_000},
		{2_400_000, 2_500_000},
		{9_999_999, 2_500_000},
	}
	for _, tc := range cases {
		if got := c.NearestPState(tc.in); got != tc.want {
			t.Errorf("NearestPState(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Cores: 4, FreqKHz: 2_200_000, ThreadsPerCore: 1}
	if err := good.Validate(32, 2); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Cores: 0, FreqKHz: 2_200_000, ThreadsPerCore: 1},
		{Cores: 33, FreqKHz: 2_200_000, ThreadsPerCore: 1},
		{Cores: 4, FreqKHz: 0, ThreadsPerCore: 1},
		{Cores: 4, FreqKHz: 2_200_000, ThreadsPerCore: 0},
		{Cores: 4, FreqKHz: 2_200_000, ThreadsPerCore: 3},
	}
	for _, b := range bad {
		if err := b.Validate(32, 2); err == nil {
			t.Errorf("invalid config %+v accepted", b)
		}
	}
}

func TestConfigString(t *testing.T) {
	s := cfg(32, 2.2, false).String()
	if s != "32c/2.2GHz/1tpc" {
		t.Fatalf("String() = %q", s)
	}
}

func TestRuntimeScalesInverselyWithThroughput(t *testing.T) {
	c := Default()
	if err := quick.Check(func(i, j uint8) bool {
		a := cfg(paperdata.CoreCounts[int(i)%len(paperdata.CoreCounts)], 2.2, false)
		b := cfg(paperdata.CoreCounts[int(j)%len(paperdata.CoreCounts)], 2.5, false)
		// runtime(a)·G(a) == runtime(b)·G(b) == JobGFLOP
		wa := c.RuntimeSeconds(a) * c.GFLOPS(a)
		wb := c.RuntimeSeconds(b) * c.GFLOPS(b)
		return math.Abs(wa-wb) < 1e-6*wa
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWallPowerAboveDCPower(t *testing.T) {
	c := Default()
	total, psu1, psu2 := c.WallPowerW(200)
	if total <= 200 {
		t.Fatalf("wall power %.1f not above DC 200 (PSU loss)", total)
	}
	if math.Abs(psu1+psu2-total) > 1e-9 {
		t.Fatal("PSU split does not sum to total")
	}
}

// ---- Roofline model ----

func TestRooflineMatchesCalibratedStandardPoint(t *testing.T) {
	r := DefaultRoofline()
	within(t, "roofline G(standard)", r.GFLOPS(StandardConfig()), paperdata.Fig1GFLOPS, 0.05)
	within(t, "roofline sysW(standard)", r.SystemPowerW(StandardConfig()),
		paperdata.Table2Standard.AvgSystemWatts, 0.05)
}

func TestRooflinePrefersReducedFrequencyAtFullCores(t *testing.T) {
	r := DefaultRoofline()
	if r.Efficiency(cfg(32, 2.2, false)) <= r.Efficiency(cfg(32, 2.5, false)) {
		t.Fatal("roofline does not reproduce the paper's 2.2 GHz efficiency win at 32 cores")
	}
}

func TestRooflineGFLOPSMonotoneInCores(t *testing.T) {
	r := DefaultRoofline()
	for _, f := range []float64{1.5, 2.2, 2.5} {
		prev := 0.0
		for n := 1; n <= 32; n++ {
			g := r.GFLOPS(cfg(n, f, false))
			if g <= prev {
				t.Fatalf("roofline GFLOPS not increasing at %d cores, %.1f GHz", n, f)
			}
			prev = g
		}
	}
}

func TestRooflineMemoryBoundAtHighCores(t *testing.T) {
	r := DefaultRoofline()
	// At 32 cores a 14 % frequency drop must cost far less than 14 %
	// performance (memory-bound), while at 1 core it is nearly
	// proportional (compute-bound).
	rel32 := r.GFLOPS(cfg(32, 2.2, false)) / r.GFLOPS(cfg(32, 2.5, false))
	rel1 := r.GFLOPS(cfg(1, 2.2, false)) / r.GFLOPS(cfg(1, 2.5, false))
	if rel32 < 0.97 {
		t.Fatalf("32-core frequency sensitivity %.3f too high for memory-bound roofline", rel32)
	}
	if rel1 > 0.93 {
		t.Fatalf("1-core frequency sensitivity %.3f too low for compute-bound regime", rel1)
	}
}

func TestRooflineSoftminBounds(t *testing.T) {
	if err := quick.Check(func(a, b uint16) bool {
		x, y := float64(a)+1, float64(b)+1
		s := softmin(x, y)
		return s > 0 && s <= math.Min(x, y)+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
	if softmin(0, 5) != 0 || softmin(5, 0) != 0 {
		t.Fatal("softmin with zero operand must be zero")
	}
}

func TestRooflineHTObservations(t *testing.T) {
	r := DefaultRoofline()
	// Observation (2): at 32 cores HT does not improve efficiency.
	if r.Efficiency(cfg(32, 2.2, true)) > r.Efficiency(cfg(32, 2.2, false)) {
		t.Fatal("roofline: HT should not win at 32 cores")
	}
	// Observation (3): at low core counts HT helps throughput.
	if r.GFLOPS(cfg(4, 2.5, true)) <= r.GFLOPS(cfg(4, 2.5, false)) {
		t.Fatal("roofline: HT should boost throughput at 4 cores")
	}
}

// The roofline fitter must reproduce (or beat) the frozen constants'
// fit quality — the reproducibility promise in DESIGN.md.
func TestFitRooflineQuality(t *testing.T) {
	defaultErr := RooflineSurfaceError(DefaultRoofline())
	fitted, fittedErr := FitRoofline()
	if fittedErr > defaultErr+1e-12 {
		t.Fatalf("fitter (%.6f) worse than frozen constants (%.6f)", fittedErr, defaultErr)
	}
	// A 5-parameter roofline explains the noisy measured surface to
	// ~20 % RMS in log-efficiency — the empirical surface is exact, the
	// parametric one is the generalising approximation.
	if fittedErr > 0.05 {
		t.Fatalf("fitted surface error %.4f too high", fittedErr)
	}
	// The fitted model keeps the paper's qualitative shape.
	if fitted.Efficiency(cfg(32, 2.2, false)) <= fitted.Efficiency(cfg(32, 2.5, false)) {
		t.Fatal("fitted roofline lost the 2.2 GHz efficiency win")
	}
	for n := 2; n <= 32; n *= 2 {
		if fitted.GFLOPS(cfg(n, 2.2, false)) <= fitted.GFLOPS(cfg(n/2, 2.2, false)) {
			t.Fatalf("fitted roofline not monotone in cores at %d", n)
		}
	}
}
