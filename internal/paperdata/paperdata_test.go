package paperdata

import (
	"math"
	"testing"
)

func TestSweepIsComplete(t *testing.T) {
	// 23 core counts × 3 frequencies × 2 hyper-threading settings.
	want := len(CoreCounts) * len(FrequenciesGHz) * 2
	if len(Sweep) != want {
		t.Fatalf("Sweep has %d rows, want %d", len(Sweep), want)
	}
	seen := map[[3]int]bool{}
	for _, r := range Sweep {
		key := [3]int{r.Cores, int(r.GHz * 10), b2i(r.HyperThread)}
		if seen[key] {
			t.Fatalf("duplicate sweep row: %+v", r)
		}
		seen[key] = true
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestSweepSortedDescending(t *testing.T) {
	for i := 1; i < len(Sweep); i++ {
		if Sweep[i].GFLOPSPerWatt > Sweep[i-1].GFLOPSPerWatt {
			t.Fatalf("row %d (%v) out of order after %v", i, Sweep[i], Sweep[i-1])
		}
	}
}

func TestSweepValuesSane(t *testing.T) {
	for _, r := range Sweep {
		if r.Cores < 1 || r.Cores > CPUCores {
			t.Fatalf("cores out of range: %+v", r)
		}
		okFreq := false
		for _, f := range FrequenciesGHz {
			if r.GHz == f {
				okFreq = true
			}
		}
		if !okFreq {
			t.Fatalf("unknown frequency: %+v", r)
		}
		if r.GFLOPSPerWatt <= 0 || r.GFLOPSPerWatt > 0.1 {
			t.Fatalf("implausible GFLOPS/W: %+v", r)
		}
	}
}

func TestBestRowMatchesPaper(t *testing.T) {
	best := BestRow()
	if best.Cores != 32 || best.GHz != 2.2 || best.HyperThread {
		t.Fatalf("best row = %+v, paper says 32 cores @ 2.2 GHz without HT", best)
	}
	if best.GFLOPSPerWatt != 0.048767 {
		t.Fatalf("best GFLOPS/W = %v, want 0.048767", best.GFLOPSPerWatt)
	}
}

func TestStandardRowMatchesPaper(t *testing.T) {
	std := StandardRow()
	if std.GFLOPSPerWatt != 0.043168 {
		t.Fatalf("standard GFLOPS/W = %v, want 0.043168", std.GFLOPSPerWatt)
	}
}

func TestHeadlineImprovementIs13Percent(t *testing.T) {
	// The paper's headline: best is 13 % better GFLOPS/W than standard.
	ratio := BestRow().GFLOPSPerWatt / StandardRow().GFLOPSPerWatt
	if math.Abs(ratio-1.13) > 0.005 {
		t.Fatalf("best/standard = %.4f, want ≈1.13", ratio)
	}
}

func TestTable1ConsistentWithSweep(t *testing.T) {
	for _, row := range Table1 {
		sw, ok := Lookup(row.Cores, row.GHz, row.HyperThread)
		if !ok {
			t.Fatalf("Table 1 row %+v missing from sweep", row)
		}
		// Table 1 rounds to four decimals.
		if math.Abs(sw.GFLOPSPerWatt-row.GFLOPSPerWatt) > 5e-5 {
			t.Fatalf("Table 1 row %+v disagrees with sweep value %v", row, sw.GFLOPSPerWatt)
		}
	}
}

func TestTable1IsTop13OfSweep(t *testing.T) {
	for i, row := range Table1 {
		if Sweep[i].Cores != row.Cores || Sweep[i].GHz != row.GHz || Sweep[i].HyperThread != row.HyperThread {
			t.Fatalf("Table 1 row %d (%+v) is not sweep row %d (%+v)", i, row, i, Sweep[i])
		}
	}
}

func TestTable2EnergyConsistency(t *testing.T) {
	// kJ ≈ avg W × runtime for both rows (within rounding of the
	// published averages).
	for _, agg := range []RunAggregate{Table2Standard, Table2Best} {
		gotKJ := agg.AvgSystemWatts * float64(agg.RuntimeSeconds) / 1000
		if math.Abs(gotKJ-agg.SystemKJ)/agg.SystemKJ > 0.02 {
			t.Fatalf("%s: avgW×t = %.1f kJ, table says %.1f kJ", agg.Name, gotKJ, agg.SystemKJ)
		}
	}
}

func TestTable2HeadlineReductions(t *testing.T) {
	sysRed := 100 * (1 - Table2Best.SystemKJ/Table2Standard.SystemKJ)
	if math.Abs(sysRed-Table3EcoSystemReductionPct) > 0.8 {
		t.Fatalf("system energy reduction = %.2f%%, paper says ~11%%", sysRed)
	}
	cpuRed := 100 * (1 - Table2Best.CPUKJ/Table2Standard.CPUKJ)
	if math.Abs(cpuRed-Table3EcoCPUReductionPct) > 0.8 {
		t.Fatalf("CPU energy reduction = %.2f%%, paper says ~18%%", cpuRed)
	}
	tempRed := 100 * (1 - Table2Best.AvgCPUTempC/Table2Standard.AvgCPUTempC)
	if math.Abs(tempRed-14) > 1.0 {
		t.Fatalf("temperature reduction = %.2f%%, paper says ~14%%", tempRed)
	}
}

func TestEquation1(t *testing.T) {
	diff := math.Abs(Eq1IPMIWatts-Eq1WattmeterWatts) / Eq1IPMIWatts * 100
	if math.Abs(diff-Eq1PercentDiff) > 0.02 {
		t.Fatalf("Eq. 1 difference = %.2f%%, paper says 5.96%%", diff)
	}
}

func TestFig1AnchorConsistentWithSweep(t *testing.T) {
	// GFLOPS/W(standard) × avg system watts(standard) ≈ Fig. 1 GFLOPS.
	got := StandardRow().GFLOPSPerWatt * Table2Standard.AvgSystemWatts
	if math.Abs(got-Fig1GFLOPS)/Fig1GFLOPS > 0.01 {
		t.Fatalf("implied GFLOPS = %.3f, Figure 1 says %.5f", got, Fig1GFLOPS)
	}
}

func TestLookupMiss(t *testing.T) {
	if _, ok := Lookup(11, 2.5, false); ok {
		t.Fatal("Lookup(11 cores) should miss: 11 is not in the sweep")
	}
	if _, ok := Lookup(32, 2.0, false); ok {
		t.Fatal("Lookup(2.0 GHz) should miss")
	}
}

// lookupScan is Lookup as it was before the index: the first row of
// Sweep with the configuration.
func lookupScan(cores int, ghz float64, ht bool) (SweepRow, bool) {
	for _, r := range Sweep {
		if r.Cores == cores && r.GHz == ghz && r.HyperThread == ht {
			return r, true
		}
	}
	return SweepRow{}, false
}

// TestLookupMatchesScan: the indexed Lookup returns the row the scan
// returns — same floats — for every sweep row, and misses where the scan
// misses: core counts between, below and past the measured ones, and
// frequencies off the ladder.
func TestLookupMatchesScan(t *testing.T) {
	check := func(cores int, ghz float64, ht bool) {
		t.Helper()
		got, gotOK := Lookup(cores, ghz, ht)
		want, wantOK := lookupScan(cores, ghz, ht)
		if got != want || gotOK != wantOK {
			t.Fatalf("Lookup(%d, %v, %v) = %+v, %v; the scan says %+v, %v", cores, ghz, ht, got, gotOK, want, wantOK)
		}
	}
	for _, r := range Sweep {
		if got, ok := Lookup(r.Cores, r.GHz, r.HyperThread); !ok || got != r {
			t.Fatalf("Lookup(%+v) = %+v, %v", r, got, ok)
		}
	}
	ghzs := append([]float64{0, 1.4999999, 2.0, 2.2000001, 3.0, -1.5, math.NaN(), math.Inf(1)}, FrequenciesGHz...)
	hits := 0
	for cores := -2; cores <= CPUCores+3; cores++ {
		for _, ghz := range ghzs {
			for _, ht := range []bool{false, true} {
				check(cores, ghz, ht)
				if _, ok := Lookup(cores, ghz, ht); ok {
					hits++
				}
			}
		}
	}
	if hits != len(Sweep) {
		t.Fatalf("%d keys hit over the grid, want the %d sweep rows", hits, len(Sweep))
	}
}

func TestFrequencyLaddersAgree(t *testing.T) {
	if len(FrequenciesKHz) != len(FrequenciesGHz) {
		t.Fatal("frequency ladders differ in length")
	}
	for i := range FrequenciesKHz {
		if math.Abs(float64(FrequenciesKHz[i])/1e6-FrequenciesGHz[i]) > 1e-9 {
			t.Fatalf("ladder mismatch at %d: %d kHz vs %v GHz", i, FrequenciesKHz[i], FrequenciesGHz[i])
		}
	}
}
