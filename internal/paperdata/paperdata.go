// Package paperdata embeds the measured results published in the paper
// ("Automatic Energy-Efficient Job Scheduling in HPC: A Novel Slurm
// Plugin Approach", Springborg, 2023): the full GFLOPS-per-watt sweep
// of Tables 4–6, the top-13 Table 1, the power/temperature aggregates
// of Table 2, the related-work comparison of Table 3 and the scalar
// anchors quoted in the text (Figure 1, Equation 1).
//
// The data serves two purposes: the hardware simulator's power and
// throughput constants are least-squares calibrated against it
// (internal/perfmodel), and the experiment harness compares regenerated
// tables against it to report paper-vs-measured agreement
// (EXPERIMENTS.md).
package paperdata

// SweepRow is one configuration point from Tables 4–6.
type SweepRow struct {
	Cores         int
	GHz           float64
	GFLOPSPerWatt float64
	HyperThread   bool
}

// Table1Row is one of the 13 best configurations from Table 1, with
// the paper's relative-efficiency and relative-performance columns
// (both relative to the standard Slurm configuration, 32 cores at
// 2.5 GHz).
type Table1Row struct {
	Cores          int
	GHz            float64
	HyperThread    bool
	GFLOPSPerWatt  float64
	RelEfficiency  float64 // "GFLOPS/watt %" column
	RelPerformance float64 // "Performance %" column
}

// RunAggregate is one row of Table 2: whole-run averages for a
// 20-minute HPCG job.
type RunAggregate struct {
	Name           string
	AvgSystemWatts float64
	AvgCPUWatts    float64
	SystemKJ       float64
	CPUKJ          float64
	AvgCPUTempC    float64
	RuntimeSeconds int
}

// Anchor scalars quoted in the paper's text.
const (
	// Fig1GFLOPS is the HPCG rating logged by Chronus in Figure 1 for
	// the standard configuration (32 cores, 2.5 GHz).
	Fig1GFLOPS = 9.34829

	// Equation 1: IPMI reported 258 W while the wattmeter on the two
	// PSUs read 129.7 + 143.7 W, a 5.96 % difference.
	Eq1IPMIWatts      = 258.0
	Eq1PSU1Watts      = 129.7
	Eq1PSU2Watts      = 143.7
	Eq1WattmeterWatts = Eq1PSU1Watts + Eq1PSU2Watts
	Eq1PercentDiff    = 5.96

	// Table 3 headline numbers.
	Table3EcoCPUReductionPct    = 18.0
	Table3EcoSystemReductionPct = 11.0

	// The node under evaluation.
	SystemRAMGB   = 256 // Lenovo SR650 under test
	CPUModel      = "AMD EPYC 7502P 32-Core Processor"
	CPUCores      = 32
	CPUThreadsPer = 2
)

// FrequenciesKHz is the DVFS ladder of the evaluation node as reported
// by Chronus in Figure 1 (scaling_available_frequencies).
var FrequenciesKHz = []int{1_500_000, 2_200_000, 2_500_000}

// FrequenciesGHz is the same ladder in GHz, the unit Tables 1–6 use.
var FrequenciesGHz = []float64{1.5, 2.2, 2.5}

// CoreCounts is the set of scheduled-core counts appearing in the
// sweep of Tables 4–6.
var CoreCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 24, 25, 27, 28, 30, 32}

// Table1 is the paper's Table 1 (best 13 configurations). The first
// row is the winner the eco plugin selects; rows 11–12 are the
// standard Slurm configuration.
var Table1 = []Table1Row{
	{32, 2.2, false, 0.0488, 1.13, 0.98},
	{32, 2.2, true, 0.0483, 1.12, 0.98},
	{32, 1.5, false, 0.0480, 1.11, 0.90},
	{32, 1.5, true, 0.0469, 1.09, 0.90},
	{30, 2.2, true, 0.0456, 1.06, 0.93},
	{30, 2.2, false, 0.0456, 1.06, 0.93},
	{30, 1.5, true, 0.0446, 1.03, 0.86},
	{28, 2.2, false, 0.0444, 1.03, 0.88},
	{30, 1.5, false, 0.0441, 1.02, 0.86},
	{28, 2.2, true, 0.0437, 1.01, 0.88},
	{32, 2.5, false, 0.0432, 1.00, 1.00},
	{32, 2.5, true, 0.0431, 1.00, 1.00},
	{28, 1.5, true, 0.0425, 0.99, 0.81},
}

// Table2Standard and Table2Best are the two rows of Table 2.
var (
	Table2Standard = RunAggregate{
		Name:           "Standard",
		AvgSystemWatts: 216.6,
		AvgCPUWatts:    120.4,
		SystemKJ:       240.2,
		CPUKJ:          133.5,
		AvgCPUTempC:    62.8,
		RuntimeSeconds: 18*60 + 29,
	}
	Table2Best = RunAggregate{
		Name:           "Best",
		AvgSystemWatts: 190.1,
		AvgCPUWatts:    97.4,
		SystemKJ:       214.4,
		CPUKJ:          109.8,
		AvgCPUTempC:    53.8,
		RuntimeSeconds: 18*60 + 47,
	}
)

// Sweep is the full 138-row dataset of Tables 4–6, in the paper's
// order (descending GFLOPS per watt).
var Sweep = []SweepRow{
	// Table 4 (part 1).
	{32, 2.2, 0.048767, false},
	{32, 2.2, 0.048286, true},
	{32, 1.5, 0.047978, false},
	{32, 1.5, 0.046933, true},
	{30, 2.2, 0.045618, true},
	{30, 2.2, 0.045603, false},
	{30, 1.5, 0.044614, true},
	{28, 2.2, 0.044392, false},
	{30, 1.5, 0.044127, false},
	{28, 2.2, 0.043690, true},
	{32, 2.5, 0.043168, false},
	{32, 2.5, 0.043122, true},
	{28, 1.5, 0.042526, true},
	{27, 2.2, 0.042289, true},
	{27, 2.2, 0.042171, false},
	{28, 1.5, 0.041438, false},
	{27, 1.5, 0.041218, true},
	{30, 2.5, 0.040994, false},
	{27, 1.5, 0.040803, false},
	{25, 2.2, 0.040196, false},
	{25, 2.2, 0.039824, true},
	{30, 2.5, 0.039537, true},
	{28, 2.5, 0.038596, true},
	{25, 1.5, 0.038480, false},
	{28, 2.5, 0.038408, false},
	{24, 2.2, 0.038154, false},
	{24, 2.2, 0.037978, true},
	{25, 1.5, 0.037609, true},
	{27, 2.5, 0.037581, true},
	{27, 2.5, 0.037275, false},
	{24, 1.5, 0.037072, false},
	{24, 1.5, 0.036513, true},
	{25, 2.5, 0.035153, true},
	{25, 2.5, 0.034758, false},
	{21, 2.2, 0.034490, false},
	{21, 2.2, 0.034477, true},
	{24, 2.5, 0.034234, false},
	{20, 2.2, 0.033840, false},
	{21, 1.5, 0.033378, false},
	{20, 2.2, 0.033332, true},
	{21, 1.5, 0.033251, true},
	{24, 2.5, 0.032800, true},
	{20, 1.5, 0.032278, false},
	{21, 2.5, 0.031940, false},
	{21, 2.5, 0.031821, true},
	{20, 1.5, 0.031744, true},
	{20, 2.5, 0.031623, true},
	{20, 2.5, 0.031473, false},
	{18, 2.2, 0.031221, false},
	{18, 2.2, 0.031209, true},
	{18, 1.5, 0.030226, false},
	// Table 5 (part 2).
	{18, 1.5, 0.030030, true},
	{8, 2.5, 0.030025, false},
	{16, 2.2, 0.029694, false},
	{18, 2.5, 0.029675, false},
	{16, 2.2, 0.029481, true},
	{8, 2.2, 0.029461, true},
	{18, 2.5, 0.029385, true},
	{9, 2.2, 0.029378, false},
	{8, 2.2, 0.029355, false},
	{8, 2.5, 0.029334, true},
	{10, 2.2, 0.029024, false},
	{10, 2.5, 0.028914, false},
	{10, 2.2, 0.028787, true},
	{9, 2.2, 0.028717, true},
	{6, 2.5, 0.028709, true},
	{9, 2.5, 0.028601, true},
	{12, 2.2, 0.028460, false},
	{9, 2.5, 0.028423, false},
	{16, 2.5, 0.028402, false},
	{12, 2.5, 0.028379, true},
	{12, 2.5, 0.028355, false},
	{16, 2.5, 0.028317, true},
	{10, 2.5, 0.028312, true},
	{15, 2.2, 0.028312, true},
	{12, 2.2, 0.028258, true},
	{14, 2.2, 0.028235, true},
	{16, 1.5, 0.028144, false},
	{14, 2.2, 0.028097, false},
	{6, 2.5, 0.027928, false},
	{15, 2.2, 0.027785, false},
	{7, 2.5, 0.027625, false},
	{7, 2.5, 0.027594, true},
	{14, 1.5, 0.027554, false},
	{16, 1.5, 0.027520, true},
	{15, 2.5, 0.027500, false},
	{15, 2.5, 0.027353, true},
	{7, 2.2, 0.027228, true},
	{14, 1.5, 0.027054, true},
	{7, 2.2, 0.027033, false},
	{14, 2.5, 0.027008, false},
	{12, 1.5, 0.026994, false},
	{15, 1.5, 0.026925, true},
	{15, 1.5, 0.026879, false},
	{14, 2.5, 0.026860, true},
	{6, 2.2, 0.026797, true},
	{10, 1.5, 0.026599, false},
	{8, 1.5, 0.026577, true},
	{10, 1.5, 0.026549, true},
	{6, 2.2, 0.026512, false},
	{8, 1.5, 0.026397, false},
	{9, 1.5, 0.026236, false},
	{12, 1.5, 0.026219, true},
	{9, 1.5, 0.026151, true},
	{5, 2.5, 0.026056, true},
	{5, 2.5, 0.026028, false},
	// Table 6 (part 3).
	{4, 2.5, 0.025157, true},
	{4, 2.5, 0.024648, false},
	{5, 2.2, 0.023307, false},
	{7, 1.5, 0.022859, true},
	{5, 2.2, 0.022752, true},
	{7, 1.5, 0.022643, false},
	{4, 2.2, 0.022313, false},
	{6, 1.5, 0.021718, true},
	{6, 1.5, 0.021681, false},
	{4, 2.2, 0.021294, true},
	{3, 2.5, 0.020024, false},
	{3, 2.5, 0.019348, true},
	{5, 1.5, 0.018599, true},
	{5, 1.5, 0.018445, false},
	{4, 1.5, 0.016654, false},
	{4, 1.5, 0.016160, true},
	{2, 2.5, 0.016094, false},
	{2, 2.5, 0.015917, true},
	{3, 2.2, 0.015503, true},
	{1, 2.5, 0.014558, false},
	{1, 2.5, 0.014548, true},
	{3, 2.2, 0.014462, false},
	{2, 2.2, 0.011852, false},
	{3, 1.5, 0.011503, true},
	{2, 2.2, 0.011355, true},
	{3, 1.5, 0.011177, false},
	{1, 2.2, 0.010560, true},
	{1, 2.2, 0.010462, false},
	{1, 1.5, 0.007571, true},
	{1, 1.5, 0.007569, false},
	{2, 1.5, 0.007236, false},
	{2, 1.5, 0.007150, true},
}

// Lookup returns the sweep row for a configuration, if present. It reads
// sweepIndex rather than scanning: the efficiency surface calls it up to
// four times for every fixed-work runtime plan.
func Lookup(cores int, ghz float64, ht bool) (SweepRow, bool) {
	if s := sweepSlot(cores, ghz, ht); s >= 0 && sweepIndex[s] > 0 {
		return Sweep[sweepIndex[s]-1], true
	}
	return SweepRow{}, false
}

// sweepIndex holds, per configuration slot (sweepSlot), the position
// in Sweep of the configuration's first row plus one — 0 = not
// measured — so a lookup returns the row a scan would find.
var sweepIndex = indexSweep()

func indexSweep() []int {
	idx := make([]int, (CPUCores+1)*len(FrequenciesGHz)*2)
	for i, r := range Sweep {
		s := sweepSlot(r.Cores, r.GHz, r.HyperThread)
		if s < 0 {
			panic("paperdata: a Sweep row outside 0..CPUCores cores or the FrequenciesGHz ladder")
		}
		if idx[s] == 0 {
			idx[s] = i + 1
		}
	}
	return idx
}

// sweepSlot is a configuration's slot in sweepIndex, or -1 when no
// sweep row could have it: cores within 0..CPUCores, a frequency on the
// FrequenciesGHz ladder (compared exactly, as the scan did).
func sweepSlot(cores int, ghz float64, ht bool) int {
	if cores < 0 || cores > CPUCores {
		return -1
	}
	for f, g := range FrequenciesGHz {
		if g == ghz {
			s := (cores*len(FrequenciesGHz) + f) * 2
			if ht {
				s++
			}
			return s
		}
	}
	return -1
}

// BestRow returns the sweep row with the highest GFLOPS per watt.
func BestRow() SweepRow {
	best := Sweep[0]
	for _, r := range Sweep[1:] {
		if r.GFLOPSPerWatt > best.GFLOPSPerWatt {
			best = r
		}
	}
	return best
}

// StandardRow returns the standard Slurm configuration's sweep row
// (all cores at the highest frequency, no hyper-threading).
func StandardRow() SweepRow {
	r, _ := Lookup(CPUCores, 2.5, false)
	return r
}
