// Package perfmodel models the evaluation node's throughput and power
// as functions of a job configuration (scheduled cores, CPU frequency,
// threads per core).
//
// The paper measures a real Lenovo SR650 (AMD EPYC 7502P); we cannot,
// so the model is calibrated against the paper's own published data:
//
//   - The efficiency surface E(cores, freq, ht) = GFLOPS/W is taken
//     directly from Tables 4–6 (internal/paperdata) and interpolated
//     between measured points. At measured points it is exact.
//   - System power is an affine function of CPU package power,
//     W_sys = base + (1 + fanCoef·Rth)·P_cpu, with the CPU package
//     power ladder calibrated so the two rows of Table 2 (216.6 W /
//     120.4 W standard, 190.1 W / 97.4 W best) and the Table 1
//     performance column are reproduced.
//   - Throughput is then defined as G := E × W, which makes the
//     simulated GFLOPS-per-watt sweep match Tables 4–6 by construction
//     while G(32 cores, 2.5 GHz) lands on Figure 1's 9.348 GFLOPS to
//     within 0.03 %.
//   - Temperature follows T = T0 + Rth·P_cpu, calibrated to Table 2's
//     62.8 °C / 53.8 °C averages.
//
// The package also provides a purely parametric Roofline model (see
// roofline.go): the throughput model of a second application with no
// measured surface (core.StreamRunner), whose constants FitRoofline
// re-derives from the paper's tables.
package perfmodel

import (
	"fmt"
	"sort"

	"ecosched/internal/paperdata"
)

// Config is a job's resource configuration — the three knobs the eco
// plugin tunes (paper §3): scheduled cores, CPU frequency and threads
// per core (1, or 2 for hyper-threading).
type Config struct {
	Cores          int
	FreqKHz        int // CPU frequency in kHz, as Slurm's --cpu-freq takes it
	ThreadsPerCore int // 1 or 2
}

// GHz returns the configured frequency in GHz.
func (c Config) GHz() float64 { return float64(c.FreqKHz) / 1e6 }

// HyperThread reports whether the configuration uses both hardware
// threads per core.
func (c Config) HyperThread() bool { return c.ThreadsPerCore >= 2 }

// Validate checks the configuration against a node with the given
// topology.
func (c Config) Validate(maxCores, maxThreads int) error {
	if c.Cores < 1 || c.Cores > maxCores {
		return fmt.Errorf("perfmodel: cores %d out of range [1,%d]", c.Cores, maxCores)
	}
	if c.ThreadsPerCore < 1 || c.ThreadsPerCore > maxThreads {
		return fmt.Errorf("perfmodel: threads per core %d out of range [1,%d]", c.ThreadsPerCore, maxThreads)
	}
	if c.FreqKHz <= 0 {
		return fmt.Errorf("perfmodel: non-positive frequency %d kHz", c.FreqKHz)
	}
	return nil
}

func (c Config) String() string {
	return fmt.Sprintf("%dc/%.1fGHz/%dtpc", c.Cores, c.GHz(), c.ThreadsPerCore)
}

// Calibration holds the frozen constants of the calibrated node model.
// See the package comment for how each group is anchored.
type Calibration struct {
	// CPU package power: P_cpu = UncoreW + Σ_active CorePowerW(f)·ht +
	// Σ_idle CoreIdleW, at full load.
	UncoreW     float64         // uncore + IO-die power under load
	UncoreIdleW float64         // uncore power with no job running
	CoreIdleW   float64         // an idle (unscheduled or c-state) core
	CorePowerW  map[int]float64 // active per-core power by P-state (kHz)
	HTPowerBump float64         // multiplicative per-core bump with 2 threads
	TotalCores  int             // physical cores on the node
	ThreadsPer  int             // hardware threads per core
	PStatesKHz  []int           // available DVFS frequencies, ascending
	// System power: W_sys = BaseSystemW + P_cpu + FanCoefWPerC·(T−T0).
	BaseSystemW  float64
	FanCoefWPerC float64
	// Thermal steady state: T = ThermalT0C + ThermalRthCPerW·P_cpu;
	// transient time constant ThermalTauS seconds.
	ThermalT0C      float64
	ThermalRthCPerW float64
	ThermalTauS     float64
	// PSUs (for the Eq. 1 wattmeter experiment): wall power =
	// W_sys / PSUEfficiency, split PSU1Share : 1−PSU1Share.
	PSUEfficiency float64
	PSU1Share     float64
	// Workload: total FLOPs of one evaluation HPCG job, fixed so the
	// standard configuration's runtime matches Table 2's 18:29.
	JobGFLOP float64
	// Power-trace shape (Figure 15): relative amplitude of the
	// compute/memory phase oscillation at each P-state. The paper
	// observes the 2.5 GHz performance-mode run "increasing and
	// decreasing power" while the 2.2 GHz run is stable.
	PhaseAmplitude map[int]float64
	PhasePeriodS   float64
}

// Default returns the calibration fitted to the paper's published
// measurements. The derivation of every constant is recorded in
// constants_test.go, which re-derives them from paperdata anchors.
func Default() *Calibration {
	c := &Calibration{
		UncoreW:     55.0,
		UncoreIdleW: 40.0,
		CoreIdleW:   0.15,
		CorePowerW: map[int]float64{
			1_500_000: 0.890625, // (83.5−55)/32
			2_200_000: 1.325,    // (97.4−55)/32
			2_500_000: 2.04375,  // (120.4−55)/32
		},
		HTPowerBump:     1.03,
		TotalCores:      paperdata.CPUCores,
		ThreadsPer:      paperdata.CPUThreadsPer,
		PStatesKHz:      append([]int(nil), paperdata.FrequenciesKHz...),
		BaseSystemW:     77.87,
		FanCoefWPerC:    0.389,
		ThermalT0C:      15.7,
		ThermalRthCPerW: 0.3913,
		ThermalTauS:     45,
		PSUEfficiency:   0.9437,
		PSU1Share:       0.4744,
		PhaseAmplitude: map[int]float64{
			1_500_000: 0.02,
			2_200_000: 0.03,
			2_500_000: 0.12,
		},
		PhasePeriodS: 25,
	}
	// Fixed work: standard configuration (32 cores, 2.5 GHz, no HT)
	// must run for Table 2's 18:29 = 1109 s.
	std := Config{Cores: 32, FreqKHz: 2_500_000, ThreadsPerCore: 1}
	c.JobGFLOP = c.GFLOPS(std) * float64(paperdata.Table2Standard.RuntimeSeconds)
	return c
}

// CPUPowerW returns the steady CPU package power for a configuration
// at the given activity level (0 = idle cores, 1 = fully loaded).
// Unscheduled cores always draw CoreIdleW.
func (c *Calibration) CPUPowerW(cfg Config, activity float64) float64 {
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}
	perCore := c.corePowerAt(cfg.FreqKHz)
	if cfg.HyperThread() {
		perCore *= c.HTPowerBump
	}
	active := float64(cfg.Cores) * (c.CoreIdleW + (perCore-c.CoreIdleW)*activity)
	idle := float64(c.TotalCores-cfg.Cores) * c.CoreIdleW
	uncore := c.UncoreIdleW + (c.UncoreW-c.UncoreIdleW)*activity
	return uncore + active + idle
}

// IdleCPUPowerW is the package power with no job scheduled.
func (c *Calibration) IdleCPUPowerW() float64 {
	return c.UncoreIdleW + float64(c.TotalCores)*c.CoreIdleW
}

// SteadyTempC returns the steady-state CPU temperature for a given
// package power.
func (c *Calibration) SteadyTempC(cpuPowerW float64) float64 {
	return c.ThermalT0C + c.ThermalRthCPerW*cpuPowerW
}

// FanW returns the cooling power drawn at CPU temperature t.
func (c *Calibration) FanW(tempC float64) float64 {
	d := tempC - c.ThermalT0C
	if d < 0 {
		d = 0
	}
	return c.FanCoefWPerC * d
}

// SystemPowerW composes instantaneous system (DC-side) power from CPU
// package power and CPU temperature.
func (c *Calibration) SystemPowerW(cpuPowerW, tempC float64) float64 {
	return c.BaseSystemW + cpuPowerW + c.FanW(tempC)
}

// SteadySystemPowerW is system power at full load with the thermal
// loop settled — the quantity Tables 2 and 4–6 average.
func (c *Calibration) SteadySystemPowerW(cfg Config) float64 {
	p := c.CPUPowerW(cfg, 1)
	return c.SystemPowerW(p, c.SteadyTempC(p))
}

// WallPowerW returns what a wattmeter on the PSU inputs reads for a
// given system (DC) power, and the per-PSU split. IPMI reads the DC
// side; the difference is the Eq. 1 experiment.
func (c *Calibration) WallPowerW(systemW float64) (total, psu1, psu2 float64) {
	total = systemW / c.PSUEfficiency
	psu1 = total * c.PSU1Share
	return total, psu1, total - psu1
}

// GFLOPS returns the sustained HPCG throughput of a configuration:
// the paper's measured efficiency surface times modelled system power.
func (c *Calibration) GFLOPS(cfg Config) float64 {
	return c.Efficiency(cfg) * c.SteadySystemPowerW(cfg)
}

// Efficiency returns GFLOPS per system watt, interpolated from the
// paper's Tables 4–6 and exact at measured configurations.
func (c *Calibration) Efficiency(cfg Config) float64 {
	return interpEfficiency(cfg)
}

// RuntimeSeconds returns how long one evaluation HPCG job runs in this
// configuration (fixed total work, Table 2 semantics).
func (c *Calibration) RuntimeSeconds(cfg Config) float64 {
	return c.JobGFLOP / c.GFLOPS(cfg)
}

// JobEnergyKJ returns (systemKJ, cpuKJ) for one evaluation job.
func (c *Calibration) JobEnergyKJ(cfg Config) (systemKJ, cpuKJ float64) {
	t := c.RuntimeSeconds(cfg)
	return c.SteadySystemPowerW(cfg) * t / 1000, c.CPUPowerW(cfg, 1) * t / 1000
}

// NearestPState snaps an arbitrary frequency request to the closest
// available P-state, the way cpufreq userspace governors do.
func (c *Calibration) NearestPState(freqKHz int) int {
	best := c.PStatesKHz[0]
	for _, p := range c.PStatesKHz {
		if abs(p-freqKHz) < abs(best-freqKHz) {
			best = p
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// CorePowerAt exposes the per-core active-power interpolation so hot
// callers (the hw node's per-job cache) can precompute per-frequency
// tables instead of probing the calibration maps on every job start.
func (c *Calibration) CorePowerAt(freqKHz int) float64 { return c.corePowerAt(freqKHz) }

// corePowerAt interpolates per-core active power between calibrated
// P-states (linear in frequency, clamped at the ladder ends).
func (c *Calibration) corePowerAt(freqKHz int) float64 {
	if w, ok := c.CorePowerW[freqKHz]; ok {
		return w
	}
	keys := make([]int, 0, len(c.CorePowerW))
	for k := range c.CorePowerW {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if freqKHz <= keys[0] {
		return c.CorePowerW[keys[0]]
	}
	if freqKHz >= keys[len(keys)-1] {
		return c.CorePowerW[keys[len(keys)-1]]
	}
	for i := 1; i < len(keys); i++ {
		if freqKHz < keys[i] {
			lo, hi := keys[i-1], keys[i]
			t := float64(freqKHz-lo) / float64(hi-lo)
			return c.CorePowerW[lo]*(1-t) + c.CorePowerW[hi]*t
		}
	}
	return c.CorePowerW[keys[len(keys)-1]]
}

// interpEfficiency evaluates the Tables 4–6 surface with bilinear
// interpolation: piecewise linear in frequency along the DVFS ladder
// and in cores along the measured core counts, clamped at the edges,
// per hyper-threading plane.
func interpEfficiency(cfg Config) float64 {
	ht := cfg.HyperThread()
	ghz := cfg.GHz()

	cores := paperdata.CoreCounts
	n := cfg.Cores
	if n <= cores[0] {
		return effAtCores(cores[0], ghz, ht)
	}
	if n >= cores[len(cores)-1] {
		return effAtCores(cores[len(cores)-1], ghz, ht)
	}
	for i := 1; i < len(cores); i++ {
		if n == cores[i] {
			return effAtCores(n, ghz, ht)
		}
		if n < cores[i] {
			lo, hi := cores[i-1], cores[i]
			t := float64(n-lo) / float64(hi-lo)
			return effAtCores(lo, ghz, ht)*(1-t) + effAtCores(hi, ghz, ht)*t
		}
	}
	return effAtCores(cores[len(cores)-1], ghz, ht)
}

// effAtCores interpolates along the frequency axis at a measured core
// count.
func effAtCores(n int, ghz float64, ht bool) float64 {
	freqs := paperdata.FrequenciesGHz // ascending
	if ghz <= freqs[0] {
		return lookupEff(n, freqs[0], ht)
	}
	if ghz >= freqs[len(freqs)-1] {
		return lookupEff(n, freqs[len(freqs)-1], ht)
	}
	for i := 1; i < len(freqs); i++ {
		if ghz == freqs[i] {
			return lookupEff(n, ghz, ht)
		}
		if ghz < freqs[i] {
			lo, hi := freqs[i-1], freqs[i]
			t := (ghz - lo) / (hi - lo)
			return lookupEff(n, lo, ht)*(1-t) + lookupEff(n, hi, ht)*t
		}
	}
	return lookupEff(n, freqs[len(freqs)-1], ht)
}

// lookupEff reads one measured efficiency point; a miss is a bug in
// the caller's clamping, not a recoverable condition.
func lookupEff(n int, f float64, ht bool) float64 {
	r, ok := paperdata.Lookup(n, f, ht)
	if !ok {
		panic(fmt.Sprintf("perfmodel: paper sweep missing (%d cores, %.1f GHz, ht=%v)", n, f, ht))
	}
	return r.GFLOPSPerWatt
}

// StandardConfig is the configuration Slurm uses without the plugin:
// every core at the highest frequency, no hyper-threading (Table 1's
// blue row).
func StandardConfig() Config {
	return Config{Cores: paperdata.CPUCores, FreqKHz: 2_500_000, ThreadsPerCore: 1}
}

// BestConfig is the winning configuration the eco plugin selects
// (Table 1's first row).
func BestConfig() Config {
	return Config{Cores: 32, FreqKHz: 2_200_000, ThreadsPerCore: 1}
}
