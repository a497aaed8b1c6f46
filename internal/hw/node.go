// Package hw simulates the evaluation hardware: a compute node with a
// multi-core CPU, a DVFS frequency ladder with Linux-style governors,
// a power model, a first-order thermal model, and two PSUs feeding the
// chassis. It substitutes for the paper's Lenovo ThinkSystem SR650
// (AMD EPYC 7502P, 256 GB RAM).
//
// The node runs on simulated time (internal/simclock) and is observed
// through the same channels the paper uses: the BMC/IPMI sensors
// (internal/ipmi) read CPU power, system power and CPU temperature;
// a simulated wattmeter reads the AC side of the two PSUs.
//
// A node hosts at most one job at a time (exclusive allocation, as in
// the paper's single-node cluster). While a job runs, CPU power
// follows the calibrated model for the job's (cores, frequency,
// threads-per-core) configuration, modulated by a compute/memory phase
// oscillation whose amplitude depends on the P-state — reproducing
// Figure 15's fluctuating "normal" trace versus the stable "new" one.
package hw

import (
	"fmt"
	"math"
	"time"

	"ecosched/internal/paperdata"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
)

// GovernorKind enumerates the cpufreq governors the node supports.
type GovernorKind string

// Governor kinds. Slurm's default is Performance ("DVFS in Performance
// mode", §5.2.3); the related-work baseline uses Ondemand; a job with
// --cpu-freq runs Userspace.
const (
	GovernorPerformance GovernorKind = "performance"
	GovernorPowersave   GovernorKind = "powersave"
	GovernorOndemand    GovernorKind = "ondemand"
	GovernorUserspace   GovernorKind = "userspace"
)

// NodeSpec describes the static hardware of a node.
type NodeSpec struct {
	Name           string
	CPUModel       string
	Cores          int
	ThreadsPerCore int
	RAMGB          int
	FrequenciesKHz []int // ascending DVFS ladder
}

// DefaultSpec returns the paper's evaluation node.
func DefaultSpec() NodeSpec {
	return NodeSpec{
		Name:           "sr650",
		CPUModel:       paperdata.CPUModel,
		Cores:          paperdata.CPUCores,
		ThreadsPerCore: paperdata.CPUThreadsPer,
		RAMGB:          paperdata.SystemRAMGB,
		FrequenciesKHz: append([]int(nil), paperdata.FrequenciesKHz...),
	}
}

// Node is a simulated compute node.
type Node struct {
	spec  NodeSpec
	calib *perfmodel.Calibration
	sim   *simclock.Sim
	rng   *simclock.RNG

	governor     GovernorKind
	userspaceKHz int
	job          *Job
	jobPhase     float64 // phase offset of the current job's oscillation
	// jobBaseW/jobAmp/jobStartTick cache the running job's resolved
	// power model (base package power, oscillation amplitude, start
	// tick): the job's configuration is immutable while it runs, so the
	// integrator reads three floats instead of re-deriving them from
	// the calibration on every accounting step.
	jobBaseW     float64
	jobAmp       float64
	jobStartTick int64
	// ladder tabulates the calibration's per-core power and phase
	// amplitude for every frequency a job can resolve to (the spec
	// ladder plus the calibrated P-states), so the per-start cache fill
	// is a short scan instead of map probes and a nearest-P-state
	// search.
	ladder        []ladderEntry
	tempC         float64
	lastT         time.Time
	lastTick      int64 // lastT as nanosecond ticks (simclock.NowTick)
	sysJ, cpuJ    float64
	jobsCompleted int
	// jobSlot is the reusable Job record handed out by StartJob —
	// exclusive allocation means at most one is live, so the node owns
	// a single slot instead of allocating per start (the controller's
	// dispatch path runs millions of starts per cluster run).
	jobSlot Job
}

// Job is an active occupancy of the node.
type Job struct {
	node   *Node
	Config perfmodel.Config
	Start  time.Time
	ended  bool
}

// NewNode creates a node at ambient/idle steady state.
func NewNode(sim *simclock.Sim, spec NodeSpec, calib *perfmodel.Calibration, seed uint64) *Node {
	if calib == nil {
		calib = perfmodel.Default()
	}
	n := &Node{
		spec:     spec,
		calib:    calib,
		sim:      sim,
		rng:      simclock.NewRNG(seed),
		governor: GovernorPerformance,
		lastT:    sim.Now(),
		lastTick: sim.NowTick(),
	}
	n.tempC = calib.SteadyTempC(calib.IdleCPUPowerW())
	n.ladder = make([]ladderEntry, 0, len(spec.FrequenciesKHz)+len(calib.PStatesKHz))
	for _, f := range spec.FrequenciesKHz {
		n.addLadderEntry(f)
	}
	for _, f := range calib.PStatesKHz {
		n.addLadderEntry(f)
	}
	return n
}

// ladderEntry is one row of the node's per-frequency power table.
type ladderEntry struct {
	khz   int
	coreW float64
	amp   float64
}

func (n *Node) addLadderEntry(freqKHz int) {
	for i := range n.ladder {
		if n.ladder[i].khz == freqKHz {
			return
		}
	}
	n.ladder = append(n.ladder, ladderEntry{
		khz:   freqKHz,
		coreW: n.calib.CorePowerAt(freqKHz),
		amp:   n.calib.PhaseAmplitude[n.calib.NearestPState(freqKHz)],
	})
}

// Spec returns the node's hardware description.
func (n *Node) Spec() NodeSpec { return n.spec }

// Calibration exposes the node's power/throughput model.
func (n *Node) Calibration() *perfmodel.Calibration { return n.calib }

// SetGovernor selects a cpufreq governor.
func (n *Node) SetGovernor(g GovernorKind) error {
	switch g {
	case GovernorPerformance, GovernorPowersave, GovernorOndemand, GovernorUserspace:
	default:
		return fmt.Errorf("hw: unknown governor %q", g)
	}
	n.advance()
	n.governor = g
	if g == GovernorUserspace && n.userspaceKHz == 0 {
		n.userspaceKHz = n.spec.FrequenciesKHz[len(n.spec.FrequenciesKHz)-1]
	}
	return nil
}

// Governor returns the current governor.
func (n *Node) Governor() GovernorKind { return n.governor }

// SetUserspaceFreq pins the userspace governor frequency, snapping the
// request to the nearest P-state as cpufreq does.
func (n *Node) SetUserspaceFreq(khz int) error {
	if khz <= 0 {
		return fmt.Errorf("hw: non-positive frequency %d", khz)
	}
	n.advance()
	n.userspaceKHz = n.calib.NearestPState(khz)
	return nil
}

// CurrentFreqKHz returns the frequency the governor is running right
// now, given the node's load.
func (n *Node) CurrentFreqKHz() int {
	ladder := n.spec.FrequenciesKHz
	minF, maxF := ladder[0], ladder[len(ladder)-1]
	switch n.governor {
	case GovernorPowersave:
		return minF
	case GovernorOndemand:
		if n.job != nil {
			return maxF
		}
		return minF
	case GovernorUserspace:
		if n.userspaceKHz != 0 {
			return n.userspaceKHz
		}
		return maxF
	default: // performance
		return maxF
	}
}

// StartJob occupies the node with a job in the given configuration.
// A zero FreqKHz means "whatever the governor runs", mirroring a job
// submitted without --cpu-freq. The returned Job must be ended with
// End; starting a second job while one is active is an error
// (exclusive allocation). The returned record is valid until End:
// the node recycles it for the next start, so callers must not retain
// it past the job's end.
func (n *Node) StartJob(cfg perfmodel.Config) (*Job, error) {
	if n.job != nil {
		return nil, fmt.Errorf("hw: node %s busy", n.spec.Name)
	}
	if cfg.FreqKHz != 0 {
		cfg.FreqKHz = n.calib.NearestPState(cfg.FreqKHz)
	}
	probe := cfg
	if probe.FreqKHz == 0 {
		// Validate against some ladder frequency; the real value is
		// resolved below once the governor sees the load.
		probe.FreqKHz = n.spec.FrequenciesKHz[0]
	}
	if err := probe.Validate(n.spec.Cores, n.spec.ThreadsPerCore); err != nil {
		return nil, err
	}
	n.advance()
	j := &n.jobSlot
	*j = Job{node: n, Config: cfg, Start: n.sim.Now()}
	n.job = j
	if cfg.FreqKHz == 0 {
		// Resolve the governor's choice with the load attached: an
		// ondemand governor ramps to max the moment the job lands.
		j.Config.FreqKHz = n.CurrentFreqKHz()
	}
	n.jobStartTick = n.sim.NowTick()
	if e := n.ladderEntryFor(j.Config.FreqKHz); e != nil {
		// Tabulated path, float-identical to CPUPowerW(cfg, 1): the
		// activity-1 terms are written out with the same operation
		// order so cached and uncached starts integrate identically.
		c := n.calib
		perCore := e.coreW
		if j.Config.HyperThread() {
			perCore *= c.HTPowerBump
		}
		active := float64(j.Config.Cores) * (c.CoreIdleW + (perCore - c.CoreIdleW))
		idle := float64(c.TotalCores-j.Config.Cores) * c.CoreIdleW
		uncore := c.UncoreIdleW + (c.UncoreW - c.UncoreIdleW)
		n.jobBaseW = uncore + active + idle
		n.jobAmp = e.amp
	} else {
		n.jobBaseW = n.calib.CPUPowerW(j.Config, 1)
		n.jobAmp = n.calib.PhaseAmplitude[n.calib.NearestPState(j.Config.FreqKHz)]
	}
	n.jobPhase = n.rng.Float64() * 2 * math.Pi
	return j, nil
}

func (n *Node) ladderEntryFor(freqKHz int) *ladderEntry {
	for i := range n.ladder {
		if n.ladder[i].khz == freqKHz {
			return &n.ladder[i]
		}
	}
	return nil
}

// End releases the node. Ending twice is a no-op.
func (j *Job) End() {
	if j.ended {
		return
	}
	j.ended = true
	j.node.advance()
	j.node.job = nil
	j.node.jobsCompleted++
}

// ActiveJob returns the running job, or nil.
func (n *Node) ActiveJob() *Job { return n.job }

// JobsCompleted counts jobs that have ended on this node.
func (n *Node) JobsCompleted() int { return n.jobsCompleted }

// cpuPowerAt returns instantaneous CPU package power at the given
// simulated tick (nanoseconds, simclock.NowTick domain).
func (n *Node) cpuPowerAt(at int64) float64 {
	if n.job == nil {
		return n.calib.IdleCPUPowerW()
	}
	if n.jobAmp == 0 {
		return n.jobBaseW
	}
	t := time.Duration(at - n.jobStartTick).Seconds()
	osc := math.Sin(2*math.Pi*t/n.calib.PhasePeriodS + n.jobPhase)
	return n.jobBaseW * (1 + n.jobAmp*osc)
}

// meanCPUPower integrates cpuPowerAt over the tick interval [a, b] in
// closed form.
func (n *Node) meanCPUPower(a, b int64) float64 {
	if b <= a {
		return n.cpuPowerAt(a)
	}
	if n.job == nil {
		return n.calib.IdleCPUPowerW()
	}
	if n.jobAmp == 0 {
		return n.jobBaseW
	}
	dt := time.Duration(b - a).Seconds()
	w := 2 * math.Pi / n.calib.PhasePeriodS
	t0 := time.Duration(a - n.jobStartTick).Seconds()
	t1 := time.Duration(b - n.jobStartTick).Seconds()
	// ∫ sin(w·t+φ) dt = (cos(w·t0+φ) − cos(w·t1+φ)) / w
	integral := (math.Cos(w*t0+n.jobPhase) - math.Cos(w*t1+n.jobPhase)) / w
	return n.jobBaseW * (1 + n.jobAmp*integral/dt)
}

// advance integrates power, energy and temperature from the last
// accounting instant to now. It is called before every state change
// and every sensor read, so observers always see a consistent state.
func (n *Node) advance() {
	nowTick := n.sim.NowTick()
	if nowTick <= n.lastTick {
		return
	}
	dt := time.Duration(nowTick - n.lastTick).Seconds()
	meanCPU := n.meanCPUPower(n.lastTick, nowTick)
	tss := n.calib.SteadyTempC(meanCPU)
	tau := n.calib.ThermalTauS

	// Exact integral of the first-order thermal response over dt for
	// the fan-energy term: ∫(T(t)−T0)dt with T(t) = tss −
	// (tss−T_start)·exp(−t/τ).
	decay := math.Exp(-dt / tau)
	tStart := n.tempC
	tempIntegral := (tss-n.calib.ThermalT0C)*dt - (tss-tStart)*tau*(1-decay)
	if tempIntegral < 0 {
		tempIntegral = 0
	}
	fanJ := n.calib.FanCoefWPerC * tempIntegral

	cpuJ := meanCPU * dt
	sysJ := n.calib.BaseSystemW*dt + cpuJ + fanJ

	n.cpuJ += cpuJ
	n.sysJ += sysJ
	n.tempC = tss - (tss-tStart)*decay
	n.lastT = n.sim.Now()
	n.lastTick = nowTick
}

// Sensors returns what the BMC's three sensors see at this instant —
// DC-side chassis power (Total_Power), CPU package power and CPU
// temperature — from one accounting step and one evaluation of the
// power model.
func (n *Node) Sensors() (systemW, cpuW, tempC float64) {
	n.advance()
	cpuW = n.cpuPowerAt(n.sim.NowTick())
	return n.calib.SystemPowerW(cpuW, n.tempC), cpuW, n.tempC
}

// CPUPowerW returns the instantaneous CPU package power.
func (n *Node) CPUPowerW() float64 {
	_, cpuW, _ := n.Sensors()
	return cpuW
}

// CPUTempC returns the instantaneous CPU temperature.
func (n *Node) CPUTempC() float64 {
	n.advance()
	return n.tempC
}

// SystemPowerW returns the instantaneous DC-side chassis power — what
// the BMC's Total_Power sensor reports.
func (n *Node) SystemPowerW() float64 {
	systemW, _, _ := n.Sensors()
	return systemW
}

// WallPowerW returns what a wattmeter on the PSU inputs reads: total
// AC draw and the per-PSU split. This is the Eq. 1 reference meter.
func (n *Node) WallPowerW() (total, psu1, psu2 float64) {
	return n.calib.WallPowerW(n.SystemPowerW())
}

// EnergyJ returns accumulated (system, CPU) energy in joules since the
// last reset.
func (n *Node) EnergyJ() (sysJ, cpuJ float64) {
	n.advance()
	return n.sysJ, n.cpuJ
}

// ResetEnergy zeroes the energy accumulators (start of a measured run).
func (n *Node) ResetEnergy() {
	n.advance()
	n.sysJ, n.cpuJ = 0, 0
}

// GFLOPS reports the sustained throughput of the configuration the
// node is currently running, or 0 when idle.
func (n *Node) GFLOPS() float64 {
	if n.job == nil {
		return 0
	}
	return n.calib.GFLOPS(n.job.Config)
}
