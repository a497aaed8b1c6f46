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
	"slices"
	"sync/atomic"
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
	spec NodeSpec
	sim  *simclock.Sim
	rng  *simclock.RNG

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
	// search. Shared read-only with every node of the same calibration
	// and spec ladder (ladderFor); a pointer rather than the rows' slice
	// header, which keeps the node in its allocation size class. The
	// node reaches its calibration through it.
	ladder     *ladderTable
	tempC      float64
	lastTick   int64 // simulated tick of the last accounting step (simclock.NowTick)
	sysJ, cpuJ float64
	// cosTick/cosVal memo the closing boundary term of the last
	// meanCPUPower, cos(w·t+φ) at cosTick, for the running job
	// (StartJob resets cosTick to noTick). advance integrates
	// back-to-back intervals, so one interval's closing term is the
	// next one's opening term: the same inputs, so the same float, at
	// one cosine per step. cosT is t at cosTick, the job's seconds
	// since start, which the sensor read at the same tick (cpuPowerAt)
	// shares.
	cosTick int64
	cosVal  float64
	cosT    float64
	// decayGap/gapS/decay memo the thermal step's dt in seconds and
	// exp(−dt/τ) for the last tick gap: a sampler steps a node at one
	// interval, so most steps repeat the gap, and the same inputs give
	// the same floats. A gap is never 0, the empty key.
	decayGap int64
	gapS     float64
	decay    float64
	// jobSlot is the reusable Job record handed out by StartJob —
	// exclusive allocation means at most one is live, so the node owns
	// a single slot instead of allocating per start (the controller's
	// dispatch path runs millions of starts per cluster run).
	jobSlot Job
}

// noTick is a tick no accounting step starts at: the cosine memo's
// empty key.
const noTick = math.MinInt64

// Job is an active occupancy of the node.
type Job struct {
	node   *Node
	Config perfmodel.Config
	ended  bool
}

// NewNode creates a node at ambient/idle steady state.
func NewNode(sim *simclock.Sim, spec NodeSpec, calib *perfmodel.Calibration, seed uint64) *Node {
	if calib == nil {
		calib = perfmodel.Default()
	}
	n := &Node{
		spec:     spec,
		sim:      sim,
		rng:      simclock.NewRNG(seed),
		governor: GovernorPerformance,
		lastTick: sim.NowTick(),
	}
	n.tempC = calib.SteadyTempC(calib.IdleCPUPowerW())
	n.ladder = ladderFor(calib, spec.FrequenciesKHz)
	return n
}

// ladderEntry is one row of the node's per-frequency power table.
type ladderEntry struct {
	khz   int
	coreW float64
	amp   float64
}

// ladderTable is the per-frequency power table of one (calibration,
// spec ladder) pair. It is a pure function of the pair, so once built
// it is shared read-only by every node built from the same pair.
type ladderTable struct {
	calib *perfmodel.Calibration
	freqs []int
	rows  []ladderEntry
	// w is the phase oscillation's angular frequency 2π/PhasePeriodS,
	// the calibration's constant.
	w float64
}

// lastLadder is the most recently built table. Nodes are built in runs
// over one calibration (a cluster's partitions, a sweep's stacks), so
// one remembered table serves a whole run; another pair replaces it.
// It is a package-level memo because NewNode's callers pass nothing a
// table could ride on; what it returns is a pure function of its key,
// so callers that share it cannot tell, apart from the sharing. The
// calibration's address is a sound key: a node reads its calibration
// live, so none is modified once a node is built from it, and the table
// holds its calibration, so the address cannot be reused for another.
var lastLadder atomic.Pointer[ladderTable]

// ladderFor returns the shared table for calib and the spec ladder
// freqs: a row for every frequency a job can resolve to, the spec
// ladder plus the calibrated P-states, each once.
func ladderFor(calib *perfmodel.Calibration, freqs []int) *ladderTable {
	if t := lastLadder.Load(); t != nil && t.calib == calib && slices.Equal(t.freqs, freqs) {
		return t
	}
	t := &ladderTable{calib: calib, freqs: slices.Clone(freqs), w: 2 * math.Pi / calib.PhasePeriodS}
	t.rows = make([]ladderEntry, 0, len(freqs)+len(calib.PStatesKHz))
	for _, f := range slices.Concat(freqs, calib.PStatesKHz) {
		if slices.ContainsFunc(t.rows, func(e ladderEntry) bool { return e.khz == f }) {
			continue
		}
		t.rows = append(t.rows, ladderEntry{
			khz:   f,
			coreW: calib.CorePowerAt(f),
			amp:   calib.PhaseAmplitude[calib.NearestPState(f)],
		})
	}
	lastLadder.Store(t)
	return t
}

// Spec returns the node's hardware description.
func (n *Node) Spec() NodeSpec { return n.spec }

// Calibration exposes the node's power/throughput model.
func (n *Node) Calibration() *perfmodel.Calibration { return n.ladder.calib }

// SetGovernor selects a cpufreq governor.
func (n *Node) SetGovernor(g GovernorKind) error {
	switch g {
	case GovernorPerformance, GovernorPowersave, GovernorOndemand, GovernorUserspace:
	default:
		return fmt.Errorf("hw: unknown governor %q", g)
	}
	n.advance()
	n.governor = g
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
	n.userspaceKHz = n.ladder.calib.NearestPState(khz)
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
		cfg.FreqKHz = n.ladder.calib.NearestPState(cfg.FreqKHz)
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
	*j = Job{node: n, Config: cfg}
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
		c := n.ladder.calib
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
		n.jobBaseW = n.ladder.calib.CPUPowerW(j.Config, 1)
		n.jobAmp = n.ladder.calib.PhaseAmplitude[n.ladder.calib.NearestPState(j.Config.FreqKHz)]
	}
	n.jobPhase = n.rng.Float64() * 2 * math.Pi
	n.cosTick = noTick
	return j, nil
}

func (n *Node) ladderEntryFor(freqKHz int) *ladderEntry {
	rows := n.ladder.rows
	for i := range rows {
		if rows[i].khz == freqKHz {
			return &rows[i]
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
}

// cpuPowerAt returns instantaneous CPU package power at the given
// simulated tick (nanoseconds, simclock.NowTick domain).
func (n *Node) cpuPowerAt(at int64) float64 {
	if n.job == nil {
		return n.ladder.calib.IdleCPUPowerW()
	}
	if n.jobAmp == 0 {
		return n.jobBaseW
	}
	t := n.cosT
	if at != n.cosTick {
		t = time.Duration(at - n.jobStartTick).Seconds()
	}
	osc := math.Sin(2*math.Pi*t/n.ladder.calib.PhasePeriodS + n.jobPhase)
	return n.jobBaseW * (1 + n.jobAmp*osc)
}

// meanCPUPower integrates cpuPowerAt over the tick interval [a, b], dt
// seconds long, in closed form.
func (n *Node) meanCPUPower(a, b int64, dt float64) float64 {
	if b <= a {
		return n.cpuPowerAt(a)
	}
	if n.job == nil {
		return n.ladder.calib.IdleCPUPowerW()
	}
	if n.jobAmp == 0 {
		return n.jobBaseW
	}
	w := n.ladder.w
	t1 := time.Duration(b - n.jobStartTick).Seconds()
	// ∫ sin(w·t+φ) dt = (cos(w·t0+φ) − cos(w·t1+φ)) / w
	c0 := n.cosVal
	if n.cosTick != a {
		t0 := time.Duration(a - n.jobStartTick).Seconds()
		c0 = math.Cos(w*t0 + n.jobPhase)
	}
	c1 := math.Cos(w*t1 + n.jobPhase)
	n.cosTick, n.cosVal, n.cosT = b, c1, t1
	integral := (c0 - c1) / w
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
	c := n.ladder.calib
	tau := c.ThermalTauS
	if gap := nowTick - n.lastTick; gap != n.decayGap {
		dt := time.Duration(gap).Seconds()
		n.decayGap, n.gapS, n.decay = gap, dt, math.Exp(-dt/tau)
	}
	dt, decay := n.gapS, n.decay
	meanCPU := n.meanCPUPower(n.lastTick, nowTick, dt)
	tss := c.SteadyTempC(meanCPU)

	// Exact integral of the first-order thermal response over dt for
	// the fan-energy term: ∫(T(t)−T0)dt with T(t) = tss −
	// (tss−T_start)·exp(−t/τ).
	tStart := n.tempC
	tempIntegral := (tss-c.ThermalT0C)*dt - (tss-tStart)*tau*(1-decay)
	if tempIntegral < 0 {
		tempIntegral = 0
	}
	fanJ := c.FanCoefWPerC * tempIntegral

	cpuJ := meanCPU * dt
	sysJ := c.BaseSystemW*dt + cpuJ + fanJ

	n.cpuJ += cpuJ
	n.sysJ += sysJ
	n.tempC = tss - (tss-tStart)*decay
	n.lastTick = nowTick
}

// Sensors returns what the BMC's three sensors see at this instant —
// DC-side chassis power (Total_Power), CPU package power and CPU
// temperature — from one accounting step and one evaluation of the
// power model.
func (n *Node) Sensors() (systemW, cpuW, tempC float64) {
	n.advance()
	cpuW = n.cpuPowerAt(n.sim.NowTick())
	return n.ladder.calib.SystemPowerW(cpuW, n.tempC), cpuW, n.tempC
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
	return n.ladder.calib.WallPowerW(n.SystemPowerW())
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
