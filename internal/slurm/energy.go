// Cluster-wide energy policies, stated as three decisions the dispatch
// loop asks of one policy value (schedPolicy; nil = no policy) — the
// cluster-level counterpart of the paper's job_submit_eco, which also
// enters Slurm through one narrow hook rather than through the
// scheduler.
//
// admit: may this pending job dispatch now, and at what frequency? It
// has two halves. hold runs before a node is taken and is Kiselev et
// al.'s cheap/green-window deferral: a deferrable job waits while the
// price/carbon signal is above the threshold, until its deadline slack
// or the max-defer bound forces it out. fit runs on the taken node and
// checks the placement's modelled draw against the partition's power
// budget: go, go pinned at the fastest ladder rung that
// fits, or wait. Either half marks a job it keeps queued with the
// squeue reason.
//
// place: with no idle node, which running primary does the job start
// beside? Zheng et al.'s power-bounded co-scheduling: a compute-bound
// and a memory-bound shape share one node, the secondary stretched by
// an interference penalty and charged from the power model.
//
// release: a job leaving its node returns its draw to the ledger
// (charge, its counterpart, books it when the job starts).
//
// A decision costs what it decides, not what it scans (both papers
// describe theirs as a lookup against maintained state): hold reads the
// signal once per instant and derives a job's release bound once per
// job; place walks an index of pairable primaries that charge, release
// and a drain keep current (reindex), not the partition's nodes.
//
// The policy value owns every controller-wide parameter, the decision
// counters and their metric handles; per-entity state stays on its
// entity (budget and draw ledger on partition, power model on nodeD,
// attributed draw on Job). The decisions are functions of those plain
// structs — no clock, no hardware, no controller — so they are tested
// as values (policy_test.go).
package slurm

import (
	"fmt"
	"math/bits"
	"time"

	"ecosched/internal/metrics"
	"ecosched/internal/perfmodel"
	"ecosched/internal/workload"
)

// Pending-state reasons the policies leave on held jobs (squeue's
// Reason column vocabulary).
const (
	reasonPowerCap   = "PowerCap"
	reasonEnergyHold = "EnergyHold"
)

// Policy metric names (ecolint/metricname: package-level chronus.*).
const (
	metricCapDenials  = "chronus.cluster.policy.cap_denials"
	metricFreqCapped  = "chronus.cluster.policy.freq_capped"
	metricDeferred    = "chronus.cluster.policy.deferred_jobs"
	metricCoScheduled = "chronus.cluster.policy.co_scheduled"
)

// PowerModel attributes steady-state electrical draw to a node and to
// job placements on it, from the node's perfmodel calibration: the
// same frequency-ladder power surface the per-job optimiser uses,
// composed to system (DC) power with the thermal/fan model settled.
type PowerModel struct {
	calib *perfmodel.Calibration
}

// NewPowerModel builds a power model over a node's calibration.
func NewPowerModel(calib *perfmodel.Calibration) PowerModel {
	return PowerModel{calib: calib}
}

// IdleNodeW is the node's steady draw with no job scheduled: base
// system power plus the idle CPU package and the fan at the idle
// steady temperature.
func (pm PowerModel) IdleNodeW() float64 {
	idle := pm.calib.IdleCPUPowerW()
	return pm.calib.SystemPowerW(idle, pm.calib.SteadyTempC(idle))
}

// ActiveNodeW is the node's steady draw running a job in the given
// configuration.
func (pm PowerModel) ActiveNodeW(cfg perfmodel.Config) float64 {
	return pm.calib.SteadySystemPowerW(cfg)
}

// PlacementDeltaW is the draw increase of placing a job in the given
// configuration on an otherwise idle node — what the budget check
// charges a placement.
func (pm PowerModel) PlacementDeltaW(cfg perfmodel.Config) float64 {
	d := pm.ActiveNodeW(cfg) - pm.IdleNodeW()
	if d < 0 {
		return 0
	}
	return d
}

// CPUDeltaW is the CPU-package share of the placement delta, used to
// attribute CPU energy to co-scheduled secondaries.
func (pm PowerModel) CPUDeltaW(cfg perfmodel.Config) float64 {
	d := pm.calib.CPUPowerW(cfg, 1) - pm.calib.IdleCPUPowerW()
	if d < 0 {
		return 0
	}
	return d
}

// SchedPolicy is one cluster energy policy. Implementations fill in
// the controller's policy value at construction (attach is deliberately
// unexported: the pluggable surface is policy selection and parameters
// — specs, CLI flags, WithSchedPolicies — not arbitrary dispatch
// callbacks, which could not stay deterministic or zero-alloc).
type SchedPolicy interface {
	attach(pol *schedPolicy, c *Controller) error
}

// schedPolicy is the controller's one policy value: the parameters the
// attached SchedPolicy values set, and the run's decision counters.
type schedPolicy struct {
	// freqCap: over a partition's budget (partition.capW), fit pins a
	// lower rung before it waits.
	freqCap bool
	// penalty stretches a co-scheduled secondary's runtime; 0 = no
	// co-scheduling.
	penalty float64
	// signal is the deferral signal; nil = no deferral.
	signal    DeferralSignal
	threshold float64
	maxDefer  time.Duration
	check     time.Duration
	// read memoises the signal at the instant (tick) hold last read it —
	// a pass asks hold of every queued Deferrable job at one instant: the
	// verdict signal > threshold, and instant + check as the wake.
	read struct {
		ok, high       bool
		tick, wakeTick int64
		wake           time.Time
	}

	totals       PolicyTotals
	mCapDenials  *metrics.Counter
	mFreqCapped  *metrics.Counter
	mDeferred    *metrics.Counter
	mCoScheduled *metrics.Counter
}

// newSchedPolicy builds the policy value for a constructed controller:
// seats the power model on every node, opens the partition's draw
// ledger at its idle floor (an empty cluster still draws power, and
// the budget is a physical one), then lets each policy fill in its
// parameters. No policies, no value.
func newSchedPolicy(c *Controller, ps []SchedPolicy) (*schedPolicy, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	p := c.part
	for _, nd := range p.nodes {
		nd.pm = NewPowerModel(nd.hw.Calibration())
		nd.idleDrawW = nd.pm.IdleNodeW()
		p.drawW += nd.idleDrawW
	}
	p.peakDrawW = p.drawW
	pol := &schedPolicy{}
	for _, sp := range ps {
		if err := sp.attach(pol, c); err != nil {
			return nil, err
		}
	}
	if pol.pairs() {
		p.indexPairable()
	}
	return pol, nil
}

// setMetrics resolves the policy counters' handles (nil-safe, like the
// handles themselves: no policy, nothing to resolve).
func (pol *schedPolicy) setMetrics(r *metrics.Registry) {
	if pol == nil {
		return
	}
	pol.mCapDenials = r.Counter(metricCapDenials)
	pol.mFreqCapped = r.Counter(metricFreqCapped)
	pol.mDeferred = r.Counter(metricDeferred)
	pol.mCoScheduled = r.Counter(metricCoScheduled)
}

// Power-cap modes: what happens to a job whose placement would exceed
// the budget.
const (
	// CapModeWait denies the placement; the job stays queued with
	// reason PowerCap until draw drops.
	CapModeWait = "wait"
	// CapModeFreqCap walks the node's frequency ladder downward and
	// pins the job to the fastest frequency whose draw fits; only when
	// no rung fits does the job wait.
	CapModeFreqCap = "freqcap"
)

// PowerCapPolicy enforces the partition's power budget at dispatch: a
// job places only if the post-placement draw (idle floor included)
// stays within CapW. A cluster states one budget per partition
// controller; the cluster simulator prorates a spec's cluster-wide cap
// (lanePolicies).
type PowerCapPolicy struct {
	CapW float64
	Mode string // CapModeWait (default) or CapModeFreqCap
}

func (p *PowerCapPolicy) attach(pol *schedPolicy, c *Controller) error {
	switch p.Mode {
	case "", CapModeWait:
	case CapModeFreqCap:
		pol.freqCap = true
	default:
		return fmt.Errorf("slurm: power-cap mode %q (want %q or %q)", p.Mode, CapModeWait, CapModeFreqCap)
	}
	part := c.part
	if !(p.CapW > 0) {
		return fmt.Errorf("slurm: power cap must be > 0 W, got %g", p.CapW)
	}
	// A cap at or below the idle floor could never admit a job: reject
	// it loudly instead of silently starving the queue. (drawW holds
	// exactly the idle floor at attachment time.)
	if p.CapW <= part.drawW {
		return fmt.Errorf("slurm: partition %q power cap %.0f W is at or below its %.0f W idle floor; no job could ever start",
			part.name, p.CapW, part.drawW)
	}
	part.capW = p.CapW
	return nil
}

// DefaultInterferencePenalty is the runtime stretch applied to a
// co-scheduled secondary when the policy does not set one: sharing a
// node costs ~25% even for complementary profiles.
const DefaultInterferencePenalty = 1.25

// CoSchedulePolicy pairs a compute-bound job with a memory-bound one
// (HPCG + STREAM profiles) on a single node when no idle node exists:
// the secondary runs alongside the primary, its runtime stretched by
// the interference penalty, its energy attributed from the power
// model. Jobs without a profile, or marked Exclusive, are never
// paired.
type CoSchedulePolicy struct {
	// InterferencePenalty multiplies the secondary's planned runtime
	// (>= 1; 0 selects DefaultInterferencePenalty).
	InterferencePenalty float64
}

func (p *CoSchedulePolicy) attach(pol *schedPolicy, _ *Controller) error {
	pen := p.InterferencePenalty
	if pen == 0 {
		pen = DefaultInterferencePenalty
	}
	if pen < 1 {
		return fmt.Errorf("slurm: interference penalty %g < 1 (a shared node is never faster)", pen)
	}
	pol.penalty = pen
	return nil
}

// DeferralSignal reports the energy signal (spot price, carbon
// intensity) the deferral policy compares against its threshold. It
// must be a pure function of simulated time — same instant, same value,
// whoever asks and however often: the scheduler relies on it, reading
// the signal once per instant and applying that verdict to every job it
// considers at that instant. The indirection keeps this package
// decoupled from internal/energymarket.
type DeferralSignal func(t time.Time) float64

// DefaultDeferCheck is how often a held job re-reads the signal when
// the policy does not set a cadence.
const DefaultDeferCheck = 15 * time.Minute

// DeferralPolicy holds Deferrable jobs while Signal(now) exceeds
// Threshold, releasing each job when the signal drops, when its
// deadline leaves just enough slack to run within its time limit, or
// after MaxDefer past submission — whichever comes first. MaxDefer is
// mandatory: without it a high signal could starve jobs unboundedly.
type DeferralPolicy struct {
	Signal    DeferralSignal
	Threshold float64
	MaxDefer  time.Duration
	// Check is the signal re-evaluation cadence for held jobs (0 =
	// DefaultDeferCheck).
	Check time.Duration
}

func (p *DeferralPolicy) attach(pol *schedPolicy, _ *Controller) error {
	if p.Signal == nil {
		return fmt.Errorf("slurm: deferral policy needs a signal")
	}
	if p.Threshold <= 0 {
		return fmt.Errorf("slurm: deferral threshold must be > 0, got %g", p.Threshold)
	}
	if p.MaxDefer <= 0 {
		return fmt.Errorf("slurm: deferral needs max defer > 0 (unbounded deferral starves jobs)")
	}
	check := p.Check
	if check < 0 {
		return fmt.Errorf("slurm: negative deferral check interval %v", p.Check)
	}
	if check == 0 {
		check = DefaultDeferCheck
	}
	pol.signal = p.Signal
	pol.threshold = p.Threshold
	pol.maxDefer = p.MaxDefer
	pol.check = check
	return nil
}

// PolicyTotals counts policy decisions over a run — the per-policy
// fitness inputs beside energy/makespan/wait.
type PolicyTotals struct {
	// CapDenials counts placements denied outright by the power budget
	// (the job waited).
	CapDenials int64
	// FreqCapped counts placements that fit only after pinning a lower
	// frequency (CapModeFreqCap).
	FreqCapped int64
	// DeferredJobs counts jobs the deferral policy held at least once.
	DeferredJobs int64
	// ForcedDispatches counts held jobs released by their deadline or
	// max-defer bound rather than a favourable signal.
	ForcedDispatches int64
	// CoScheduled counts secondaries placed beside a running primary.
	CoScheduled int64
	// CapViolations counts partition-draw observations above cap at a
	// placement instant — always 0 unless the model is broken; the
	// property suite asserts it.
	CapViolations int64
	// SignalReads and PlaceProbes count work, not decisions: evaluations
	// of the deferral signal, and running primaries place examined as a
	// secondary's host. Deterministic, so "the policy path does less
	// work" is a test (reports do not print them).
	SignalReads int64
	PlaceProbes int64
}

// PolicyTotals returns the run's policy decision counts.
func (c *Controller) PolicyTotals() PolicyTotals {
	if c.pol == nil {
		return PolicyTotals{}
	}
	return c.pol.totals
}

// PartitionDrawW reports the partition's modelled draw: current,
// run-peak, and cap (0 = uncapped). All zero when the policy layer is
// off.
func (c *Controller) PartitionDrawW() (draw, peak, capW float64) {
	return c.part.drawW, c.part.peakDrawW, c.part.capW
}

// capSlack absorbs float accumulation noise in the cap comparison:
// draw is maintained incrementally (add on start, subtract on end)
// and a genuine violation overshoots by watts, not ulps.
const capSlack = 1e-9

// hold is the first half of admit, asked (when the policy holds() at
// all) of a Deferrable job before a node is taken: does the deferral
// signal keep it queued at now (tick is now in UnixNano, the clock's own
// mirror)? A held job is marked with its squeue reason and must be
// looked at again at wake. The release order is deadline/max-defer bound
// first (never starve), then a favourable signal. The bound is derived
// once per job and the signal read once per instant, so a job that stays
// held costs two integer compares.
func (pol *schedPolicy) hold(job *Job, now time.Time, tick int64) (wake time.Time, held bool) {
	if job.releaseTick == 0 {
		latest := pol.releaseBound(job)
		if latest.Before(job.SubmitTime) {
			// A deadline already out of reach at submission releases at
			// once (and an absurd one cannot wrap the tick).
			latest = job.SubmitTime
		}
		job.releaseTick = latest.UnixNano()
	}
	if tick >= job.releaseTick {
		if job.deferred {
			// Clear the flag so a forced job that still finds no node is
			// counted once, not once per scheduling pass.
			job.deferred = false
			pol.totals.ForcedDispatches++
		}
		return time.Time{}, false
	}
	rd := &pol.read
	if !rd.ok || rd.tick != tick {
		rd.ok, rd.tick = true, tick
		rd.high = pol.signal(now) > pol.threshold
		rd.wake, rd.wakeTick = now.Add(pol.check), tick+int64(pol.check)
		pol.totals.SignalReads++
	}
	if !rd.high {
		return time.Time{}, false
	}
	if !job.deferred {
		job.deferred = true
		pol.totals.DeferredJobs++
		pol.mDeferred.Inc()
	}
	job.Reason = reasonEnergyHold
	if rd.wakeTick > job.releaseTick {
		return pol.releaseBound(job), true
	}
	return rd.wake, true
}

// releaseBound is the instant a hold on the job ends whatever the
// signal says: max defer past submission, or — sooner — the last
// instant that still leaves the job its time limit before its deadline.
func (pol *schedPolicy) releaseBound(job *Job) time.Time {
	latest := job.SubmitTime.Add(pol.maxDefer)
	if !job.Desc.Deadline.IsZero() {
		// Dispatching by Deadline − TimeLimit leaves room for the worst
		// allowed runtime (the time limit truncates longer plans).
		if byDeadline := job.Desc.Deadline.Add(-job.Desc.TimeLimit); byDeadline.Before(latest) {
			latest = byDeadline
		}
	}
	return latest
}

// fit is the second half of admit, asked once a node is taken: does
// the job's placement on it stay within the partition's power budget?
// In freq-cap mode a job without an explicit --cpu-freq request that
// fits only at a lower rung is pinned to the fastest one that does;
// explicit requests are honoured and wait instead. A job that does not
// fit is marked with its squeue reason: the release that frees draw
// reschedules it.
func (pol *schedPolicy) fit(job *Job, n *nodeD) bool {
	ladder := n.spec.FrequenciesKHz
	cfg := job.Desc.Config()
	if cfg.FreqKHz == 0 && len(ladder) > 0 {
		// Unpinned jobs run at the governor's pick; charge the ladder
		// maximum so the estimate never undershoots the started draw.
		cfg.FreqKHz = ladder[len(ladder)-1]
	}
	if capAllows(n, n.pm.PlacementDeltaW(cfg)) {
		return true
	}
	if pol.freqCap && job.Desc.MaxFreqKHz == 0 {
		for i := len(ladder) - 2; i >= 0; i-- {
			cfg.FreqKHz = ladder[i]
			if capAllows(n, n.pm.PlacementDeltaW(cfg)) {
				job.Desc.MaxFreqKHz, job.Desc.MinFreqKHz = ladder[i], ladder[i]
				pol.totals.FreqCapped++
				pol.mFreqCapped.Inc()
				return true
			}
		}
	}
	job.Reason = reasonPowerCap
	pol.totals.CapDenials++
	pol.mCapDenials.Inc()
	return false
}

// capAllows reports whether adding deltaW to the draw of the node's
// partition stays within its cap, if it has one.
func capAllows(n *nodeD, deltaW float64) bool {
	p := n.part
	return !(p.capW > 0 && p.drawW+deltaW > p.capW)
}

// holds and pairs report whether hold can ever keep a job queued and
// whether place can ever start one on a busy node. The scheduling pass
// asks once, not per pending job — and without pairs, "no idle node"
// still means "nothing can start".
func (pol *schedPolicy) holds() bool { return pol.signal != nil }
func (pol *schedPolicy) pairs() bool { return pol.penalty != 0 }

// pairing is place's verdict: the node whose running primary the job
// starts beside, and the plan it runs on there.
type pairing struct {
	node *nodeD
	// cfg is the job's configuration at the primary's frequency (one
	// clock per package).
	cfg    perfmodel.Config
	dur    time.Duration // planned runtime, interference penalty applied
	gflops float64
	// sysW/cpuW are the steady power deltas the secondary's energy is
	// integrated from (the hw stack models one job per node).
	sysW, cpuW float64
}

// The pairable-primary index: one bitmap per primary profile over the
// slots freeBits uses. A node's bit is set in its profile's bitmap iff
// a secondary could start on it as far as the node alone decides — it
// runs a primary of that profile on live hardware, has no secondary
// yet, is not drained, and the primary neither demands the node nor is
// itself a promoted secondary.
const (
	pairCompute = iota // compute-bound primaries: hosts for memory-bound jobs
	pairMemory
)

// indexPairable sizes the partition's index, once, when the policy pairs.
func (p *partition) indexPairable() {
	for k := range p.pairable {
		p.pairable[k] = make([]uint64, len(p.freeBits))
	}
}

// reindex re-derives the node's bit from the node's state. It runs
// wherever that state changes — charge (a job starts, as primary or
// secondary), release (a job leaves) and a drain or resume — and only
// under a policy that pairs.
func (pol *schedPolicy) reindex(n *nodeD) {
	if pol == nil || !pol.pairs() {
		return
	}
	in := -1
	if pri := n.current; pri != nil && n.hwJob != nil && n.coJob == nil && !n.drained &&
		!pri.Desc.Exclusive && !pri.coSecondary {
		switch pri.shapeProfile() {
		case workload.ProfileCompute:
			in = pairCompute
		case workload.ProfileMemory:
			in = pairMemory
		}
	}
	w, bit := n.idx>>6, uint64(1)<<uint(n.idx&63)
	for k, index := range n.part.pairable {
		if k == in {
			index[w] |= bit
		} else {
			index[w] &^= bit
		}
	}
}

// place picks the running primary a job with no idle node starts
// beside: the first pairable primary of the complementary profile in
// the partition's slot order (deterministic first-fit, like takeIdle)
// that has room left and on which planBeside accepts the job, writing
// the verdict to *pr. False — the job stays queued, *pr untouched — when
// there is none. (An out-parameter on the caller's stack rather than a
// result: the pass asks this of every queued job, and nearly every
// answer is "none" — a scan of the index's few words.)
func (pol *schedPolicy) place(p *partition, job *Job, now time.Time, pr *pairing) bool {
	prof := job.shapeProfile()
	if prof == "" || job.Desc.Exclusive {
		return false
	}
	want := pairCompute
	if prof == workload.ProfileCompute {
		want = pairMemory
	}
	for w, word := range p.pairable[want] {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			n := p.nodes[w<<6|b]
			pri := n.current
			pol.totals.PlaceProbes++
			if pri.Desc.NumTasks+job.Desc.NumTasks > n.spec.Cores {
				continue
			}
			if job.Desc.ThreadsPerCPU > n.spec.ThreadsPerCore {
				continue
			}
			if job.Desc.MemoryMB > 0 && job.Desc.MemoryMB+pri.Desc.MemoryMB > n.spec.RAMGB*1024 {
				continue
			}
			if pol.planBeside(job, n, now, pr) {
				return true
			}
		}
	}
	return false
}

// planBeside plans the job as the secondary of the node's running
// primary: same frequency domain as the primary, runtime stretched by
// the interference penalty, draw from the power model. False, *pr
// untouched, when the budget, the plan or the deadline refuses.
func (pol *schedPolicy) planBeside(job *Job, n *nodeD, now time.Time, pr *pairing) bool {
	cfg := job.Desc.Config()
	cfg.FreqKHz = n.hwJob.Config.FreqKHz
	sysW := n.pm.PlacementDeltaW(cfg)
	if !capAllows(n, sysW) {
		return false
	}
	dur, gflops := job.Desc.Shape.Plan(n.hw, cfg)
	if dur <= 0 {
		return false
	}
	dur = time.Duration(float64(dur) * pol.penalty)
	if !job.Desc.Deadline.IsZero() && now.Add(dur).After(job.Desc.Deadline) {
		return false
	}
	pol.totals.CoScheduled++
	pol.mCoScheduled.Inc()
	*pr = pairing{node: n, cfg: cfg, dur: dur, gflops: gflops, sysW: sysW, cpuW: n.pm.CPUDeltaW(cfg)}
	return true
}

// charge books a started job's draw — that of the configuration it
// actually runs in, so the ledger is self-consistent with what release
// returns — on its node's partition, tracking the peak and counting
// violations (which fit should make impossible). The job is on the
// node by now: its pairable bit follows.
func (pol *schedPolicy) charge(job *Job, n *nodeD, cfg perfmodel.Config) {
	job.drawDeltaW = n.pm.PlacementDeltaW(cfg)
	p := n.part
	p.drawW += job.drawDeltaW
	if p.drawW > p.peakDrawW {
		p.peakDrawW = p.drawW
	}
	if p.capW > 0 && p.drawW > p.capW*(1+capSlack) {
		pol.totals.CapViolations++
	}
	pol.reindex(n)
}

// release returns the draw of a job that has left its node, whose
// pairable bit follows.
func (pol *schedPolicy) release(job *Job, n *nodeD) {
	n.part.drawW -= job.drawDeltaW
	job.drawDeltaW = 0
	pol.reindex(n)
}
