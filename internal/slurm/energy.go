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
// job; place walks an index of pairable primaries that charge and
// release keep current (reindex), not the partition's nodes.
//
// The policy value owns every controller-wide parameter, the decision
// counters and their metric handles; per-entity state stays on its
// entity (budget and draw ledger on partition, power model on nodeD,
// attributed draw on Job). The decisions are functions of those plain
// structs — no clock, no hardware, no controller — so they are tested
// as values (policy_test.go).
package slurm

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sync/atomic"
	"time"

	"ecosched/internal/metrics"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
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

// EnergyPolicy is a controller's cluster energy policy, its parameters
// resolved: the cluster simulator builds one per partition from a spec's
// policy block (lanePolicies), which has already checked every rule but
// the one that needs the nodes. The zero value is no policy.
type EnergyPolicy struct {
	// CapW is the partition's power budget in watts, idle floor
	// included (0 = uncapped): a job places only if the post-placement
	// draw stays within it.
	CapW float64
	// FreqCap: over the budget, fit pins the fastest ladder rung that
	// fits before the job waits with reason PowerCap.
	FreqCap bool
	// Penalty stretches a co-scheduled secondary's runtime (0 = no
	// co-scheduling): with no idle node, a compute-bound and a
	// memory-bound job share one node, the secondary's energy attributed
	// from the power model. Jobs without a profile, or marked Exclusive,
	// are never paired.
	Penalty float64
	// Signal is the deferral signal (nil = no deferral): Deferrable jobs
	// wait while it exceeds Threshold, until it drops, their deadline
	// leaves just enough slack to run within their time limit, or
	// MaxDefer past submission passes. A held job re-reads it every
	// Check.
	Signal    DeferralSignal
	Threshold float64
	MaxDefer  time.Duration
	Check     time.Duration
}

// schedPolicy is the controller's one policy value: its parameters and
// the run's decision counters.
type schedPolicy struct {
	EnergyPolicy
	// read memoises the signal at the tick hold last read it — a pass
	// asks hold of every queued Deferrable job at one instant: the
	// verdict signal > threshold, and tick + check as the wake.
	read struct {
		ok, high   bool
		tick, wake int64
	}
	// minCapW is the smallest placement delta planBeside's budget check
	// has refused since the scheduling pass began it (settle records it).
	minCapW float64
	// headroomW is the cap less the idle floor (0 = uncapped), which
	// fitsBudget asks.
	headroomW float64

	totals       PolicyTotals
	mCapDenials  *metrics.Counter
	mFreqCapped  *metrics.Counter
	mDeferred    *metrics.Counter
	mCoScheduled *metrics.Counter
}

// newPolicy builds the policy value for a constructed controller:
// seats the power model on every node, opens the partition's draw
// ledger at its idle floor (an empty cluster still draws power, and
// the budget is a physical one) and sets the cap. No policy, no value.
func newPolicy(c *Controller, ep EnergyPolicy) (*schedPolicy, error) {
	if ep.CapW == 0 && ep.Penalty == 0 && ep.Signal == nil {
		return nil, nil
	}
	p := c.part
	for _, nd := range p.nodes {
		nd.deltas = deltaTableFor(nd.hw.Calibration(), nd.spec.FrequenciesKHz)
		nd.idleDrawW = nd.deltas.pm.IdleNodeW()
		p.drawW += nd.idleDrawW
	}
	p.peakDrawW = p.drawW
	pol := &schedPolicy{EnergyPolicy: ep}
	if ep.CapW != 0 {
		// A cap at or below the idle floor could never admit a job:
		// reject it loudly instead of silently starving the queue.
		if ep.CapW <= p.drawW {
			return nil, fmt.Errorf("slurm: partition %q power cap %.0f W is at or below its %.0f W idle floor; no job could ever start",
				p.name, ep.CapW, p.drawW)
		}
		p.capW = ep.CapW
		pol.headroomW = ep.CapW - p.drawW
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

// DeferralSignal reports the energy signal (spot price, carbon
// intensity) the deferral policy compares against its threshold. It
// must be a pure function of simulated time — same instant, same value,
// whoever asks and however often: the scheduler relies on it, reading
// the signal once per instant and applying that verdict to every job it
// considers at that instant. The indirection keeps this package
// decoupled from internal/energymarket.
type DeferralSignal func(t time.Time) float64

// PolicyTotals counts policy decisions over a run — the per-policy
// fitness inputs beside energy/makespan/wait.
type PolicyTotals struct {
	// CapDenials counts placements denied outright by the power budget
	// (the job waited).
	CapDenials int64
	// FreqCapped counts placements that fit only after pinning a lower
	// frequency (FreqCap).
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
	// SignalReads, PlaceProbes and QueueVisits count work, not
	// decisions: evaluations of the deferral signal, running primaries
	// place examined as a secondary's host, and queued jobs a scheduling
	// pass looked at. Deterministic, so "the policy path does less work"
	// is a test (reports do not print them).
	SignalReads int64
	PlaceProbes int64
	QueueVisits int64
}

// Add sums u into t, counter by counter: every field of PolicyTotals is
// an int64 count, so a new counter is summed without an edit here.
func (t *PolicyTotals) Add(u PolicyTotals) {
	dst, src := reflect.ValueOf(t).Elem(), reflect.ValueOf(&u).Elem()
	for i := range dst.NumField() {
		dst.Field(i).SetInt(dst.Field(i).Int() + src.Field(i).Int())
	}
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
// signal keep it queued at tick? A held job is marked with its squeue
// reason and must be looked at again at the wake tick. The release order
// is deadline/max-defer bound first (never starve), then a favourable
// signal. The bound is derived once per job and the signal read once
// per instant, so a job that stays held costs two integer compares.
func (pol *schedPolicy) hold(job *Job, tick int64) (wake int64, held bool) {
	if job.releaseTick == 0 {
		job.releaseTick = pol.releaseBound(job)
	}
	if tick >= job.releaseTick {
		if job.deferred {
			// Clear the flag so a forced job that still finds no node is
			// counted once, not once per scheduling pass.
			job.deferred = false
			pol.totals.ForcedDispatches++
		}
		return 0, false
	}
	if !pol.high(tick) {
		return 0, false
	}
	rd := &pol.read
	if !job.deferred {
		job.deferred = true
		pol.totals.DeferredJobs++
		pol.mDeferred.Inc()
	}
	job.Reason = reasonEnergyHold
	return min(rd.wake, job.releaseTick), true
}

// high is the deferral signal's verdict at tick, read once per instant:
// signal(tick) > threshold.
func (pol *schedPolicy) high(tick int64) bool {
	rd := &pol.read
	if !rd.ok || rd.tick != tick {
		rd.ok, rd.tick = true, tick
		rd.high = pol.Signal(simclock.Tick(tick).Time()) > pol.Threshold
		rd.wake = later(tick, pol.Check)
		pol.totals.SignalReads++
	}
	return rd.high
}

// later is tick t plus d, saturated at the clock's last instant.
func later(t int64, d time.Duration) int64 {
	if int64(d) > math.MaxInt64-t {
		return math.MaxInt64
	}
	return t + int64(d)
}

// endsPastClock reports whether the job, run on a plan of d from tick
// t, would end past the clock's last instant, where its completion tick
// would wrap into the past. run cuts the plan at the time limit.
func (j *Job) endsPastClock(t int64, d time.Duration) bool {
	return min(d, j.Desc.TimeLimit) > time.Duration(math.MaxInt64-t)
}

// endsAfter reports whether a run of d from tick t ends after the
// deadline. It compares time.Time values: a deadline is any instant a
// script names, and t + d may pass the clock's last tick.
func endsAfter(t int64, d time.Duration, deadline time.Time) bool {
	return simclock.Tick(t).Time().Add(d).After(deadline)
}

// verdict is the kind of answer that kept a queued job on a pass that
// left a settled record (settledRecord.kind, DESIGN §7): what a later
// pass must find unchanged to skip the job instead of asking again.
type verdict uint8

const (
	keptHeld    verdict = iota // hold: the deferral signal keeps it
	keptFit                    // fit: the budget refused the node takeIdle took
	keptNoNode                 // no idle node, and place never pairs the job
	keptCompute                // no idle node; place refused a compute-bound job
	keptMemory                 // no idle node; place refused a memory-bound job
	verdictKinds
)

// settledStands is hold's half of the settled-prefix test, asked once
// per pass like holds and pairs: would hold answer every job the
// partition's settled record holds as it did? It would while the tick
// is before the record's release bound, which comes no later than any
// of theirs, and the signal is on the same side of the threshold: a
// held job stays held, its wake no earlier than the one armed; a
// released one goes on to takeIdle again. (With no bound recorded the
// signal is not read: no job in the record would read it.)
func (pol *schedPolicy) settledStands(p *partition, tick int64) bool {
	s := &p.settled
	return s.release == math.MaxInt64 || tick < s.release && pol.high(tick) == s.high
}

// countDenials counts n fit refusals a pass repeats without asking fit,
// as fit would have counted them.
func (pol *schedPolicy) countDenials(n int) {
	pol.totals.CapDenials += int64(n)
	pol.mCapDenials.Add(int64(n))
}

// skipMask is the set of verdict kinds (bit k for kind k) a pass over a
// record whose hold half stands may skip on the partition's live state.
// With the epoch the one the recording pass began at, every kind: that
// pass started nothing, and nothing has moved since, so takeIdle, fit
// and place read what they read when they answered. Otherwise held
// jobs always; jobs kept for no node while no node is free (takeIdle
// finds none, place never pairs them); compute- and memory-bound jobs
// place refused while no node is free, the complementary index holds
// only stable hosts, and the draw ledger still refuses minCapW — each
// stable host refuses the job for a reason its unchanged primary keeps,
// for a deadline that only gets closer, or for the budget on a delta no
// smaller than minCapW. fit refusals are not skipped then: fit asks
// again. A wake's pass (woken) skips no held job: they re-arm the wake
// it spent. The pass asks at its start and again after every start.
func (pol *schedPolicy) skipMask(p *partition) uint8 {
	mask := uint8(1<<verdictKinds - 1)
	if p.settled.epoch != p.epoch {
		mask = 1 << keptHeld
		if p.freeN == 0 {
			mask |= 1 << keptNoNode
			capRefuses := p.drawW+p.settled.minCapW > p.capW
			if p.refusesAgain(pairMemory, capRefuses) {
				mask |= 1 << keptCompute
			}
			if p.refusesAgain(pairCompute, capRefuses) {
				mask |= 1 << keptMemory
			}
		}
	}
	if p.woken {
		mask &^= 1 << keptHeld
	}
	return mask
}

// grow makes the record's buffer hold n jobs, keeping the record.
func (s *settledRecord) grow(n int) {
	kind := make([]byte, max(n, 2*len(s.kind), 64))
	copy(kind, s.kind[:s.n])
	s.kind = kind
}

// byKind starts a pass by kind over the record under the mask skip: no
// job asked yet, no search position known yet for a kind. It returns
// the first job the pass must ask (nextAsked): n when skip holds every
// kind the record does.
func (s *settledRecord) byKind(skip uint8) int {
	s.asked = [verdictKinds]int{}
	for k := range s.next {
		s.next[k] = -1
	}
	return s.nextAsked(0, s.n, skip)
}

// nextAsked is the first record position in [i, through) whose kind
// skip lacks, or through; only the kinds the record holds are searched.
// next[k] is, per kind, the first position of kind k at or past where
// its last search began (through: none); one at or past i still stands,
// since a pass writes the record only below the job it is at. So each
// search starts where the last one of its kind ended, and a pass scans
// each kind's bytes once, whatever masks it asks with.
func (s *settledRecord) nextAsked(i, through int, skip uint8) int {
	j, next := through, &s.next
	for m := s.present &^ skip; m != 0; m &= m - 1 {
		k := bits.TrailingZeros8(m)
		if next[k] < i {
			next[k] = through
			if d := bytes.IndexByte(s.kind[i:through], byte(k)); d >= 0 {
				next[k] = i + d
			}
		}
		j = min(j, next[k])
	}
	return j
}

// keepRun keeps the record's jobs pending[i:j], unasked, behind the
// remaining ones: where they are while no job ahead of them has left,
// else moved down with their kinds.
func (s *settledRecord) keepRun(pending, remaining []*Job, i, j int) []*Job {
	w := len(remaining)
	if w != i {
		copy(pending[w:], pending[i:j])
		copy(s.kind[w:], s.kind[i:j])
	}
	return pending[:w+j-i]
}

// refusesAgain reports whether place, walking the pairable index k,
// would refuse every job the settled record kept on its refusal there:
// the index is empty, or it holds only stable hosts and the budget
// still refuses the record's smallest refused delta (capRefuses).
func (p *partition) refusesAgain(k int, capRefuses bool) bool {
	stable, empty := p.stable[k], true
	for w, word := range p.pairable[k] {
		if word&^stable[w] != 0 {
			return false
		}
		empty = empty && word == 0
	}
	return empty || capRefuses
}

// settle records the pass's settled prefix: n kept jobs, kinds of them
// per verdict kind (and the set of kinds present), release, a bound no
// later than the earliest release tick among them that hold still
// waits for, and epoch, the partition epoch the pass began at. The
// smallest delta the budget refused beside a host (minCapW, gathered by
// planBeside and carried over skipped jobs) and the pairable index, as
// the stable hosts, go with them. So does the signal's verdict of the
// instant: when release is set, the pass read it this instant.
func (pol *schedPolicy) settle(p *partition, n int, kinds [verdictKinds]int, release int64, epoch uint64) {
	s := &p.settled
	s.n, s.kinds, s.epoch, s.release = n, kinds, epoch, release
	var present uint8
	for k, n := range kinds {
		if n > 0 {
			present |= 1 << k
		}
	}
	s.present = present
	s.minCapW, s.high = pol.minCapW, pol.read.high
	for k := range p.pairable {
		copy(p.stable[k], p.pairable[k])
	}
}

// releaseBound is the tick a hold on the job ends whatever the signal
// says: max defer past submission, or — sooner — the last instant that
// still leaves the job its time limit before its deadline, but not
// before submission: a deadline already out of reach then releases the
// job at once.
func (pol *schedPolicy) releaseBound(job *Job) int64 {
	submit := int64(job.SubmitTime)
	latest := later(submit, pol.MaxDefer)
	if !job.Desc.Deadline.IsZero() {
		// Dispatching by Deadline − TimeLimit leaves room for the worst
		// allowed runtime (the time limit truncates longer plans). The
		// deadline is any instant a script names, so it is compared as a
		// time.Time and read as a tick only once it lies in [submission,
		// latest).
		if by := job.Desc.Deadline.Add(-job.Desc.TimeLimit); by.Before(simclock.Tick(latest).Time()) {
			latest = submit
			if !by.Before(job.SubmitTime.Time()) {
				latest = by.UnixNano()
			}
		}
	}
	return max(latest, submit)
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
	if capAllows(n, n.deltas.deltaW(cfg)) {
		return true
	}
	if pol.FreqCap && job.Desc.MaxFreqKHz == 0 {
		for i := len(ladder) - 2; i >= 0; i-- {
			cfg.FreqKHz = ladder[i]
			if capAllows(n, n.deltas.deltaW(cfg)) {
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

// deltaTable is the power model of the nodes built from one calibration
// and spec ladder, with PowerModel.PlacementDeltaW tabulated over every
// configuration fit, planBeside and charge ask there: cores
// 0..TotalCores, a ladder or P-state frequency, one or two threads a
// core. The value is a pure function of (calibration, configuration),
// so one table serves every node of the pair (deltaTableFor).
type deltaTable struct {
	pm     PowerModel
	ladder []int // the spec ladder it was built for
	freqs  []int // its rows: the ladder and the P-states, each once
	cores  int   // TotalCores
	// The ladder fills rows 0..rungs-1, its maximum row top (-1: the
	// spec has no ladder).
	rungs, top int
	// w holds the delta of (freqs[r], c cores, t threads) at
	// (r*(cores+1)+c)*2 + t-1.
	w []float64
}

// lastDeltas is the most recently built table, shared the way
// hw.ladderFor shares its ladder: the nodes of a run share one
// calibration and ladder, so one table serves the run, and a process
// whose runs share a calibration builds it once.
var lastDeltas atomic.Pointer[deltaTable]

// deltaTableFor returns the shared table for calib and the spec ladder.
func deltaTableFor(calib *perfmodel.Calibration, ladder []int) *deltaTable {
	if t := lastDeltas.Load(); t != nil && t.pm.calib == calib && slices.Equal(t.ladder, ladder) {
		return t
	}
	t := &deltaTable{pm: NewPowerModel(calib), ladder: slices.Clone(ladder), cores: calib.TotalCores, top: -1}
	for i, f := range slices.Concat(ladder, calib.PStatesKHz) {
		if !slices.Contains(t.freqs, f) {
			t.freqs = append(t.freqs, f)
		}
		if i == len(ladder)-1 {
			t.rungs, t.top = len(t.freqs), slices.Index(t.freqs, f)
		}
	}
	t.w = make([]float64, 0, len(t.freqs)*(t.cores+1)*2)
	for _, f := range t.freqs {
		for c := 0; c <= t.cores; c++ {
			for threads := 1; threads <= 2; threads++ {
				t.w = append(t.w, t.pm.PlacementDeltaW(perfmodel.Config{Cores: c, FreqKHz: f, ThreadsPerCore: threads}))
			}
		}
	}
	lastDeltas.Store(t)
	return t
}

// deltaW is the placement delta of cfg: the table's entry, or the
// power model's for a configuration outside the table.
func (t *deltaTable) deltaW(cfg perfmodel.Config) float64 {
	if uint(cfg.Cores) <= uint(t.cores) && uint(cfg.ThreadsPerCore-1) < 2 {
		for r, f := range t.freqs {
			if f == cfg.FreqKHz {
				return t.w[(r*(t.cores+1)+cfg.Cores)*2+cfg.ThreadsPerCore-1]
			}
		}
	}
	return t.pm.PlacementDeltaW(cfg)
}

// leastW is the least delta of cfg's cores and threads over the rows
// lo..hi-1; 0, which refuses nothing, for a shape outside the table or
// a table without a ladder (fit charges such a node the model's delta
// at frequency 0, which is no row).
func (t *deltaTable) leastW(cfg perfmodel.Config, lo, hi int) float64 {
	if t.top < 0 || uint(cfg.Cores) > uint(t.cores) || uint(cfg.ThreadsPerCore-1) >= 2 {
		return 0
	}
	least := math.Inf(1)
	for r := lo; r < hi; r++ {
		least = min(least, t.w[(r*(t.cores+1)+cfg.Cores)*2+cfg.ThreadsPerCore-1])
	}
	return least
}

// fitsBudget refuses at submission a job that could never start as a
// primary under the partition's power cap (nil-safe): the least delta
// fit could charge it on a node class that holds it — a --cpu-freq
// job's clock, an unpinned one's ladder maximum, or in freqcap mode any
// rung — exceeds the cap less the idle floor. Every job it admits can
// start once the partition drains; a job that fit only beside a primary
// could wait for one forever.
func (pol *schedPolicy) fitsBudget(p *partition, desc *JobDesc) error {
	if pol == nil || pol.headroomW == 0 {
		return nil
	}
	cfg := desc.Config()
	least := math.Inf(1)
	for _, n := range p.classes {
		if !nodeSatisfies(n, desc) {
			continue
		}
		t := n.deltas
		if cfg.FreqKHz != 0 {
			least = min(least, t.deltaW(cfg))
			continue
		}
		lo, hi := t.top, t.top+1
		if pol.FreqCap {
			lo, hi = 0, t.rungs
		}
		least = min(least, t.leastW(cfg, lo, hi))
	}
	if least <= pol.headroomW {
		return nil
	}
	return fmt.Errorf("slurm: %d tasks × %d threads draw at least %.1f W over idle, above the %.1f W partition %q's power cap leaves over its idle floor; no placement could ever start",
		desc.NumTasks, desc.ThreadsPerCPU, least, pol.headroomW, p.name)
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
func (pol *schedPolicy) holds() bool { return pol.Signal != nil }
func (pol *schedPolicy) pairs() bool { return pol.Penalty != 0 }

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
// runs a primary of that profile on live hardware (a promoted secondary
// runs on none), has no secondary yet, and the primary does not demand
// the node.
const (
	pairCompute = iota // compute-bound primaries: hosts for memory-bound jobs
	pairMemory
)

// indexPairable sizes the partition's index and its stable hosts, once,
// in one allocation, when the policy pairs.
func (p *partition) indexPairable() {
	words := len(p.freeBits)
	buf := make([]uint64, 4*words)
	for k := range p.pairable {
		p.pairable[k] = buf[2*k*words : (2*k+1)*words : (2*k+1)*words]
		p.stable[k] = buf[(2*k+1)*words : (2*k+2)*words : (2*k+2)*words]
	}
}

// reindex re-derives the node's bit from the node's state. It runs
// wherever that state changes — charge (a job starts, as primary or
// secondary) and release (a job leaves) — and only under a policy that
// pairs. Each call moves the partition's epoch, and a cleared bit
// leaves the stable hosts too: a host set again later runs another
// primary, or has room again beside the one it had, and is fresh to
// every job the settled record kept.
func (pol *schedPolicy) reindex(n *nodeD) {
	if !pol.pairs() {
		return
	}
	p := n.part
	p.epoch++
	in := -1
	if pri := n.current; pri != nil && n.hwJob != nil && n.coJob == nil && !pri.Desc.Exclusive {
		switch pri.shapeProfile() {
		case workload.ProfileCompute:
			in = pairCompute
		case workload.ProfileMemory:
			in = pairMemory
		}
	}
	w, bit := n.idx>>6, uint64(1)<<uint(n.idx&63)
	for k, index := range p.pairable {
		if k == in {
			index[w] |= bit
		} else {
			index[w] &^= bit
			p.stable[k][w] &^= bit
		}
	}
}

// complement is the pairable index place walks for the job — the
// primaries of the other profile — or -1 for a job place never pairs
// (no profile, or Exclusive).
func complement(job *Job) int {
	switch prof := job.shapeProfile(); {
	case prof == "" || job.Desc.Exclusive:
		return -1
	case prof == workload.ProfileCompute:
		return pairMemory
	}
	return pairCompute
}

// refusedKind is the verdict kind of a job kept with no idle node once
// place has refused it.
func refusedKind(job *Job) verdict {
	switch complement(job) {
	case pairMemory:
		return keptCompute
	case pairCompute:
		return keptMemory
	}
	return keptNoNode
}

// place picks the running primary a job with no idle node starts
// beside: the first pairable primary of the complementary profile in
// the partition's slot order (deterministic first-fit, like takeIdle)
// that has room left and on which planBeside accepts the job, writing
// the verdict to *pr. False — the job stays queued, *pr untouched — when
// there is none. (An out-parameter on the caller's stack rather than a
// result: the pass asks this of every queued job, and nearly every
// answer is "none" — a scan of the index's few words.)
func (pol *schedPolicy) place(p *partition, job *Job, now int64, pr *pairing) bool {
	want := complement(job)
	if want < 0 {
		return false
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
// untouched, when the budget, the plan or the deadline refuses. A
// budget refusal lowers pol.minCapW to the delta it refused.
func (pol *schedPolicy) planBeside(job *Job, n *nodeD, now int64, pr *pairing) bool {
	cfg := job.Desc.Config()
	cfg.FreqKHz = n.hwJob.Config.FreqKHz
	sysW := n.deltas.deltaW(cfg)
	if !capAllows(n, sysW) {
		pol.minCapW = min(pol.minCapW, sysW)
		return false
	}
	dur, gflops := job.Desc.Shape.Plan(n.hw, cfg)
	if dur <= 0 {
		return false
	}
	if ns := float64(dur) * pol.Penalty; ns < math.MaxInt64 {
		dur = time.Duration(ns)
	} else {
		dur = math.MaxInt64 // saturate, as Plan does; the time limit cuts it
	}
	if !job.Desc.Deadline.IsZero() && endsAfter(now, dur, job.Desc.Deadline) {
		return false
	}
	if job.endsPastClock(now, dur) {
		return false
	}
	pol.totals.CoScheduled++
	pol.mCoScheduled.Inc()
	*pr = pairing{node: n, cfg: cfg, dur: dur, gflops: gflops, sysW: sysW, cpuW: n.deltas.pm.CPUDeltaW(cfg)}
	return true
}

// charge books a started job's draw — that of the configuration it
// actually runs in, so the ledger is self-consistent with what release
// returns — on its node's partition, tracking the peak and counting
// violations (which fit should make impossible). The job is on the
// node by now: its pairable bit follows.
func (pol *schedPolicy) charge(job *Job, n *nodeD, cfg perfmodel.Config) {
	job.drawDeltaW = n.deltas.deltaW(cfg)
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
