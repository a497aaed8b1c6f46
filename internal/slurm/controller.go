package slurm

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/metrics"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/trace"
)

// Metric, span, and event names (ecolint/metricname: package-level
// constants in the chronus.* namespace).
const (
	spanSubmit    = "chronus.slurm.submit"
	spanSchedule  = "chronus.slurm.schedule"
	eventJobStart = "chronus.job.start"
	eventJobEnd   = "chronus.job.end"

	metricJobsSubmitted  = "chronus.slurm.jobs.submitted"
	metricJobsRejected   = "chronus.slurm.jobs.rejected"
	metricJobsCompleted  = "chronus.slurm.jobs.completed"
	metricJobsFailed     = "chronus.slurm.jobs.failed"
	metricJobsCancelled  = "chronus.slurm.jobs.cancelled"
	metricBudgetOverruns = "chronus.slurm.plugin.budget_overruns"
)

// MetricChainLatency is the bucketed per-submission plugin-chain
// latency histogram. Exported so the root package's loadgen harness
// and SLO evaluation can find it in a snapshot by name.
const MetricChainLatency = "chronus.slurm.plugin.chain_latency"

// Workload models what a job's executable does on a node: how long it
// runs in a given configuration and at what sustained throughput. The
// controller resolves workloads from the description's Shape when set,
// falling back to the registry keyed by the job's binary path.
// workload.Shape satisfies this contract, and is the one description
// type generated, replayed and hand-built jobs share.
type Workload interface {
	Name() string
	// Plan returns (runtime, sustained GFLOPS) for the configuration
	// on the node. A zero GFLOPS is valid for non-compute jobs.
	Plan(node *hw.Node, cfg perfmodel.Config) (time.Duration, float64)
}

// NodeInfo is one sinfo row.
type NodeInfo struct {
	Name  string
	State string // "idle" or "alloc"
	Cores int
	JobID int // 0 when idle
}

// nodeD is a slurmd: the per-node daemon owning the hardware.
type nodeD struct {
	name string
	// part is the node's partition and idx its construction index
	// there: the slot in the partition's bitmaps, so the first-fit
	// placement order.
	part    *partition
	idx     int
	hw      *hw.Node
	current *Job
	hwJob   *hw.Job
	// coJob is the co-scheduled secondary running beside current, when
	// the co-scheduling policy paired one (energy.go).
	coJob   *Job
	drained bool
	// free marks the node idle, undrained, and listed in its
	// partition's free bitmap.
	free bool
	// spec caches hw.Spec() — read on every placement probe.
	spec hw.NodeSpec
	// pm/idleDrawW are the node's power model and idle draw, set only
	// when the cluster-policy layer is active (energy.go).
	pm        PowerModel
	idleDrawW float64
	// Governor state saved while a --cpu-freq job pins userspace.
	savedGovernor hw.GovernorKind
	pinned        bool
}

// pinFrequency switches the node to the userspace governor at the
// job's requested frequency — what slurmd's cpu-freq support does —
// remembering the previous governor for restoration at job end.
func (n *nodeD) pinFrequency(khz int) error {
	n.savedGovernor = n.hw.Governor()
	if err := n.hw.SetGovernor(hw.GovernorUserspace); err != nil {
		return err
	}
	if err := n.hw.SetUserspaceFreq(khz); err != nil {
		return err
	}
	n.pinned = true
	return nil
}

// unpinFrequency restores the pre-job governor.
func (n *nodeD) unpinFrequency() {
	if !n.pinned {
		return
	}
	n.pinned = false
	_ = n.hw.SetGovernor(n.savedGovernor)
}

// Controller is the simulated slurmctld.
type Controller struct {
	sim     *simclock.Sim
	conf    Conf
	part    *partition // the one partition; its pool is the controller's nodes
	plugins []SubmitPlugin
	// jobs is the arena-indexed job table: job id i lives at
	// jobs[(i-1)>>jobChunkBits][(i-1)&jobChunkMask]. Ids are assigned
	// monotonically and never reused, so the hot dispatch path resolves
	// a job with a bounds check and two slice loads instead of a map
	// probe. A full chunk is never copied or re-scanned when the table
	// grows — at millions of jobs the doubling slice was half the
	// simulator's allocation volume. Only chunk 0 is ever shorter than
	// jobChunkSize: it starts at firstChunkLen and doubles in place, so
	// a one-node controller that runs one job does not pay 64 KB for
	// it. Retired slots are nil.
	jobs [][]*Job
	// jobPool recycles retired Job records in aggregate mode, where no
	// caller retains them past the completion hooks.
	jobPool []*Job
	// descScratch is the submission description the plugin chain and
	// validation operate on. Submit copies its argument here so the
	// mutable description never escapes to the heap; submissions are
	// strictly sequential (plugins cannot submit), so one slot is safe.
	descScratch JobDesc
	nextID      int
	workloads   map[string]Workload
	fallback    Workload
	acct        *Accounting
	onDone      []func(*Job)
	// usageBy is the fair-share store: consumed CPU-seconds per user,
	// indexed by the dense slot userSlots assigns each user id at first
	// sight. Jobs carry their slot, so a scheduling pass reads usage
	// with a slice load per pending job instead of a map probe.
	userSlots map[uint32]int32
	usageBy   []float64
	// usageSink, when set, observes every fair-share usage increment
	// (WithUsageSink) — the hook the parallel partition lanes use to
	// replicate usage across lane controllers at window barriers.
	usageSink func(uid uint32, cpuSeconds float64)
	tracer    *trace.Tracer // nil = untraced
	// aggregate retires terminal jobs from memory (see
	// WithAggregateAccounting); retired keeps their final state codes
	// by id so dependency resolution still works after retirement.
	aggregate bool
	retired   []uint8

	// batched defers scheduling passes to one flush event per clock
	// instant (WithBatchedScheduling); passDue marks a pass awaiting
	// that flush.
	batched    bool
	flushArmed bool
	passDue    bool

	// Pre-allocated simclock Actions: job completion and the batched
	// scheduling flush are the two per-job hot events, fired through
	// these handles with zero per-event allocation. wakeAct runs a pass
	// at an instant a queued job is waiting for (armWake).
	compAct  completeAction
	flushAct flushAction
	wakeAct  wakeAction

	// pol is the cluster energy policy (energy.go); nil = none. The
	// dispatch path asks it three things — admit (hold, then fit),
	// place, release — and charges it each started job's draw.
	pol *schedPolicy

	// activePlug caches the slurm.conf-resolved plugin chain;
	// invalidated by RegisterPlugin.
	activePlug   []SubmitPlugin
	activePlugOK bool

	// Metric handles (nil-safe; resolved by SetMetrics) so the event
	// loop skips the registry's map lookups.
	mSubmitted    *metrics.Counter
	mRejected     *metrics.Counter
	mCompleted    *metrics.Counter
	mFailed       *metrics.Counter
	mCancelled    *metrics.Counter
	mOverruns     *metrics.Counter
	mChainLatency *metrics.BucketedHistogram
}

// Retired-state codes: one byte per retired job instead of a
// JobState string header.
const (
	retiredNone uint8 = iota
	retiredCompleted
	retiredFailed
	retiredCancelled
)

func retireCode(s JobState) uint8 {
	switch s {
	case StateCompleted:
		return retiredCompleted
	case StateFailed:
		return retiredFailed
	default:
		return retiredCancelled
	}
}

func retiredState(code uint8) JobState {
	switch code {
	case retiredCompleted:
		return StateCompleted
	case retiredFailed:
		return StateFailed
	case retiredCancelled:
		return StateCancelled
	}
	return ""
}

// completeAction fires a job's scheduled completion. The event is
// uncancellable (simclock fast path), so Fire re-validates against the
// arena: a job cancelled meanwhile is terminal (or retired to a nil
// slot) and the stale event is dropped.
type completeAction struct{ c *Controller }

func (a *completeAction) Fire(arg uint64) { a.c.completeJob(int(arg)) }

// flushAction runs the deferred scheduling passes of the current
// instant (batched mode).
type flushAction struct{ c *Controller }

func (a *flushAction) Fire(uint64) { a.c.flushScheduling() }

// wakeAction runs a scheduling pass at the instant armWake asked for.
type wakeAction struct{ c *Controller }

func (a *wakeAction) Fire(uint64) {
	p := a.c.part
	// Wake events cannot be cancelled, so staleness is guarded here: a
	// duplicate superseded by a re-arm (different wakeAt) must be
	// dropped, not clear the armed flag — treating a stale fire as live
	// re-arms another wake per duplicate and the event population grows
	// geometrically at shared re-check instants.
	if !p.wakeArmed || !a.c.sim.Now().Equal(p.wakeAt) {
		return
	}
	p.wakeArmed = false
	a.c.schedulePart(p)
}

// armWake schedules a pass over the partition at the given future
// instant, unless one is already armed at or before it: the earliest
// wake wins, and the pass it runs re-arms for whatever still waits.
func (c *Controller) armWake(p *partition, at time.Time) {
	if p.wakeArmed && !at.Before(p.wakeAt) {
		return
	}
	p.wakeArmed = true
	p.wakeAt = at
	c.sim.AtAction(at, &c.wakeAct, 0)
}

// Conf returns the parsed slurm.conf the controller runs under —
// read-only configuration for callers that need the budgets (the
// loadgen SLO evaluation) without re-parsing the file.
func (c *Controller) Conf() Conf { return c.conf }

// RegisterPlugin registers a submit plugin implementation. Only
// plugins named in the configuration's JobSubmitPlugins line are
// invoked, in configuration order — matching how Slurm loads the
// plugin only when slurm.conf enables it (paper §3.4.1).
func (c *Controller) RegisterPlugin(p SubmitPlugin) {
	c.plugins = append(c.plugins, p)
	c.activePlugOK = false
}

// RegisterWorkload maps a binary path to its workload model.
func (c *Controller) RegisterWorkload(binaryPath string, w Workload) {
	c.workloads[binaryPath] = w
}

// SetMetrics attaches an observability registry, resolving the
// controller's metric handles against it once so the event loop skips
// the registry's map lookups. Nil (the default) leaves every handle
// nil, which disables instrumentation — the types are nil-safe.
func (c *Controller) SetMetrics(r *metrics.Registry) {
	c.mSubmitted = r.Counter(metricJobsSubmitted)
	c.mRejected = r.Counter(metricJobsRejected)
	c.mCompleted = r.Counter(metricJobsCompleted)
	c.mFailed = r.Counter(metricJobsFailed)
	c.mCancelled = r.Counter(metricJobsCancelled)
	c.mOverruns = r.Counter(metricBudgetOverruns)
	c.mChainLatency = r.BucketedHistogram(MetricChainLatency)
	c.pol.setMetrics(r)
	p := c.part
	p.queueGauge = r.Gauge(metricPartQueuePrefix + p.name)
	p.occGauge = r.Gauge(metricPartOccPrefix + p.name)
	p.energyGauge = r.Gauge(metricPartEnergyPrefix + p.name)
	p.doneCount = r.Counter(metricPartDonePrefix + p.name)
}

// SetTracer attaches a decision tracer; nil (the default) disables
// tracing. Every submission then produces one trace (the plugin chain
// nests under it) and job lifecycle transitions become journal events.
func (c *Controller) SetTracer(t *trace.Tracer) { c.tracer = t }

// Policy returns the partition's scheduling policy.
func (c *Controller) Policy() SchedulingPolicy { return c.part.policy }

// UserUsageCPUSeconds reports a user's accumulated CPU-seconds, the
// fair-share input.
func (c *Controller) UserUsageCPUSeconds(uid uint32) float64 {
	if s, ok := c.userSlots[uid]; ok {
		return c.usageBy[s]
	}
	return 0
}

// AddUsage credits fair-share usage that accrued outside this
// controller — the lane-barrier replication path. It deliberately does
// not invoke the usage sink: the delta originated from a sibling
// controller's sink and echoing it back would double-count.
func (c *Controller) AddUsage(uid uint32, cpuSeconds float64) {
	c.usageBy[c.slotFor(uid)] += cpuSeconds
}

// Accounting returns the slurmdbd record store.
func (c *Controller) Accounting() *Accounting { return c.acct }

// OnCompletion registers a hook invoked when any job reaches a
// terminal state.
func (c *Controller) OnCompletion(fn func(*Job)) {
	c.onDone = append(c.onDone, fn)
}

// QueueDepth reports the pending-queue length.
func (c *Controller) QueueDepth() int { return len(c.part.pending) }

// activePlugins returns the registered plugins enabled by slurm.conf,
// in configuration order. The resolved chain is cached — slurm.conf
// and the registration set change rarely, submissions happen millions
// of times — and invalidated by RegisterPlugin.
func (c *Controller) activePlugins() ([]SubmitPlugin, error) {
	if c.activePlugOK {
		return c.activePlug, nil
	}
	out := c.activePlug[:0]
	for _, name := range c.conf.JobSubmitPlugins {
		found := false
		for _, p := range c.plugins {
			if p.Name() == name {
				out = append(out, p)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("slurm: JobSubmitPlugins names %q but no such plugin is registered", name)
		}
	}
	c.activePlug = out
	c.activePlugOK = true
	return out, nil
}

// newJob takes a Job record off the pool (aggregate mode recycles
// retired ones) or allocates a fresh one. The record comes back
// zeroed.
func (c *Controller) newJob() *Job {
	if n := len(c.jobPool); n > 0 {
		j := c.jobPool[n-1]
		c.jobPool = c.jobPool[:n-1]
		*j = Job{}
		return j
	}
	return &Job{}
}

// Job-table chunk geometry: 8192 ids per chunk ≈ 64 KB of pointers.
// jobSlotsPerNode sizes chunk 0 at construction: a cluster of 128 or
// more nodes gets the full chunk in one allocation, a benchmark
// sweep's one-node controller 64 slots.
const (
	jobChunkBits    = 13
	jobChunkSize    = 1 << jobChunkBits
	jobChunkMask    = jobChunkSize - 1
	jobSlotsPerNode = 64
)

// firstChunkLen is the length chunk 0 starts with on a cluster of the
// given node count: jobSlotsPerNode a node, as a power of two so that
// doubling lands exactly on jobChunkSize.
func firstChunkLen(nodes int) int {
	n := jobSlotsPerNode
	for n < nodes*jobSlotsPerNode && n < jobChunkSize {
		n *= 2
	}
	return n
}

// jobByID resolves a live job from the arena, or nil (unknown id or
// retired).
func (c *Controller) jobByID(id int) *Job {
	if id >= 1 && id < c.nextID {
		idx := id - 1
		return c.jobs[idx>>jobChunkBits][idx&jobChunkMask]
	}
	return nil
}

// kick requests a scheduling pass: immediately in the default mode, or
// deferred to the instant's flush event in batched mode — many
// submissions and completions landing on one clock instant then cost
// one pass instead of one per event.
func (c *Controller) kick() {
	c.kickSubmit()
	if c.batched {
		c.armFlush()
	}
}

// kickSubmit requests a pass after a submission. In batched mode the
// pass is only marked due — no flush event is armed: the submitting
// driver calls Flush once the instant's submissions are all queued,
// which costs one pass and zero queue events per instant.
func (c *Controller) kickSubmit() {
	if !c.batched {
		c.schedulePart(c.part)
		return
	}
	c.passDue = true
}

// Flush runs any deferred scheduling passes immediately. Batched-mode
// drivers must call it after queueing an instant's submissions; other
// deferred wakes (Cancel, drain) arm their own flush event and need no
// help.
func (c *Controller) Flush() { c.flushScheduling() }

func (c *Controller) armFlush() {
	if c.flushArmed {
		return
	}
	c.flushArmed = true
	c.sim.AtAction(c.sim.Now(), &c.flushAct, 0)
}

// flushScheduling runs the deferred pass, if one is due.
func (c *Controller) flushScheduling() {
	c.flushArmed = false
	if c.passDue {
		c.passDue = false
		c.schedulePart(c.part)
	}
}

// Submit is sbatch: run the submit-plugin chain, validate, and queue.
// Array descriptions must go through SubmitArray.
func (c *Controller) Submit(desc JobDesc) (*Job, error) {
	c.descScratch = desc
	return c.submitTraced(&c.descScratch)
}

// SubmitDesc is Submit for hot pump loops: the description is read
// through the pointer and copied once into the controller's scratch
// slot instead of twice through the stack. The caller keeps ownership
// of *desc; it is never mutated or retained.
func (c *Controller) SubmitDesc(desc *JobDesc) (*Job, error) {
	c.descScratch = *desc
	return c.submitTraced(&c.descScratch)
}

// submitTraced wraps the submission in the root span of the decision
// trace: plugin spans nest under it and the assigned job id lands in
// its attributes, which is how `chronus trace <job>` finds the trace.
func (c *Controller) submitTraced(desc *JobDesc) (*Job, error) {
	ctx, span := c.tracer.Start(context.Background(), spanSubmit)
	job, err := c.submit(ctx, desc)
	if span != nil {
		if job != nil {
			span.SetAttr(trace.AttrJobID, strconv.Itoa(job.ID))
		}
		if desc.Name != "" {
			span.SetAttr("job_name", desc.Name)
		}
	}
	span.End(err)
	return job, err
}

func (c *Controller) submit(ctx context.Context, desc *JobDesc) (*Job, error) {
	if desc.IsArray() {
		return nil, fmt.Errorf("slurm: array description submitted directly; use SubmitArray")
	}
	c.mSubmitted.Inc()
	plugins, err := c.activePlugins()
	if err != nil {
		return nil, err
	}
	var pluginTime time.Duration
	for _, p := range plugins {
		lat, err := p.JobSubmit(ctx, desc, desc.UserID)
		pluginTime += lat
		if err != nil {
			c.mRejected.Inc()
			return nil, fmt.Errorf("slurm: plugin %s rejected job: %w", p.Name(), err)
		}
		if pluginTime > c.conf.PluginBudget {
			c.mRejected.Inc()
			c.mOverruns.Inc()
			return nil, fmt.Errorf("slurm: plugin %s exceeded the submit budget (%v > %v)",
				p.Name(), pluginTime, c.conf.PluginBudget)
		}
	}
	if len(plugins) > 0 {
		c.mChainLatency.ObserveDuration(pluginTime)
		if s := trace.FromContext(ctx); s != nil {
			s.SetAttr("plugin_sim_latency", pluginTime.String())
		}
	}

	if desc.NumTasks <= 0 {
		desc.NumTasks = 1
	}
	if desc.ThreadsPerCPU <= 0 {
		desc.ThreadsPerCPU = 1
	}
	if desc.TimeLimit <= 0 {
		desc.TimeLimit = c.conf.DefaultTimeLimit
	}
	// Partition handling: fill in the one partition, reject any other
	// name, cap the time limit to the partition's MaxTime.
	part := c.part
	if desc.Partition == "" {
		desc.Partition = part.name
	} else if desc.Partition != part.name {
		return nil, fmt.Errorf("slurm: invalid partition specified: %s", desc.Partition)
	}
	if part.conf.MaxTime > 0 && desc.TimeLimit > part.conf.MaxTime {
		desc.TimeLimit = part.conf.MaxTime
	}
	if err := part.fits(desc); err != nil {
		return nil, err
	}
	for _, dep := range desc.AfterOK {
		if _, ok := c.jobState(dep); !ok {
			return nil, fmt.Errorf("slurm: dependency on unknown job %d", dep)
		}
	}

	job := c.newJob()
	job.ID = c.nextID
	job.Desc = *desc
	job.State = StatePending
	job.Reason = "Priority"
	job.SubmitTime = c.sim.Now()
	job.submitTick = c.sim.NowTick()
	job.userSlot = c.slotFor(desc.UserID)
	if desc.Shape != nil {
		// Copy the shape into the job-owned buffer: the description's
		// pointer may be to a caller's stack scratch (the cluster
		// simulator reuses one per submission stream), and the job can
		// outlive it.
		job.shape = *desc.Shape
		job.Desc.Shape = &job.shape
	}
	c.nextID++
	idx := job.ID - 1
	ci, slot := idx>>jobChunkBits, idx&jobChunkMask
	if ci == len(c.jobs) {
		// Arena growth: one chunk per 8192 job ids, amortized to ~0 per submission.
		n := jobChunkSize
		if ci == 0 {
			n = firstChunkLen(len(part.nodes))
		}
		c.jobs = append(c.jobs, make([]*Job, n))
	} else if slot == len(c.jobs[ci]) {
		// Chunk 0 outgrown below jobChunkSize (later chunks are born
		// full, so slot never reaches their length): double it in place.
		grown := make([]*Job, 2*slot)
		copy(grown, c.jobs[ci])
		c.jobs[ci] = grown
	}
	c.jobs[ci][slot] = job
	part.pending = append(part.pending, job)
	c.kickSubmit()
	return job, nil
}

// SubmitScript parses an sbatch script and submits it. Array requests
// expand into independent tasks; the first task is returned, as
// sbatch prints one job id for the whole array.
func (c *Controller) SubmitScript(script string) (*Job, error) {
	desc, err := ParseBatchScript(script)
	if err != nil {
		return nil, err
	}
	if desc.IsArray() {
		tasks, err := c.SubmitArray(desc)
		if err != nil {
			return nil, err
		}
		return tasks[0], nil
	}
	return c.Submit(desc)
}

// SubmitArray expands an --array request into independent tasks
// (name_[index]) and submits each through the normal path — plugins
// included, as Slurm invokes job_submit per array task.
func (c *Controller) SubmitArray(desc JobDesc) ([]*Job, error) {
	if !desc.IsArray() {
		return nil, fmt.Errorf("slurm: SubmitArray on a non-array description")
	}
	if n := desc.ArrayHi - desc.ArrayLo + 1; n > 10000 {
		return nil, fmt.Errorf("slurm: array of %d tasks exceeds MaxArraySize", n)
	}
	base := desc.Name
	var tasks []*Job
	for idx := desc.ArrayLo; idx <= desc.ArrayHi; idx++ {
		task := desc
		task.ArrayLo, task.ArrayHi = 0, 0
		task.ArrayIndex = idx
		if base != "" {
			task.Name = fmt.Sprintf("%s_%d", base, idx)
		}
		job, err := c.Submit(task)
		if err != nil {
			return tasks, fmt.Errorf("slurm: array task %d: %w", idx, err)
		}
		tasks = append(tasks, job)
	}
	return tasks, nil
}

// WaitForAll advances simulated time until every listed job is
// terminal.
func (c *Controller) WaitForAll(ids []int) error {
	for _, id := range ids {
		if _, err := c.WaitFor(id); err != nil {
			return err
		}
	}
	return nil
}

// fits checks the request against the partition's node capability
// classes (one entry per distinct node shape, so the common
// homogeneous pool checks one).
func (p *partition) fits(desc *JobDesc) error {
	for i := range p.classes {
		spec := &p.classes[i]
		if desc.NumTasks <= spec.Cores &&
			desc.ThreadsPerCPU <= spec.ThreadsPerCore &&
			desc.MemoryMB <= spec.RAMGB*1024 {
			return nil
		}
	}
	return fmt.Errorf("slurm: no node can satisfy %d tasks × %d threads × %d MB",
		desc.NumTasks, desc.ThreadsPerCPU, desc.MemoryMB)
}

// unqueue removes a job from the pending window, keeping the order of
// the rest.
func (p *partition) unqueue(job *Job) {
	for i, q := range p.pending {
		if q == job {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			return
		}
	}
}

func nodeSatisfies(n *nodeD, desc *JobDesc) bool {
	return desc.NumTasks <= n.spec.Cores &&
		desc.ThreadsPerCPU <= n.spec.ThreadsPerCore &&
		desc.MemoryMB <= n.spec.RAMGB*1024
}

// schedulePart places the partition's pending jobs onto idle nodes in
// policy order.
func (c *Controller) schedulePart(p *partition) {
	if len(p.pending) == 0 {
		return
	}
	// What the policy can do this pass, asked once: holds — keep a
	// Deferrable job queued; pairs — start a job on a busy node (when it
	// cannot, no idle node means no start).
	var holds, pairs bool
	if c.pol != nil {
		holds, pairs = c.pol.holds(), c.pol.pairs()
	}
	if p.freeN == 0 && p.busy > 0 && !pairs {
		// Hot path at scale: every node busy, so nothing can start
		// before this partition's next job-end event, which reschedules
		// it. Tag fresh arrivals with the visible squeue reason and
		// skip the full pass.
		for i := len(p.pending) - 1; i >= 0 && p.pending[i].Reason == "Priority"; i-- {
			p.pending[i].Reason = "Resources"
		}
		p.queueGauge.Set(float64(len(p.pending)))
		return
	}
	now, tick := c.sim.Now(), c.sim.NowTick()
	_, span := c.tracer.Start(context.Background(), spanSchedule)
	if span != nil {
		span.SetAttr("partition", p.name)
		span.SetAttr("pending", strconv.Itoa(len(p.pending)))
		defer func() { span.End(nil) }()
	}
	if !p.fifo {
		p.orderKeyed(now, c.usageBy)
	}
	var pr pairing // place's verdict; written only when it pairs
	remaining := p.pending[:0]
	for i, job := range p.pending {
		if p.freeN == 0 && !pairs {
			// Every node claimed mid-pass: nothing below can start, so
			// keep the tail queued wholesale instead of probing each
			// job — the pass cost stays bounded by placements made, not
			// by backlog depth. Deferred dependency/begin-time handling
			// happens when the next node frees.
			rest := p.pending[i:]
			for k := len(rest) - 1; k >= 0 && rest[k].Reason == "Priority"; k-- {
				rest[k].Reason = "Resources"
			}
			if len(remaining) == 0 {
				// Everything ahead of i started: the tail is already in
				// place, so slide the window forward instead of copying
				// the whole backlog down — under a deep queue draining
				// one node at a time, that copy is the pass's entire
				// cost. (Appends reallocate compactly once the drifted
				// backing array's cap runs out.)
				p.pending = rest
				p.queueGauge.Set(float64(len(p.pending)))
				return
			}
			remaining = append(remaining, rest...)
			break
		}
		if len(job.Desc.AfterOK) > 0 {
			switch c.dependencyState(job) {
			case depFailed:
				job.State = StateCancelled
				job.Reason = "DependencyNeverSatisfied"
				job.EndTime = now
				c.finish(job)
				continue
			case depWaiting:
				job.Reason = "Dependency"
				remaining = append(remaining, job)
				continue
			}
		}
		if !job.Desc.BeginTime.IsZero() && job.Desc.BeginTime.After(now) {
			job.Reason = "BeginTime"
			c.armWake(p, job.Desc.BeginTime)
			remaining = append(remaining, job)
			continue
		}
		if holds && job.Desc.Deferrable {
			if wake, held := c.pol.hold(job, now, tick); held {
				c.armWake(p, wake)
				remaining = append(remaining, job)
				continue
			}
		}
		node := p.takeIdle(&job.Desc)
		if node == nil {
			if pairs && c.pol.place(p, job, now, &pr) {
				c.startSecondary(job, pr, now)
				continue
			}
			job.Reason = "Resources"
			remaining = append(remaining, job)
			continue
		}
		if c.pol != nil && !c.pol.fit(job, node) {
			c.refreeNode(node)
			remaining = append(remaining, job)
			continue
		}
		if err := c.start(job, node); err != nil {
			job.State = StateFailed
			job.Reason = err.Error()
			job.EndTime = now
			c.finish(job)
		}
	}
	p.pending = remaining
	p.queueGauge.Set(float64(len(p.pending)))
}

// claimNode books a started job onto the node.
func (c *Controller) claimNode(n *nodeD, job *Job) {
	n.current = job
	p := n.part
	p.busy++
	p.occGauge.Set(float64(p.busy) / float64(len(p.nodes)))
}

// releaseNode frees a node at job end or cancellation and relists it
// in its partition's free bitmap.
func (c *Controller) releaseNode(n *nodeD) {
	if n.current != nil {
		n.current.node = nil
	}
	n.current = nil
	n.hwJob = nil
	p := n.part
	p.busy--
	p.occGauge.Set(float64(p.busy) / float64(len(p.nodes)))
	c.refreeNode(n)
}

// refreeNode relists an idle node (claimed but never started, or just
// released) in its partition's free bitmap.
func (c *Controller) refreeNode(n *nodeD) {
	if n.drained || n.free || n.current != nil {
		return
	}
	listFree(n)
}

func (c *Controller) start(job *Job, node *nodeD) error {
	cfg := job.Desc.Config()
	var w Workload
	switch {
	case job.Desc.Shape != nil:
		// The pointer satisfies Workload (value receivers); using it
		// directly avoids boxing a Shape copy per start.
		w = job.Desc.Shape
	default:
		var ok bool
		if w, ok = c.workloads[job.Desc.BinaryPath]; !ok {
			w = c.fallback
		}
	}

	hwJob, err := node.hw.StartJob(cfg)
	if err != nil {
		c.refreeNode(node)
		return err
	}
	// Record the frequency the job actually runs at: a job without
	// --cpu-freq gets the governor's choice, resolved by slurmd.
	if job.Desc.MaxFreqKHz == 0 {
		job.Desc.MaxFreqKHz = hwJob.Config.FreqKHz
		job.Desc.MinFreqKHz = hwJob.Config.FreqKHz
	} else {
		// slurmd pins the userspace governor for --cpu-freq jobs, so
		// sysfs and telemetry reflect the pinned frequency.
		if err := node.pinFrequency(hwJob.Config.FreqKHz); err != nil {
			hwJob.End()
			c.refreeNode(node)
			return err
		}
	}
	duration, gflops := w.Plan(node.hw, hwJob.Config)
	now := c.sim.Now()

	// Deadline extension (§6.2.1): a job that cannot finish in time is
	// cancelled rather than run uselessly.
	if !job.Desc.Deadline.IsZero() && now.Add(duration).After(job.Desc.Deadline) {
		hwJob.End()
		node.unpinFrequency()
		c.refreeNode(node)
		job.State = StateCancelled
		job.Reason = "DeadlineUnsatisfiable"
		job.EndTime = now
		c.finish(job)
		return nil
	}

	c.claimNode(node, job)
	node.hwJob = hwJob
	if c.tracer != nil {
		c.tracer.Event(eventJobStart, map[string]string{
			trace.AttrJobID: strconv.Itoa(job.ID),
			"node":          node.name,
			"cores":         strconv.Itoa(hwJob.Config.Cores),
			"freq_khz":      strconv.Itoa(hwJob.Config.FreqKHz),
			"threads":       strconv.Itoa(hwJob.Config.ThreadsPerCore),
		})
	}

	job.sys0, job.cpu0 = node.hw.EnergyJ()
	c.run(job, node, now, hwJob.Config, duration, gflops)
	return nil
}

// startSecondary starts the job beside the running primary the policy
// placed it with. Nothing starts on the hardware — the hw stack models
// one job per node — so the secondary runs, and is billed, on the
// pairing's plan.
func (c *Controller) startSecondary(job *Job, pr pairing, now time.Time) {
	job.coSecondary = true
	job.estSysW, job.estCPUW = pr.sysW, pr.cpuW
	pr.node.coJob = job
	c.run(job, pr.node, now, pr.cfg, pr.dur, pr.gflops)
}

// run commits a job to its node — the tail start and startSecondary
// share: the plan is cut at the time limit, the record turns RUNNING,
// the policy is charged the draw of the configuration the job actually
// runs in, and the completion event is armed.
func (c *Controller) run(job *Job, n *nodeD, now time.Time, cfg perfmodel.Config, dur time.Duration, gflops float64) {
	job.timedOut = dur > job.Desc.TimeLimit
	if job.timedOut {
		dur = job.Desc.TimeLimit
	}
	job.State = StateRunning
	job.Reason = ""
	job.StartTime = now
	job.startTick = c.sim.NowTick()
	job.NodeName = n.name
	job.GFLOPS = gflops
	job.node = n
	if c.pol != nil {
		c.pol.charge(job, n, cfg)
	}
	c.sim.AfterAction(dur, &c.compAct, uint64(job.ID))
}

// vacate takes a running job off its node — the one path completion
// and cancellation share. A secondary beside its running primary
// clears its slot; a primary with a live secondary ends the hardware
// job and promotes the secondary to the node's occupant (it finishes on
// its estimates); a sole occupant, or a secondary promoted earlier
// (whose primary already took the hardware job with it), frees the node.
// The policy is told once the node is in its new state.
func (c *Controller) vacate(job *Job, n *nodeD) {
	if n.coJob == job {
		n.coJob = nil
		job.node = nil
	} else {
		if n.hwJob != nil {
			n.hwJob.End()
			n.unpinFrequency()
		}
		if n.coJob != nil {
			n.current, n.coJob, n.hwJob = n.coJob, nil, nil
			job.node = nil
		} else {
			c.releaseNode(n)
		}
	}
	if c.pol != nil {
		c.pol.release(job, n)
	}
}

// completeJob is the completion event for a running job, fired through
// the controller's pre-allocated Action. The event is uncancellable,
// so it re-validates: a job cancelled (and possibly retired or even
// recycled) meanwhile no longer matches a running arena entry and the
// stale event is dropped.
func (c *Controller) completeJob(id int) {
	job := c.jobByID(id)
	if job == nil || job.ID != id || job.State != StateRunning || job.node == nil {
		return // cancelled meanwhile
	}
	node := job.node
	c.vacate(job, node)
	if job.coSecondary {
		// The hardware ran only the primary: a secondary's energy is its
		// pairing's power estimate integrated over the runtime.
		secs := time.Duration(c.sim.NowTick() - job.startTick).Seconds()
		job.SystemJ = job.estSysW * secs
		job.CPUJ = job.estCPUW * secs
	} else {
		sys1, cpu1 := node.hw.EnergyJ()
		job.SystemJ = sys1 - job.sys0
		job.CPUJ = cpu1 - job.cpu0
	}
	job.EndTime = c.sim.Now()
	job.endTick = c.sim.NowTick()
	if job.timedOut {
		job.State = StateFailed
		job.Reason = "TimeLimit"
	} else {
		job.State = StateCompleted
	}
	c.finish(job)
	// Completion already runs inside the event loop, so schedule
	// directly instead of arming a same-instant flush event — one fewer
	// queue round-trip per job.
	c.schedulePart(c.part)
}

// slotFor returns the user's dense usage slot, assigning one on first
// sight.
func (c *Controller) slotFor(uid uint32) int32 {
	if s, ok := c.userSlots[uid]; ok {
		return s
	}
	s := int32(len(c.usageBy))
	c.userSlots[uid] = s
	c.usageBy = append(c.usageBy, 0)
	return s
}

func (c *Controller) finish(job *Job) {
	if !job.StartTime.IsZero() {
		delta := float64(job.Desc.NumTasks) * time.Duration(job.endTick-job.startTick).Seconds()
		c.usageBy[job.userSlot] += delta
		if c.usageSink != nil {
			c.usageSink(job.Desc.UserID, delta)
		}
	}
	switch job.State {
	case StateCompleted:
		c.mCompleted.Inc()
	case StateFailed:
		c.mFailed.Inc()
	case StateCancelled:
		c.mCancelled.Inc()
	}
	if job.State == StateCompleted {
		c.part.doneCount.Inc()
	}
	if job.SystemJ > 0 {
		c.part.energyGauge.Add(job.SystemJ / 1000)
	}
	if c.tracer != nil {
		attrs := map[string]string{
			trace.AttrJobID: strconv.Itoa(job.ID),
			"state":         string(job.State),
		}
		if job.Reason != "" {
			attrs["reason"] = job.Reason
		}
		if job.SystemJ > 0 {
			attrs["system_kj"] = fmt.Sprintf("%.3f", job.SystemJ/1000)
			attrs["cpu_kj"] = fmt.Sprintf("%.3f", job.CPUJ/1000)
		}
		c.tracer.Event(eventJobEnd, attrs)
	}
	c.acct.record(job)
	for _, fn := range c.onDone {
		fn(job)
	}
	if c.aggregate {
		c.retire(job)
	}
}

// retire drops a terminal job from the arena, keeping only its final
// state code for dependency resolution — the memory bound that lets a
// run absorb millions of submissions. The record itself goes back to
// the pool for the next submission: in aggregate mode nothing retains
// a job past its completion hooks.
func (c *Controller) retire(job *Job) {
	id := job.ID
	if id >= 1 && id < c.nextID {
		idx := id - 1
		c.jobs[idx>>jobChunkBits][idx&jobChunkMask] = nil
	}
	for len(c.retired) <= id {
		c.retired = append(c.retired, retiredNone)
	}
	c.retired[id] = retireCode(job.State)
	if job.node == nil {
		c.jobPool = append(c.jobPool, job)
	}
}

// jobState resolves a job's current state by id, consulting retired
// jobs as well as live ones.
func (c *Controller) jobState(id int) (JobState, bool) {
	if j := c.jobByID(id); j != nil {
		return j.State, true
	}
	if id > 0 && id < len(c.retired) && c.retired[id] != retiredNone {
		return retiredState(c.retired[id]), true
	}
	return "", false
}

// Cancel is scancel: terminate a pending or running job.
func (c *Controller) Cancel(id int) error {
	job := c.jobByID(id)
	if job == nil {
		return fmt.Errorf("slurm: no job %d", id)
	}
	if job.State.Terminal() {
		return fmt.Errorf("slurm: job %d already %s", id, job.State)
	}
	switch {
	case job.State == StateRunning && job.node != nil:
		c.vacate(job, job.node)
	case job.State == StatePending:
		// Out of the pending window before the record can be retired to
		// the pool and handed to the next submission, which would then be
		// queued twice. The window holds pending jobs only; a pass relies
		// on it.
		c.part.unqueue(job)
	}
	job.State = StateCancelled
	job.Reason = "Cancelled by user"
	job.EndTime = c.sim.Now()
	job.endTick = c.sim.NowTick()
	c.finish(job)
	// A node, a slot or power headroom may have opened up, or a
	// dependent may now never run.
	c.kick()
	return nil
}

// Job returns a job by id. Retired jobs (aggregate accounting) are
// not returned.
func (c *Controller) Job(id int) (*Job, bool) {
	j := c.jobByID(id)
	return j, j != nil
}

// Squeue lists pending and running jobs, pending first, by id.
func (c *Controller) Squeue() []*Job {
	var out []*Job
	for _, chunk := range c.jobs {
		for _, j := range chunk {
			if j != nil && !j.State.Terminal() {
				out = append(out, j)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].State != out[b].State {
			return out[a].State == StatePending
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Sinfo reports node states.
func (c *Controller) Sinfo() []NodeInfo {
	out := make([]NodeInfo, len(c.part.nodes))
	for i, n := range c.part.nodes {
		info := NodeInfo{Name: n.name, State: "idle", Cores: n.hw.Spec().Cores}
		switch {
		case n.current != nil && n.drained:
			info.State = "drng" // draining: finishing its job, accepting nothing
			info.JobID = n.current.ID
		case n.current != nil:
			info.State = "alloc"
			info.JobID = n.current.ID
		case n.drained:
			info.State = "drain"
		}
		out[i] = info
	}
	return out
}

// DrainNode marks a node unavailable for new jobs (the `scontrol
// update nodename=X state=drain` admin operation). A running job
// finishes; nothing new is placed.
func (c *Controller) DrainNode(name string) error {
	return c.setDrain(name, true)
}

// ResumeNode returns a drained node to service.
func (c *Controller) ResumeNode(name string) error {
	if err := c.setDrain(name, false); err != nil {
		return err
	}
	c.schedulePart(c.part)
	return nil
}

func (c *Controller) setDrain(name string, drained bool) error {
	for _, n := range c.part.nodes {
		if n.name != name {
			continue
		}
		n.drained = drained
		if drained {
			// Idle drained nodes leave the free pool; busy ones stay
			// claimed and simply never return to it while drained.
			if n.free {
				unlistFree(n)
			}
		} else {
			c.refreeNode(n)
		}
		c.pol.reindex(n)
		return nil
	}
	return fmt.Errorf("slurm: no node %q", name)
}

// WaitFor advances simulated time until the job is terminal. It fails
// if the simulation runs out of events first (a scheduling deadlock).
// In aggregate mode the returned record may be a synthesized snapshot
// (id + final state): the live record is recycled at retirement.
func (c *Controller) WaitFor(id int) (*Job, error) {
	if st, ok := c.jobState(id); ok && st.Terminal() {
		if j := c.jobByID(id); j != nil {
			return j, nil
		}
		return &Job{ID: id, State: st}, nil
	}
	job := c.jobByID(id)
	if job == nil {
		return nil, fmt.Errorf("slurm: no job %d", id)
	}
	// The record can be retired and recycled for a different job while
	// we step; guard on the identity, not just the state.
	for job.ID == id && !job.State.Terminal() {
		if !c.sim.Step() {
			return job, fmt.Errorf("slurm: job %d stuck in %s with no pending events", id, job.State)
		}
	}
	if job.ID != id {
		st, _ := c.jobState(id)
		return &Job{ID: id, State: st}, nil
	}
	return job, nil
}

// Srun submits a job and waits for it — the paper's interactive path.
func (c *Controller) Srun(desc JobDesc) (*Job, error) {
	job, err := c.Submit(desc)
	if err != nil {
		return nil, err
	}
	return c.WaitFor(job.ID)
}

// Nodes exposes the hardware for telemetry attachment.
func (c *Controller) Nodes() []*hw.Node {
	out := make([]*hw.Node, len(c.part.nodes))
	for i, n := range c.part.nodes {
		out[i] = n.hw
	}
	return out
}

// Dependency resolution states.
type depState int

const (
	depReady depState = iota
	depWaiting
	depFailed
)

// dependencyState inspects a job's afterok list.
func (c *Controller) dependencyState(job *Job) depState {
	state := depReady
	for _, dep := range job.Desc.AfterOK {
		st, ok := c.jobState(dep)
		if !ok {
			return depFailed
		}
		switch {
		case st == StateCompleted:
			// satisfied
		case st.Terminal():
			return depFailed
		default:
			state = depWaiting
		}
	}
	return state
}
