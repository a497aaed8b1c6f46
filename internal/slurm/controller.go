package slurm

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/metrics"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/trace"
	"ecosched/internal/workload"
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
	coJob *Job
	// spec caches hw.Spec() — read on every placement probe.
	spec hw.NodeSpec
	// sys0/cpu0 are the hardware's energy counters when current started
	// as a primary, the baseline bill charges it from. A secondary,
	// promoted or not, is billed by estimate and never reads them.
	sys0, cpu0 float64
	// deltas/idleDrawW are the node's power model, its placement deltas
	// tabulated, and its idle draw, set only when the cluster-policy
	// layer is active (energy.go).
	deltas    *deltaTable
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
	// jobPool recycles ended Job records in aggregate mode, where no
	// caller retains them past their completion.
	jobPool []*Job
	// descScratch is the submission description the plugin chain and
	// validation operate on. Submit copies its argument here so the
	// mutable description never escapes to the heap; submissions are
	// strictly sequential (plugins cannot submit), so one slot is safe.
	descScratch JobDesc
	nextID      int
	// workload0 is the first binary path RegisterWorkload maps, held
	// inline, and workloads, made for a second path, maps the others:
	// a sweep stack registers the one HPCG shape, and a map would cost
	// each stack a bucket.
	workload0 registeredWorkload
	workloads map[string]workload.Shape
	acct      *Accounting

	// The parse memo: the last script SubmitScript parsed and what
	// ParseBatchScript returned for it. The parse is a pure function of
	// the text, so an equal script (a pointer check when the caller
	// reuses the string) reuses the result; the memo is only ever copied
	// out, never handed to a plugin. Same one-submitter contract as
	// descScratch.
	lastScript   string
	lastParse    JobDesc
	lastParseErr error
	parsedOnce   bool

	// usageBy is the fair-share store: consumed CPU-seconds per user,
	// indexed by the dense slot userSlots assigns each user id at first
	// sight. Jobs carry their slot, so a scheduling pass reads usage
	// with a slice load per pending job instead of a map probe.
	userSlots map[uint32]int32
	usageBy   []float64
	// usageSink, when set, observes every fair-share usage increment
	// (WithUsageSink) — the hook the parallel partition lanes use to
	// replicate usage across lane controllers between windows.
	usageSink func(uid uint32, cpuSeconds float64)
	tracer    *trace.Tracer // nil = untraced
	// aggregate retires terminal jobs from memory (see
	// WithAggregateAccounting).
	aggregate bool

	// batched defers submission-triggered scheduling passes to the
	// driver's Flush (WithBatchedScheduling); passDue marks a pass
	// awaiting it.
	batched bool
	passDue bool

	// wakeAct runs a pass at an instant a queued job is waiting for
	// (armWake). A job's completion event is the job itself (completion).
	wakeAct wakeAction

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

// completion is a running job as the clock event that ends it: run
// arms it once, at the start, and it reaches the controller through
// the node the job runs on. It is the one way a job leaves its node,
// so it never goes stale.
type completion Job

func (j *completion) Fire(uint64) {
	job := (*Job)(j)
	job.node.part.ctl.completeJob(job)
}

// wakeAction runs a scheduling pass at the instant armWake asked for.
type wakeAction struct{ c *Controller }

func (a *wakeAction) Fire(uint64) {
	p := a.c.part
	// Wake events cannot be cancelled, so staleness is guarded here: a
	// duplicate superseded by a re-arm (different wakeAt) must be
	// dropped, not clear the armed flag — treating a stale fire as live
	// re-arms another wake per duplicate and the event population grows
	// geometrically at shared re-check instants.
	if !p.wakeArmed || a.c.sim.NowTick() != p.wakeAt {
		return
	}
	p.wakeArmed, p.woken = false, true
	a.c.schedulePart(p)
	p.woken = false
}

// armWake schedules a pass over the partition at the given future
// tick, unless one is already armed at or before it: the earliest wake
// wins, and the pass it runs re-arms for whatever still waits.
func (c *Controller) armWake(p *partition, at int64) {
	if p.wakeArmed && at >= p.wakeAt {
		return
	}
	p.wakeArmed = true
	p.wakeAt = at
	c.sim.AtTick(at, &c.wakeAct, 0)
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

// RegisterWorkload maps a binary path to the shape its jobs run. A job
// whose description carries a Shape runs that instead.
func (c *Controller) RegisterWorkload(binaryPath string, s workload.Shape) {
	switch {
	case !c.workload0.set || c.workload0.path == binaryPath:
		c.workload0 = registeredWorkload{path: binaryPath, shape: s, set: true}
	case c.workloads == nil:
		c.workloads = map[string]workload.Shape{binaryPath: s}
	default:
		c.workloads[binaryPath] = s
	}
}

// registeredWorkload is one binary path's shape (RegisterWorkload).
type registeredWorkload struct {
	path  string
	shape workload.Shape
	set   bool
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

// UserUsageCPUSeconds reports a user's accumulated CPU-seconds, the
// fair-share input.
func (c *Controller) UserUsageCPUSeconds(uid uint32) float64 {
	if s, ok := c.userSlots[uid]; ok {
		return c.usageBy[s]
	}
	return 0
}

// AddUsage credits fair-share usage that accrued outside this
// controller — the lanes' replication path. It deliberately does
// not invoke the usage sink: the delta originated from a sibling
// controller's sink and echoing it back would double-count.
func (c *Controller) AddUsage(uid uint32, cpuSeconds float64) {
	c.usageBy[c.slotFor(uid)] += cpuSeconds
}

// Accounting returns the slurmdbd record store.
func (c *Controller) Accounting() *Accounting { return c.acct }

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
// ended ones) or allocates a fresh one. The record comes back
// zeroed. On the paper path the pool stays empty: a submitter keeps
// the record Submit returned past the job's end, so a recycled one
// would alias two jobs.
func (c *Controller) newJob() *Job {
	if n := len(c.jobPool); n > 0 {
		j := c.jobPool[n-1]
		c.jobPool = c.jobPool[:n-1]
		*j = Job{}
		return j
	}
	return &Job{}
}

// liveJob finds a pending or running job by id where the controller
// holds it: in the partition's queue, or on a node as its occupant or
// co-scheduled secondary. nil for an unknown or ended id.
func (c *Controller) liveJob(id int) *Job {
	for _, j := range c.part.pending {
		if j.ID == id {
			return j
		}
	}
	for _, n := range c.part.nodes {
		if n.current != nil && n.current.ID == id {
			return n.current
		}
		if n.coJob != nil && n.coJob.ID == id {
			return n.coJob
		}
	}
	return nil
}

// kickSubmit requests a pass after a submission. In batched mode the
// pass is only marked due: the submitting driver calls Flush once the
// instant's submissions are all queued, which costs one pass and zero
// queue events per instant.
func (c *Controller) kickSubmit() {
	if !c.batched {
		c.schedulePart(c.part)
		return
	}
	c.passDue = true
}

// Flush runs the deferred scheduling pass, if one is due. Batched-mode
// drivers must call it after queueing an instant's submissions.
func (c *Controller) Flush() {
	if c.passDue {
		c.passDue = false
		c.schedulePart(c.part)
	}
}

// Submit is sbatch: run the submit-plugin chain, validate, and queue.
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
	if err := c.pol.fitsBudget(part, desc); err != nil {
		return nil, err
	}

	job := c.newJob()
	job.ID = c.nextID
	job.Desc = *desc
	job.State = StatePending
	job.Reason = "Priority"
	job.SubmitTime = simclock.Tick(c.sim.NowTick())
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
	part.enqueue(job)
	c.kickSubmit()
	return job, nil
}

// enqueue appends a job to the pending queue. When the window has
// drifted to the end of its backing array, the live jobs move back to
// the array's start while they fill at most two thirds of it, and to a
// new array twice their length otherwise; the slots past them are
// cleared, so the array holds no job that left the queue. Under a deep
// backlog draining a node at a time the array is sized once, where
// append would copy the whole backlog each time the drift reached its
// end.
func (p *partition) enqueue(job *Job) {
	if n := len(p.pending); n == cap(p.pending) {
		if q := p.queue; len(q) > 0 && 3*n <= 2*len(q) {
			copy(q, p.pending)
			clear(q[n:])
			p.pending = q[:n]
		} else {
			p.queue = make([]*Job, max(2*n, 1))
			p.pending = p.queue[:copy(p.queue, p.pending)]
		}
	}
	p.pending = append(p.pending, job)
}

// SubmitScript parses an sbatch script and submits it. A script equal
// to the last one submitted is not parsed again: its description (or
// its error) is reused.
func (c *Controller) SubmitScript(script string) (*Job, error) {
	if !c.parsedOnce || script != c.lastScript {
		c.lastParse, c.lastParseErr = ParseBatchScript(script)
		c.lastScript, c.parsedOnce = script, true
	}
	if c.lastParseErr != nil {
		return nil, c.lastParseErr
	}
	// Plugins rewrite the description and the job keeps it: they work on
	// a copy, never on the memo.
	c.descScratch = c.lastParse
	return c.submitTraced(&c.descScratch)
}

// fits checks the request against the partition's node capability
// classes (one entry per distinct node shape, so the common
// homogeneous pool checks one).
func (p *partition) fits(desc *JobDesc) error {
	for _, n := range p.classes {
		if nodeSatisfies(n, desc) {
			return nil
		}
	}
	return fmt.Errorf("slurm: no node can satisfy %d tasks × %d threads",
		desc.NumTasks, desc.ThreadsPerCPU)
}

func nodeSatisfies(n *nodeD, desc *JobDesc) bool {
	return desc.NumTasks <= n.spec.Cores && desc.ThreadsPerCPU <= n.spec.ThreadsPerCore
}

// schedulePart places the partition's pending jobs onto idle nodes in
// queue order (FIFO or multifactor).
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
	tick := c.sim.NowTick()
	_, span := c.tracer.Start(context.Background(), spanSchedule)
	if span != nil {
		span.SetAttr("partition", p.name)
		span.SetAttr("pending", strconv.Itoa(len(p.pending)))
		defer func() { span.End(nil) }()
	}
	if p.multifactor {
		p.orderKeyed(tick, c.usageBy)
	}
	// The settled prefix (DESIGN §7): on a FIFO partition under a policy
	// that pairs, the jobs the last pass left queued are its settled
	// record, each with the kind of verdict that kept it. While hold
	// would answer them as it did, a pass goes over the record by kind: it
	// skips each job whose verdict the live state repeats (skipMask) and
	// asks the rest, reading the record's dense kinds, never a job it
	// skips. It starts at the first job it must ask, the ones ahead of it
	// staying where they are — past the whole record when every verdict
	// stands.
	settles := pairs && !p.multifactor
	s := &p.settled
	from, through := 0, 0 // keep pending[:from] unasked; pending[from:through] by kind
	var skip uint8
	epoch := p.epoch // the epoch the pass begins at, which settle records
	if settles && s.n > 0 && c.pol.settledStands(p, tick) {
		skip, through = c.pol.skipMask(p), s.n
		from = s.byKind(skip)
	}
	if settles && len(s.kind) < len(p.pending) {
		s.grow(len(p.pending))
	}
	release := int64(math.MaxInt64)
	var kinds [verdictKinds]int // the kept jobs per verdict kind
	if settles {
		c.pol.minCapW = math.Inf(1)
	}
	var pr pairing // place's verdict; written only when it pairs
	remaining, queued := p.pending[:from], len(p.pending)
	for i := from; i < queued; i++ {
		if i < through {
			if skip>>s.kind[i]&1 != 0 {
				// The verdicts stand up to the next job of a kind skip
				// lacks: keep the run unasked.
				j := s.nextAsked(i+1, through, skip)
				remaining = s.keepRun(p.pending, remaining, i, j)
				i = j - 1
				continue
			}
			s.asked[s.kind[i]]++
		}
		job := p.pending[i]
		if p.freeN == 0 && !pairs {
			// Every node claimed mid-pass: nothing below can start, so
			// keep the tail queued wholesale instead of probing each
			// job — the pass cost stays bounded by placements made, not
			// by backlog depth.
			rest := p.pending[i:]
			for k := len(rest) - 1; k >= 0 && rest[k].Reason == "Priority"; k-- {
				rest[k].Reason = "Resources"
			}
			queued = i // the jobs looked at; the tail is kept unseen
			if len(remaining) == 0 {
				// Everything ahead of i started: the tail is already in
				// place, so slide the window forward instead of copying
				// the whole backlog down — under a deep queue draining
				// one node at a time, that copy is the pass's entire
				// cost. (Submit's enqueue compacts the queue in place
				// once the window drifts to its backing array's end.)
				p.pending = rest
				p.queueGauge.Set(float64(len(p.pending)))
				c.countVisits(int64(queued))
				return
			}
			remaining = append(remaining, rest...)
			break
		}
		if holds && job.Desc.Deferrable {
			if wake, held := c.pol.hold(job, tick); held {
				c.armWake(p, wake)
				release = min(release, job.releaseTick)
				if settles {
					kinds[keptHeld]++
					s.kind[len(remaining)] = byte(keptHeld)
				}
				remaining = append(remaining, job)
				continue
			}
		}
		node := p.takeIdle(&job.Desc)
		var kept verdict
		left := true // the job started, or failed to
		switch {
		case node != nil && (c.pol == nil || c.pol.fit(job, node)):
			if err := c.start(job, node); err != nil {
				job.State = StateFailed
				job.Reason = err.Error()
				job.EndTime = simclock.Tick(tick)
				c.finish(job)
			}
		case node != nil:
			c.refreeNode(node)
			kept, left = keptFit, false
		case pairs && c.pol.place(p, job, tick, &pr):
			c.startSecondary(job, pr, tick)
		default:
			job.Reason = "Resources"
			left = false
			if settles {
				kept = refusedKind(job)
			}
		}
		if left {
			if i+1 < through {
				skip = c.pol.skipMask(p)
			}
			continue
		}
		// Kept on fit's or place's refusal.
		if holds && job.Desc.Deferrable && job.releaseTick > tick {
			release = min(release, job.releaseTick)
		}
		if settles {
			kinds[kept]++
			s.kind[len(remaining)] = byte(kept)
		}
		remaining = append(remaining, job)
	}
	p.pending = remaining
	p.queueGauge.Set(float64(len(p.pending)))
	visits := int64(queued)
	if through > 0 {
		// Every record job not asked was skipped under its recorded kind.
		// A skipped fit refusal is one fit would count as a denial.
		for m := s.present; m != 0; m &= m - 1 {
			k := bits.TrailingZeros8(m)
			n := s.kinds[k] - s.asked[k]
			visits -= int64(n)
			kinds[k] += n
		}
		if n := s.kinds[keptFit] - s.asked[keptFit]; n > 0 {
			c.pol.countDenials(n)
		}
		if s.kinds[keptCompute]+s.kinds[keptMemory] > s.asked[keptCompute]+s.asked[keptMemory] && s.minCapW < c.pol.minCapW {
			c.pol.minCapW = s.minCapW
		}
		// Every record job still kept has its release tick, if past
		// now, at or past the record's bound: the bound may come early
		// once its holders leave, never late.
		release = min(release, s.release)
	}
	c.countVisits(visits)
	if settles {
		c.pol.settle(p, len(remaining), kinds, release, epoch)
	}
}

// countVisits adds the queued jobs a pass looked at to the policy's
// work counters.
func (c *Controller) countVisits(n int64) {
	if c.pol != nil {
		c.pol.totals.QueueVisits += n
	}
}

// claimNode books a started job onto the node.
func (c *Controller) claimNode(n *nodeD, job *Job) {
	n.current = job
	p := n.part
	p.busy++
	p.occGauge.Set(float64(p.busy) / float64(len(p.nodes)))
}

// releaseNode frees a node at job end and relists it in its
// partition's free bitmap.
func (c *Controller) releaseNode(n *nodeD) {
	n.current = nil
	n.hwJob = nil
	p := n.part
	p.busy--
	p.occGauge.Set(float64(p.busy) / float64(len(p.nodes)))
	c.refreeNode(n)
}

// refreeNode lists an idle node in its partition's free bitmap: each
// node once at construction, and each node takeIdle claimed once when
// it is handed back — never started, or just released — so the bitmap
// and freeN hold exactly the unclaimed nodes.
func (c *Controller) refreeNode(n *nodeD) {
	n.part.freeBits[n.idx>>6] |= 1 << uint(n.idx&63)
	n.part.freeN++
}

func (c *Controller) start(job *Job, node *nodeD) error {
	cfg := job.Desc.Config()
	w := job.Desc.Shape
	if w == nil {
		w = &unknownWorkload
		if c.workload0.set && c.workload0.path == job.Desc.BinaryPath {
			w = &c.workload0.shape
		} else if s, ok := c.workloads[job.Desc.BinaryPath]; ok {
			w = &s
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
	now := c.sim.NowTick()

	// Deadline extension (§6.2.1): a job that cannot finish in time is
	// cancelled rather than run uselessly.
	if !job.Desc.Deadline.IsZero() && endsAfter(now, duration, job.Desc.Deadline) {
		hwJob.End()
		node.unpinFrequency()
		c.refreeNode(node)
		job.State = StateCancelled
		job.Reason = "DeadlineUnsatisfiable"
		job.EndTime = simclock.Tick(now)
		c.finish(job)
		return nil
	}
	// A run the clock cannot end fails the job, degraded but accounted.
	if job.endsPastClock(now, duration) {
		hwJob.End()
		node.unpinFrequency()
		c.refreeNode(node)
		return fmt.Errorf("slurm: job would end past the simulated clock's last instant, %s",
			simclock.Tick(math.MaxInt64).Time().Format(time.RFC3339Nano))
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

	node.sys0, node.cpu0 = node.hw.EnergyJ()
	c.run(job, node, now, hwJob.Config, duration, gflops)
	return nil
}

// startSecondary starts the job beside the running primary the policy
// placed it with. Nothing starts on the hardware — the hw stack models
// one job per node — so the secondary runs, and is billed, on the
// pairing's plan.
func (c *Controller) startSecondary(job *Job, pr pairing, now int64) {
	job.coSecondary = true
	job.estSysW, job.estCPUW = pr.sysW, pr.cpuW
	pr.node.coJob = job
	c.run(job, pr.node, now, pr.cfg, pr.dur, pr.gflops)
}

// run commits a job to its node — the tail start and startSecondary
// share: the plan is cut at the time limit, the record turns RUNNING,
// the policy is charged the draw of the configuration the job actually
// runs in, and the completion event is armed.
func (c *Controller) run(job *Job, n *nodeD, now int64, cfg perfmodel.Config, dur time.Duration, gflops float64) {
	job.timedOut = dur > job.Desc.TimeLimit
	if job.timedOut {
		dur = job.Desc.TimeLimit
	}
	job.State = StateRunning
	job.Reason = ""
	job.StartTime = simclock.Tick(now)
	job.NodeName = n.name
	job.GFLOPS = gflops
	job.node = n
	if c.pol != nil {
		c.pol.charge(job, n, cfg)
	}
	c.sim.AfterAction(dur, (*completion)(job), 0)
}

// vacate takes a completed job off its node. A secondary beside its
// running primary clears its slot; a primary with a live secondary
// ends the hardware job and promotes the secondary to the node's
// occupant (it finishes on its estimates); a sole occupant, or a
// secondary promoted earlier (whose primary already took the hardware
// job with it), frees the node. The policy is told once the node is in
// its new state, and the job is billed.
func (c *Controller) vacate(job *Job, n *nodeD) {
	job.node = nil
	if n.coJob == job {
		n.coJob = nil
	} else {
		if n.hwJob != nil {
			n.hwJob.End()
			n.unpinFrequency()
		}
		if n.coJob != nil {
			n.current, n.coJob, n.hwJob = n.coJob, nil, nil
		} else {
			c.releaseNode(n)
		}
	}
	if c.pol != nil {
		c.pol.release(job, n)
	}
	c.bill(job, n)
}

// bill sets the energy of a job leaving its node now: a primary's is
// the node's measured energy since its start; a co-scheduled
// secondary's — the hardware ran only the primary — is its pairing's
// power estimate integrated over its runtime.
func (c *Controller) bill(job *Job, n *nodeD) {
	if job.coSecondary {
		secs := time.Duration(c.sim.NowTick() - int64(job.StartTime)).Seconds()
		job.SystemJ = job.estSysW * secs
		job.CPUJ = job.estCPUW * secs
		return
	}
	sys1, cpu1 := n.hw.EnergyJ()
	job.SystemJ = sys1 - n.sys0
	job.CPUJ = cpu1 - n.cpu0
}

// completeJob ends a running job at its completion event.
func (c *Controller) completeJob(job *Job) {
	c.vacate(job, job.node)
	job.EndTime = simclock.Tick(c.sim.NowTick())
	if job.timedOut {
		job.State = StateFailed
		job.Reason = "TimeLimit"
	} else {
		job.State = StateCompleted
	}
	c.finish(job)
	// Completion already runs inside the event loop, so schedule
	// directly.
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
		delta := float64(job.Desc.NumTasks) * time.Duration(job.EndTime-job.StartTime).Seconds()
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
	// An ended job's history is its accounting row and the record its
	// submitter holds. In aggregate mode nothing retains a job past its
	// completion, so the record goes back to the pool.
	if c.aggregate {
		c.jobPool = append(c.jobPool, job)
	}
}

// Job returns a pending or running job by id (scontrol show job); a
// job that has ended is found in Accounting.
func (c *Controller) Job(id int) (*Job, bool) {
	j := c.liveJob(id)
	return j, j != nil
}

// Squeue lists the pending and running jobs, pending first, by id;
// ended jobs are in Accounting.
func (c *Controller) Squeue() []*Job {
	out := append([]*Job(nil), c.part.pending...)
	for _, n := range c.part.nodes {
		if n.current != nil {
			out = append(out, n.current)
		}
		if n.coJob != nil {
			out = append(out, n.coJob)
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
		if n.current != nil {
			info.State = "alloc"
			info.JobID = n.current.ID
		}
		out[i] = info
	}
	return out
}

// WaitFor advances simulated time until the job is terminal and
// returns its record. It fails if the simulation runs out of events
// first (a scheduling deadlock), and on an id that names no pending or
// running job: unknown, or a job that has already ended (read its
// accounting row). It finds the job by walking the queue and the
// nodes (liveJob): a few loads on the one-node controllers that wait
// on their jobs one at a time.
func (c *Controller) WaitFor(id int) (*Job, error) {
	job := c.liveJob(id)
	if job == nil {
		if id >= 1 && id < c.nextID {
			return nil, fmt.Errorf("slurm: job %d has already ended", id)
		}
		return nil, fmt.Errorf("slurm: no job %d", id)
	}
	// In aggregate mode the record can be retired and recycled for a
	// different job while we step; guard on the identity, not just the
	// state.
	for job.ID == id && !job.State.Terminal() {
		if !c.sim.Step() {
			return job, fmt.Errorf("slurm: job %d stuck in %s with no pending events", id, job.State)
		}
	}
	if job.ID != id {
		return nil, fmt.Errorf("slurm: job %d retired", id)
	}
	return job, nil
}

// Nodes exposes the hardware for telemetry attachment.
func (c *Controller) Nodes() []*hw.Node {
	out := make([]*hw.Node, len(c.part.nodes))
	for i, n := range c.part.nodes {
		out[i] = n.hw
	}
	return out
}
