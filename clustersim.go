// Cluster-scale simulation: drive a generated or replayed submission
// stream through a multi-partition cluster under one shared simulated
// clock. This is the scale surface of the simulator — thousands of
// hw.Node stacks, per-partition queues and policies, millions of
// submissions — while staying fully deterministic: a (spec, seed) pair
// or a recorded submission log reproduces the run byte for byte.
package ecosched

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecosched/internal/energymarket"
	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/workload"
)

// ClusterReport is the accounting outcome of a cluster-scale run. Two
// runs are equivalent iff their reports are equal — the regression
// tests compare reports (and their rendered text) byte for byte.
type ClusterReport struct {
	Spec        string
	Seed        uint64
	Nodes       int
	Submissions int
	// Rejected counts submissions the controller refused (unknown
	// partition, unsatisfiable request); they appear in no other total.
	Rejected int
	Totals   slurm.AcctTotals
	// Makespan is simulated time from the run's start until the last
	// event — the final job completion — drained.
	Makespan time.Duration
	// ClusterSystemKJ and ClusterCPUKJ integrate every node's energy
	// counters over the whole run, idle time included (job-attributed
	// energy lives in Totals).
	ClusterSystemKJ float64
	ClusterCPUKJ    float64
	Partitions      []PartitionReport
	// Policy holds the energy-policy outcome; nil when the run had no
	// policy block, so policy-free reports render byte-identically to
	// earlier versions.
	Policy *PolicyReport
}

// PolicyReport aggregates the cluster energy policies' effect and the
// per-policy fitness used to compare policy sets on one workload.
type PolicyReport struct {
	// Policies is the stable policy-set label (workload.PolicySpec.Label).
	Policies string
	// The policies' decision and work counters, summed over all
	// partitions. CapViolations is always zero unless the enforcement
	// logic is broken; the work counters are not rendered: WriteText
	// prints outcomes.
	slurm.PolicyTotals
	// DeadlineMisses counts jobs cancelled DeadlineUnsatisfiable.
	DeadlineMisses int64
	// Fitness: job-attributed energy, makespan, mean wait, and a single
	// comparable score (lower is better) that charges energy, stretches
	// with waiting, and is heavily penalised by violations and misses.
	EnergyKJ  float64
	MakespanS float64
	MeanWaitS float64
	Score     float64
}

// PartitionReport aggregates one partition's traffic, in spec order.
type PartitionReport struct {
	Name      string
	Nodes     int
	Submitted int
	Completed int
	Failed    int
	Cancelled int
	// SystemKJ is the job-attributed system energy of this partition's
	// terminal jobs.
	SystemKJ float64
	// PeakQueueDepth is the largest pending-queue length observed at a
	// submission instant.
	PeakQueueDepth int
	// CapW/PeakDrawW are the partition's power budget and observed peak
	// draw in watts (zero when the run had no power policy).
	CapW      float64
	PeakDrawW float64
}

// WriteText renders the report in a stable layout: identical runs
// produce identical bytes.
func (r *ClusterReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "spec        %s (seed %d)\n", r.Spec, r.Seed)
	fmt.Fprintf(w, "cluster     %d nodes, %d partitions\n", r.Nodes, len(r.Partitions))
	fmt.Fprintf(w, "submissions %d (%d rejected)\n", r.Submissions, r.Rejected)
	fmt.Fprintf(w, "jobs        %d completed, %d failed, %d cancelled\n",
		r.Totals.Completed, r.Totals.Failed, r.Totals.Cancelled)
	fmt.Fprintf(w, "makespan    %s\n", r.Makespan)
	fmt.Fprintf(w, "wait        %.3f s mean\n", r.meanWaitSeconds())
	fmt.Fprintf(w, "job energy  %.3f kJ system, %.3f kJ cpu\n", r.Totals.SystemKJ, r.Totals.CPUKJ)
	fmt.Fprintf(w, "run energy  %.3f kJ system, %.3f kJ cpu (idle included)\n",
		r.ClusterSystemKJ, r.ClusterCPUKJ)
	for _, p := range r.Partitions {
		fmt.Fprintf(w, "partition   %-12s %5d nodes  %8d submitted  %8d completed  %6d failed  %6d cancelled  peak queue %6d  %.3f kJ\n",
			p.Name, p.Nodes, p.Submitted, p.Completed, p.Failed, p.Cancelled, p.PeakQueueDepth, p.SystemKJ)
	}
	if pl := r.Policy; pl != nil {
		fmt.Fprintf(w, "policies    %s\n", pl.Policies)
		fmt.Fprintf(w, "policy      %d cap denials, %d freq-capped, %d deferred (%d forced), %d co-scheduled\n",
			pl.CapDenials, pl.FreqCapped, pl.DeferredJobs, pl.ForcedDispatches, pl.CoScheduled)
		for _, p := range r.Partitions {
			fmt.Fprintf(w, "power       %-12s cap %10.1f W  peak draw %10.1f W\n", p.Name, p.CapW, p.PeakDrawW)
		}
		fmt.Fprintf(w, "fitness     %.3f kJ  %.1f s makespan  %.3f s wait  %d violations  %d deadline misses  score %.3f\n",
			pl.EnergyKJ, pl.MakespanS, pl.MeanWaitS, pl.CapViolations, pl.DeadlineMisses, pl.Score)
	}
}

func (r *ClusterReport) meanWaitSeconds() float64 {
	started := r.Totals.Completed + r.Totals.Failed
	if started == 0 {
		return 0
	}
	return r.Totals.WaitSeconds / float64(started)
}

// RunOption configures a cluster run (RunClusterSpec /
// ReplayClusterLog).
type RunOption func(*runConfig)

type runConfig struct {
	lanes  int
	clock  func() time.Time
	timing *PipelineTiming
}

// WithLanes bounds how many partition lanes run a window at once. Every
// partition has a lane goroutine for the whole run; n caps how many of
// them are inside a window at the same instant (a lane waiting for its
// next window or for a sibling's usage holds no share of n). Zero or
// less (the default) means GOMAXPROCS; 1 runs one lane's window at a
// time, with the source still read ahead on its own goroutine. The
// report and any recorded log are byte-identical at every setting: a
// lane touches only lane-local state and the usage its siblings hand
// it, so n changes wall-clock time, never results.
func WithLanes(n int) RunOption {
	return func(cfg *runConfig) { cfg.lanes = n }
}

// WithTiming fills *into, once the run returns, with where its wall
// clock went, stage by stage (PipelineTiming), reading clock a few times
// per lane per window. Without it the run reads no clock. Timing changes
// neither the report nor any recorded log.
func WithTiming(clock func() time.Time, into *PipelineTiming) RunOption {
	return func(cfg *runConfig) { cfg.clock, cfg.timing = clock, into }
}

// PipelineTiming splits a cluster run's wall clock by pipeline stage:
// the router and one lane per partition.
type PipelineTiming struct {
	Router StageTiming
	Lanes  []StageTiming // in partition-config order
}

// StageTiming splits one stage's goroutine's lifetime, from its first
// clock read to its last. Each read closes the interval since the one
// before and charges it to one part, so Busy + WaitWindow + WaitUsage =
// Lifetime exactly.
type StageTiming struct {
	Name     string // "router", or the lane's partition
	Lifetime time.Duration
	// Busy is the router pulling, recording and routing arrivals, or a
	// lane running its windows.
	Busy time.Duration
	// WaitWindow is the router waiting for a lane to hand back a window,
	// or a lane waiting for the router's next window (and, under
	// WithLanes below the lane count, for a slot to run it in).
	WaitWindow time.Duration
	// WaitUsage is a lane waiting on the usage exchange: for its
	// siblings' usage of the window before, or for room to publish its
	// own. Always zero for the router.
	WaitUsage time.Duration
}

// WriteText renders the timing as one row per stage.
func (t *PipelineTiming) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-12s %9s %17s %17s %17s\n", "stage", "lifetime", "busy", "wait window", "wait usage")
	for _, st := range append([]StageTiming{t.Router}, t.Lanes...) {
		fmt.Fprintf(w, "%-12s %8.3fs", st.Name, st.Lifetime.Seconds())
		for _, part := range []time.Duration{st.Busy, st.WaitWindow, st.WaitUsage} {
			share := 0.0
			if st.Lifetime > 0 {
				share = 100 * float64(part) / float64(st.Lifetime)
			}
			fmt.Fprintf(w, " %8.3fs (%5.1f%%)", part.Seconds(), share)
		}
		fmt.Fprintln(w)
	}
}

// stopwatch times one stage: lap reads the clock and charges the
// interval since the previous read to one part of the StageTiming. With
// no clock it reads nothing.
type stopwatch struct {
	clock       func() time.Time
	first, last time.Time
	StageTiming
}

func (sw *stopwatch) start() {
	if sw.clock != nil {
		sw.first = sw.clock()
		sw.last = sw.first
	}
}

func (sw *stopwatch) lap(part *time.Duration) {
	if sw.clock == nil {
		return
	}
	now := sw.clock()
	*part += now.Sub(sw.last)
	sw.last = now
	sw.Lifetime = now.Sub(sw.first)
}

// RunClusterSpec generates the spec's submission stream and runs it to
// completion. When record is non-nil, every generated submission is
// written to it as a versioned JSONL log replayable with
// ReplayClusterLog; the log embeds the spec, so it is self-contained.
// record is written from another goroutine while the call runs and is
// never touched after it returns, on any exit.
func RunClusterSpec(spec workload.Spec, record io.Writer, opts ...RunOption) (*ClusterReport, error) {
	start := simclock.Epoch
	gen, err := workload.NewGenerator(spec, start)
	if err != nil {
		return nil, err
	}
	var lw *workload.LogWriter
	if record != nil {
		if lw, err = workload.NewLogWriter(record, spec, start); err != nil {
			return nil, err
		}
	}
	return runCluster(start, spec, gen, lw, opts)
}

// ReplayClusterLog replays a recorded submission log through a cluster
// rebuilt from the spec embedded in the log header. A replay is
// byte-equivalent to the run that recorded the log: same placement,
// same accounting totals, same energy. r is read from another goroutine
// while the call runs and is never touched after it returns, on any
// exit.
func ReplayClusterLog(r io.Reader, opts ...RunOption) (*ClusterReport, error) {
	lr, err := workload.NewLogReader(r)
	if err != nil {
		return nil, err
	}
	return runCluster(lr.Start(), lr.Spec(), lr, nil, opts)
}

// clusterSeedStride decorrelates per-node noise seeds derived from the
// spec seed (the same odd-constant mixing the benchmark pool uses).
const clusterSeedStride = 0x9e3779b9

// deferralSignal builds the lane-local deferral signal for the spec's
// policy block. Each lane gets its own market instance seeded from the
// spec seed — the market is a pure function of (seed, t), so every lane
// observes identical values without sharing state across goroutines.
func deferralSignal(seed uint64, d *workload.DeferralSpec) slurm.DeferralSignal {
	m := energymarket.New(seed)
	if d.Signal == workload.SignalCarbon {
		return m.CarbonIntensity
	}
	return m.Price
}

// Defaults of a spec's policy block: sharing a node costs a
// co-scheduled secondary ~25% even for complementary profiles, and a
// held job re-reads the deferral signal every quarter hour.
const (
	defaultInterferencePenalty = 1.25
	defaultDeferCheck          = 15 * time.Minute
)

// lanePolicies resolves the spec's policy block for one
// single-partition lane, and is the one place a cluster budget is
// split and the block's defaults are filled in: the cluster-wide cap is
// prorated by the GLOBAL node count — the lane sees only its own
// partition, and handing each lane the full cluster budget would
// multiply the cap by the lane count — and an explicit per-partition
// entry lowers the share, never raises it. A partition left with no
// budget is uncapped.
func lanePolicies(pol *workload.PolicySpec, ps workload.PartitionSpec, totalNodes int, seed uint64) slurm.EnergyPolicy {
	ep := slurm.EnergyPolicy{FreqCap: pol.CapMode == "freqcap"}
	if pol.PowerCapW > 0 && totalNodes > 0 {
		ep.CapW = pol.PowerCapW * float64(ps.Nodes) / float64(totalNodes)
	}
	for _, e := range pol.PartitionCapsW {
		if e.Name == ps.Name && (ep.CapW == 0 || e.CapW < ep.CapW) {
			ep.CapW = e.CapW
		}
	}
	if pol.CoSchedule {
		ep.Penalty = cmp.Or(pol.InterferencePenalty, defaultInterferencePenalty)
	}
	if d := pol.Deferral; d != nil {
		ep.Signal = deferralSignal(seed, d)
		ep.Threshold, ep.MaxDefer = d.Threshold, d.MaxDefer.Std()
		ep.Check = cmp.Or(d.Check.Std(), defaultDeferCheck)
	}
	return ep
}

// laneWindow is the conservative lookahead of the parallel partition
// lanes: within one window, every lane advances independently; between
// windows, cross-lane state (fair-share usage) is handed on. The value
// is a fixed property of the run semantics — it must never depend on
// the lane count, or results would too.
const laneWindow = 5 * time.Minute

// windowsInFlight is how many routedWindows a run owns: the router
// fills one while the lanes, each at its own pace, drain the others.
// With two, lanes freed from each other wait on the router instead;
// more shorten a run but keep more arrivals resident, and DESIGN §9's
// table of 3, 6 and 12 shows the bytes rising faster than the time
// falls.
const windowsInFlight = 3

// usageRing is how many windows of one lane's usage deltas the exchange
// holds. One more than windowsInFlight, so while the source lasts no
// lane ever waits for a reader to make room; past its end it bounds how
// far a lane runs ahead of the slowest lane that reads its usage.
const usageRing = windowsInFlight + 1

// usageDelta is one fair-share usage increment a lane hands to the
// sibling lanes that read usage.
type usageDelta struct {
	uid  uint32
	cpuS float64
}

// subChunkLen sizes a chunk to a Go size class: 22 Submissions of 184
// bytes are 4,048 of the class's 4,096, the most that fit. (33 would take
// 6,072 of the 6,144-byte class, but a window's nearly empty batches
// would each hold a chunk half as large again.)
const subChunkLen = 22

type subChunk = [subChunkLen]workload.Submission

// chunkPool is the run's one free list of submission chunks: the router
// takes them as it fills windows and each lane returns a window's
// chunks once it has run it, so the chunks a run allocates follow the
// submissions in flight, not windows × the largest window.
type chunkPool struct {
	mu   sync.Mutex
	free []*subChunk
}

// get takes a chunk off the list, or allocates one; a nil pool always
// allocates.
func (p *chunkPool) get() *subChunk {
	if p == nil {
		return new(subChunk)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return new(subChunk)
}

func (p *chunkPool) put(chunks []*subChunk) {
	p.mu.Lock()
	p.free = append(p.free, chunks...)
	p.mu.Unlock()
}

// subBatch is one lane's arrivals of one window, in stream order, in
// chunks: growth appends a chunk pointer and never copies a
// Submission. A batch reset by n = 0 keeps its chunks,
// so refilling it allocates nothing; release hands them to the pool.
type subBatch struct {
	chunks []*subChunk
	n      int
	pool   *chunkPool // where add takes chunks; nil = allocate
}

func (b *subBatch) add(s *workload.Submission) {
	c := b.n / subChunkLen
	if c == len(b.chunks) {
		b.chunks = append(b.chunks, b.pool.get())
	}
	b.chunks[c][b.n%subChunkLen] = *s
	b.n++
}

func (b *subBatch) at(i int) *workload.Submission {
	return &b.chunks[i/subChunkLen][i%subChunkLen]
}

// release empties the batch and returns its chunks to the pool.
func (b *subBatch) release() {
	if len(b.chunks) > 0 {
		b.pool.put(b.chunks)
		clear(b.chunks)
		b.chunks = b.chunks[:0]
	}
	b.n = 0
}

// routedWindow is one window's arrivals split by lane. windowsInFlight
// exist per run; the last lane done with one hands it back to the
// router.
type routedWindow struct {
	batches []subBatch   // by lane index
	more    bool         // the source holds arrivals at or past this window's end
	err     error        // the source or the recorder failed; the run ends with it
	left    atomic.Int32 // lanes that have not yet run this window
}

// router is the serial half of a run: it pulls the source in arrival
// order (the stream stays ordered for recording and Seq assignment),
// records, and splits each window's arrivals by partition. It touches
// no lane state, so it runs on its own goroutine, ahead of the lanes;
// its fields are read once it has returned.
type router struct {
	src         workload.Source
	lw          *workload.LogWriter
	parts       []string // partition names, by lane index
	defaultLane int
	sw          stopwatch

	submissions, rejected int
	lastArrival           simclock.Tick
	err                   error // the source or recorder error the run ends with
}

// laneOf returns the lane of a submission's partition, "" meaning the
// default one. A run has a handful of partitions, so a scan of their
// names is cheaper than hashing one per submission.
func (r *router) laneOf(partition string) (int, bool) {
	if partition == "" {
		return r.defaultLane, true
	}
	for i, name := range r.parts {
		if name == partition {
			return i, true
		}
	}
	return 0, false
}

// route fills each window it is handed on free, in window order from
// start, and sends it to every lane; it returns after the window that
// exhausts the source (and flushes the recorder) or fails.
func (r *router) route(start simclock.Tick, free <-chan *routedWindow, lanes []*clusterLane) {
	// One submission is pulled ahead, to see whether it belongs to the
	// window being filled; the source fills pending in place.
	var pending workload.Submission
	r.sw.start()
	r.lastArrival = start
	windowEnd := start
	ok, err := r.src.NextInto(&pending)
	r.sw.lap(&r.sw.Busy)
	for w := range free {
		r.sw.lap(&r.sw.WaitWindow)
		windowEnd += simclock.Tick(laneWindow)
		// At < windowEnd, strictly: the boundary instant belongs to the
		// next window.
		for err == nil && ok && pending.At < windowEnd {
			if r.lw != nil {
				if err = r.lw.Record(pending); err != nil {
					break
				}
			}
			r.submissions++
			r.lastArrival = pending.At
			if li, known := r.laneOf(pending.Partition); known {
				w.batches[li].add(&pending)
			} else {
				r.rejected++
			}
			ok, err = r.src.NextInto(&pending)
		}
		if err == nil && !ok && r.lw != nil {
			err = r.lw.Flush()
		}
		w.more, w.err, r.err = ok, err, err
		w.left.Store(int32(len(lanes)))
		for _, ln := range lanes {
			ln.in <- w
		}
		r.sw.lap(&r.sw.Busy)
		if err != nil || !ok {
			return
		}
	}
}

// usageExchange hands fair-share usage from every lane to the sibling
// lanes whose scheduling policy reads it, window by window. A reading
// lane applies every sibling's window k−1 deltas, in partition-config
// order, before it runs window k: the same additions, in the same
// order, that an all-lane barrier after window k−1 would make. A lane
// whose policy never reads usage (FIFO) is handed nothing and waits for
// no sibling. One mutex guards it all; a lane refills a ring slot only
// once every reader still running has applied the window it held.
type usageExchange struct {
	mu    sync.Mutex
	cond  sync.Cond
	lanes []laneUsage // by lane index
}

type laneUsage struct {
	reads     bool // the lane's policy reads usage: it applies its siblings' deltas
	published int  // windows whose deltas are in ring (window k in ring[k%usageRing])
	applied   int  // windows of sibling deltas applied, if the lane reads
	// done: the lane runs no more windows. It publishes nothing more
	// (its usage stops growing) and no sibling waits for it to read.
	done bool
	ring [usageRing][]usageDelta
}

// publish hands lane i's window-k deltas to its readers and takes back
// an emptied buffer for window k+1, once every reader has applied
// window k−usageRing.
func (x *usageExchange) publish(i, k int, usage *[]usageDelta) {
	x.mu.Lock()
	for x.unread(i, k-usageRing) {
		x.cond.Wait()
	}
	me := &x.lanes[i]
	slot := &me.ring[k%usageRing]
	*slot, *usage = *usage, (*slot)[:0]
	me.published = k
	x.cond.Broadcast()
	x.mu.Unlock()
}

// unread reports whether a reading sibling of lane i that still runs
// has not yet applied window k.
func (x *usageExchange) unread(i, k int) bool {
	for j := range x.lanes {
		if r := &x.lanes[j]; j != i && r.reads && !r.done && r.applied < k {
			return true
		}
	}
	return false
}

// apply waits until every sibling of lane i has published window k or
// is done, then credits their window-k deltas to ctl in partition-config
// order.
func (x *usageExchange) apply(i, k int, ctl *slurm.Controller) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for x.unpublished(i, k) {
		x.cond.Wait()
	}
	for j := range x.lanes {
		// A sibling done before window k had no usage in it.
		if s := &x.lanes[j]; j != i && s.published >= k {
			for _, d := range s.ring[k%usageRing] {
				ctl.AddUsage(d.uid, d.cpuS)
			}
		}
	}
	x.lanes[i].applied = k
	x.cond.Broadcast()
}

// unpublished reports whether a sibling of lane i that still runs has
// not yet published window k.
func (x *usageExchange) unpublished(i, k int) bool {
	for j := range x.lanes {
		if s := &x.lanes[j]; j != i && !s.done && s.published < k {
			return true
		}
	}
	return false
}

// done marks lane i finished and releases any sibling waiting on it.
func (x *usageExchange) done(i int) {
	x.mu.Lock()
	x.lanes[i].done = true
	x.cond.Broadcast()
	x.mu.Unlock()
}

// clusterLane is one partition's slice of the cluster: its own
// simulated clock, a controller over the partition's nodes, and the
// goroutine that runs its windows in order. Partitions share no nodes,
// so a lane's state is touched by exactly one goroutine; fair-share
// usage crosses lanes only through the usageExchange.
type clusterLane struct {
	idx   int // lane index = partition-config order
	name  string
	sim   *simclock.Sim
	ctl   *slurm.Controller
	stats *PartitionReport

	// in carries the router's windows, in order, with room for every
	// window in flight, so the router never blocks sending one.
	in chan *routedWindow
	// reads: the lane's policy orders by fair share, so it applies its
	// siblings' usage; feeds: a sibling reads usage, so the lane
	// publishes its own.
	reads, feeds bool
	usage        []usageDelta // usage accrued this window (sink output)
	rejected     int          // submissions the controller refused

	// desc is the lane's reusable job description: runWindow rewrites
	// the per-submission fields in place and submits by pointer, so the
	// ~250-byte struct is built and copied once per submission instead
	// of three times. Fields not listed in runWindow stay zero: a
	// cluster run's jobs are unnamed, since nothing it reports reads a
	// name (the recorded log derives each from Client and ClientSeq).
	desc slurm.JobDesc
	sw   stopwatch
}

// run drives the lane through its windows in order: it takes each
// routed window, applies its siblings' usage of the window before if it
// reads usage, runs the window (or skips it: no arrivals, no pending
// event), hands the window back, and publishes its own usage if a
// sibling reads it. Past the source's end it keeps running windows
// while it has pending events. It returns on the router's error too.
func (ln *clusterLane) run(start simclock.Tick, free chan<- *routedWindow, slots chan struct{}, x *usageExchange) {
	if x != nil {
		defer x.done(ln.idx)
	}
	// Every blocking step is followed by a lap, so each wait is charged
	// to what it waited for.
	sw := &ln.sw
	sw.start()
	var idle subBatch // each window's arrivals once the source is exhausted
	routed := true
	windowEnd := start
	for k := 1; ; k++ {
		windowEnd += simclock.Tick(laneWindow)
		var w *routedWindow
		b := &idle
		if routed {
			w = <-ln.in
			sw.lap(&sw.WaitWindow)
			if w.err != nil {
				return
			}
			routed, b = w.more, &w.batches[ln.idx]
		}
		if ln.reads && k > 1 {
			x.apply(ln.idx, k-1, ln.ctl)
			sw.lap(&sw.WaitUsage)
		}
		if b.n > 0 || ln.sim.Pending() > 0 {
			if slots != nil {
				slots <- struct{}{}
				sw.lap(&sw.WaitWindow)
			}
			ln.runWindow(b, windowEnd)
			if slots != nil {
				<-slots
			}
			sw.lap(&sw.Busy)
		}
		if w != nil && w.left.Add(-1) == 0 {
			free <- w
		}
		if ln.feeds {
			x.publish(ln.idx, k, &ln.usage)
			sw.lap(&sw.WaitUsage)
		}
		if !routed && ln.sim.Pending() == 0 {
			return
		}
	}
}

// runWindow advances the lane to the window boundary, admitting the
// window's arrivals at their exact instants, and releases the batch.
// Queue depth is sampled right after each Submit — with batched
// scheduling the new job is still pending at that point, so the peak
// includes it.
func (ln *clusterLane) runWindow(b *subBatch, windowEnd simclock.Tick) {
	for i := 0; i < b.n; i++ {
		s := b.at(i)
		ln.sim.RunUntilTick(int64(s.At))
		d := &ln.desc
		d.Comment = s.Comment
		d.NumTasks = s.Tasks
		d.ThreadsPerCPU = s.ThreadsPerCPU
		d.TimeLimit = s.TimeLimit
		d.Partition = ln.name
		d.UserID = s.UserID
		d.Shape = &s.Shape
		d.Exclusive = s.Exclusive
		d.Deferrable = s.Deferrable
		d.Deadline = s.Deadline.Time()
		if _, err := ln.ctl.SubmitDesc(d); err != nil {
			ln.rejected++
		} else {
			ln.stats.Submitted++
			if depth := ln.ctl.QueueDepth(); depth > ln.stats.PeakQueueDepth {
				ln.stats.PeakQueueDepth = depth
			}
		}
		// Run the deferred scheduling pass once per distinct arrival
		// instant (batched mode queues, Flush places).
		if i+1 == b.n || b.at(i+1).At != s.At {
			ln.ctl.Flush()
		}
	}
	b.release()
	ln.sim.RunBeforeTick(int64(windowEnd))
}

// clusterCalib is the one calibration every cluster run's nodes share.
// Nothing writes a calibration's fields once it is built (DESIGN §8), so
// the tables built from it — the hw ladder, the policy's placement
// deltas — are built once per process, not once per run.
var clusterCalib = perfmodel.Default()

// runCluster builds one lane per partition and pumps the submission
// source through them in conservative time windows: the router fills
// windowsInFlight routedWindows in turn, and every lane runs on its own
// goroutine through its windows in order, at most WithLanes of them
// inside a window at once. No lane waits at a barrier; a lane whose
// policy reads fair-share usage waits only for its siblings' usage of
// the window before (usageExchange). A lane sees only its own window's
// arrivals, in stream order, and no step depends on the lane count or
// on how far ahead the router or a sibling is, so a run, its replay,
// and any -lanes setting produce byte-identical reports and logs.
// Every goroutine started here has exited when it returns.
func runCluster(startAt time.Time, spec workload.Spec, src workload.Source, lw *workload.LogWriter, opts []RunOption) (*ClusterReport, error) {
	start := simclock.Tick(startAt.UnixNano())
	var rcfg runConfig
	for _, opt := range opts {
		opt(&rcfg)
	}

	spec0 := hw.DefaultSpec()
	var nodes []*hw.Node // global construction order: spec order, for energy totals
	lanes := make([]*clusterLane, 0, len(spec.Cluster.Partitions))
	rt := &router{src: src, lw: lw, sw: stopwatch{clock: rcfg.clock}}

	report := &ClusterReport{Spec: spec.Name, Seed: spec.Seed}
	report.Partitions = make([]PartitionReport, len(spec.Cluster.Partitions))

	totalNodes, readers := 0, 0
	for _, ps := range spec.Cluster.Partitions {
		totalNodes += ps.Nodes
		if ps.Policy == "multifactor" {
			readers++
		}
	}
	idx := 0
	for pi, ps := range spec.Cluster.Partitions {
		if ps.Default {
			rt.defaultLane = pi
		}
		laneSim := simclock.NewAt(startAt)
		pool := make([]*hw.Node, ps.Nodes)
		for i := range pool {
			ns := spec0
			ns.Name = fmt.Sprintf("%s-%04d", ps.Name, i+1)
			pool[i] = hw.NewNode(laneSim, ns, clusterCalib, spec.Seed+uint64(idx)*clusterSeedStride+1)
			idx++
		}
		nodes = append(nodes, pool...)

		conf := slurm.DefaultConf()
		conf.ClusterName = spec.Name
		conf.Partition = slurm.Partition{Name: ps.Name, MaxTime: ps.MaxTime.Std()}

		report.Partitions[pi] = PartitionReport{Name: ps.Name, Nodes: ps.Nodes}
		// The multifactor policy is the one that reads fair-share usage;
		// FIFO never does. A lane with siblings reads theirs, and publishes
		// its own if a sibling reads.
		multifactor := ps.Policy == "multifactor"
		ln := &clusterLane{
			idx: pi, name: ps.Name, sim: laneSim, stats: &report.Partitions[pi],
			in:    make(chan *routedWindow, windowsInFlight),
			reads: multifactor && len(spec.Cluster.Partitions) > 1,
			feeds: readers > 1 || readers == 1 && !multifactor,
			sw:    stopwatch{clock: rcfg.clock},
		}

		copts := []slurm.ClusterOption{
			slurm.WithNodes(pool...),
			slurm.WithAggregateAccounting(),
			slurm.WithBatchedScheduling(),
		}
		if ln.feeds {
			copts = append(copts, slurm.WithUsageSink(func(uid uint32, cpuS float64) {
				ln.usage = append(ln.usage, usageDelta{uid: uid, cpuS: cpuS})
			}))
		}
		if multifactor {
			copts = append(copts, slurm.WithMultifactor())
		}
		if spec.Policy != nil {
			copts = append(copts, slurm.WithEnergyPolicy(lanePolicies(spec.Policy, ps, totalNodes, spec.Seed)))
		}
		ctl, err := slurm.NewCluster(laneSim, conf, copts...)
		if err != nil {
			return nil, err
		}
		ln.ctl = ctl
		lanes = append(lanes, ln)
		rt.parts = append(rt.parts, ps.Name)
	}
	report.Nodes = len(nodes)

	// A lane holds a slot only while it runs a window, never while it
	// waits, so no slot holder can wait on a lane without one.
	workers := rcfg.lanes
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var slots chan struct{}
	if workers < len(lanes) {
		slots = make(chan struct{}, workers)
	}
	var x *usageExchange
	if readers > 0 && len(lanes) > 1 {
		x = &usageExchange{lanes: make([]laneUsage, len(lanes))}
		x.cond.L = &x.mu
		for i, ln := range lanes {
			x.lanes[i].reads = ln.reads
		}
	}

	// The routedWindows are the router's whole back-pressure: it waits on
	// free once every window is ahead of some lane. Neither a send on free
	// nor one on a lane's in channel can block.
	free := make(chan *routedWindow, windowsInFlight)
	chunks := new(chunkPool)
	for range windowsInFlight {
		w := &routedWindow{batches: make([]subBatch, len(lanes))}
		for i := range w.batches {
			w.batches[i].pool = chunks
		}
		free <- w
	}
	var stages sync.WaitGroup
	stages.Add(1 + len(lanes))
	go func() {
		defer stages.Done()
		rt.route(start, free, lanes)
	}()
	for _, ln := range lanes {
		go func() {
			defer stages.Done()
			ln.run(start, free, slots, x)
		}()
	}
	stages.Wait()
	if t := rcfg.timing; t != nil {
		t.Router = rt.sw.StageTiming
		t.Router.Name = "router"
		t.Lanes = make([]StageTiming, len(lanes))
		for i, ln := range lanes {
			t.Lanes[i] = ln.sw.StageTiming
			t.Lanes[i].Name = ln.name
		}
	}
	if rt.err != nil {
		return nil, rt.err
	}
	report.Submissions, report.Rejected = rt.submissions, rt.rejected

	// Makespan: the last instant anything happened — the last lane
	// event or the last (possibly rejected) arrival. Advance every lane
	// clock to it so node energy integrates over the same interval on
	// all lanes.
	last := rt.lastArrival
	for _, ln := range lanes {
		last = max(last, simclock.Tick(ln.sim.LastEventAt().UnixNano()))
	}
	for _, ln := range lanes {
		ln.sim.RunUntilTick(int64(last))
	}
	report.Makespan = time.Duration(last - start)

	for _, ln := range lanes {
		report.Rejected += ln.rejected
		t := ln.ctl.Accounting().Totals()
		ln.stats.Completed, ln.stats.Failed, ln.stats.Cancelled = t.Completed, t.Failed, t.Cancelled
		ln.stats.SystemKJ = t.SystemKJ
		report.Totals.Jobs += t.Jobs
		report.Totals.Completed += t.Completed
		report.Totals.Failed += t.Failed
		report.Totals.Cancelled += t.Cancelled
		report.Totals.SystemKJ += t.SystemKJ
		report.Totals.CPUKJ += t.CPUKJ
		report.Totals.CPUSeconds += t.CPUSeconds
		report.Totals.RuntimeSeconds += t.RuntimeSeconds
		report.Totals.WaitSeconds += t.WaitSeconds
	}
	for _, n := range nodes {
		sysJ, cpuJ := n.EnergyJ()
		report.ClusterSystemKJ += sysJ / 1000
		report.ClusterCPUKJ += cpuJ / 1000
	}
	if spec.Policy != nil {
		// The deadline cancel is the one way a job ends cancelled.
		pl := &PolicyReport{Policies: spec.Policy.Label(), DeadlineMisses: int64(report.Totals.Cancelled)}
		for i, ln := range lanes {
			pl.Add(ln.ctl.PolicyTotals())
			_, peak, capW := ln.ctl.PartitionDrawW()
			report.Partitions[i].CapW = capW
			report.Partitions[i].PeakDrawW = peak
		}
		pl.EnergyKJ = report.Totals.SystemKJ
		pl.MakespanS = report.Makespan.Seconds()
		pl.MeanWaitS = report.meanWaitSeconds()
		// Lower is better: energy stretched by waiting, with a hard
		// multiplicative penalty per cap violation or deadline miss.
		pl.Score = pl.EnergyKJ * (1 + pl.MeanWaitS/3600) *
			(1 + float64(pl.CapViolations+pl.DeadlineMisses))
		report.Policy = pl
	}
	if err := report.checkLedgers(); err != nil {
		return nil, err
	}
	return report, nil
}

// ledgerCapSlack is the slack internal/slurm's charge allows a
// partition's draw over its cap before it counts a violation: float
// accumulation noise, not watts.
const ledgerCapSlack = 1e-9

// checkLedgers checks the identities a finished run's own totals must
// satisfy, so a broken scheduler or lane pipeline fails the run instead
// of reporting a wrong total:
//
//   - per partition, every accepted job ended: submitted = completed +
//     failed + cancelled (a run drains, so nothing is left pending);
//   - every submission is counted once: submissions = Σ submitted +
//     rejected;
//   - under a policy block, no cap was exceeded: no violation counted,
//     and every capped partition's peak draw within its cap.
//
// It reads only sums the run already keeps and prints nothing.
func (r *ClusterReport) checkLedgers() error {
	submitted := 0
	for _, p := range r.Partitions {
		if ended := p.Completed + p.Failed + p.Cancelled; p.Submitted != ended {
			return fmt.Errorf("cluster ledger: partition %s: %d submitted, but %d completed + %d failed + %d cancelled = %d",
				p.Name, p.Submitted, p.Completed, p.Failed, p.Cancelled, ended)
		}
		if r.Policy != nil && p.CapW > 0 && p.PeakDrawW > p.CapW*(1+ledgerCapSlack) {
			return fmt.Errorf("cluster ledger: partition %s: peak draw %.3f W over its %.3f W cap", p.Name, p.PeakDrawW, p.CapW)
		}
		submitted += p.Submitted
	}
	if r.Submissions != submitted+r.Rejected {
		return fmt.Errorf("cluster ledger: %d submissions, but %d submitted + %d rejected = %d",
			r.Submissions, submitted, r.Rejected, submitted+r.Rejected)
	}
	if r.Policy != nil && r.Policy.CapViolations != 0 {
		return fmt.Errorf("cluster ledger: %d power-cap violations", r.Policy.CapViolations)
	}
	return nil
}
