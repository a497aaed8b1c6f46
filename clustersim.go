// Cluster-scale simulation: drive a generated or replayed submission
// stream through a multi-partition cluster under one shared simulated
// clock. This is the scale surface of the simulator — thousands of
// hw.Node stacks, per-partition queues and policies, millions of
// submissions — while staying fully deterministic: a (spec, seed) pair
// or a recorded submission log reproduces the run byte for byte.
package ecosched

import (
	"fmt"
	"io"
	"runtime"
	"sync"
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
	// Counters summed over all partitions.
	CapDenials       int64
	FreqCapped       int64
	DeferredJobs     int64
	ForcedDispatches int64
	CoScheduled      int64
	// CapViolations counts instants a partition's draw exceeded its
	// budget — always zero unless the enforcement logic is broken; kept
	// in the report so the property harness and the fitness score see it.
	CapViolations int64
	// DeadlineMisses counts jobs cancelled DeadlineUnsatisfiable.
	DeadlineMisses int64
	// SignalReads and PlaceProbes count the policies' work rather than
	// their decisions (slurm.PolicyTotals). Deterministic like the rest,
	// but not rendered: WriteText prints outcomes.
	SignalReads int64
	PlaceProbes int64
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
	lanes int
}

// WithLanes bounds how many partition lanes advance concurrently.
// Zero (the default) picks min(partitions, GOMAXPROCS), and no setting
// exceeds the partition count; 1 runs one lane at a time, in partition
// order, with the source still read a window ahead on its own
// goroutine. The report and any recorded log are byte-identical at
// every setting: lanes only touch lane-local state between window
// barriers, so the lane count changes wall-clock time, never results.
func WithLanes(n int) RunOption {
	return func(cfg *runConfig) { cfg.lanes = n }
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

// lanePolicies instantiates the spec's policy block for one
// single-partition lane. The cluster-wide cap is prorated by the
// GLOBAL node count — the lane sees only its own partition, and handing
// each lane the full cluster budget would multiply the cap by the lane
// count. An explicit per-partition entry overrides the prorated share
// downward, mirroring PowerCapPolicy's own min rule.
func lanePolicies(pol *workload.PolicySpec, ps workload.PartitionSpec, totalNodes int, seed uint64) []slurm.SchedPolicy {
	var out []slurm.SchedPolicy
	capW := 0.0
	if pol.PowerCapW > 0 && totalNodes > 0 {
		capW = pol.PowerCapW * float64(ps.Nodes) / float64(totalNodes)
	}
	for _, e := range pol.PartitionCapsW {
		if e.Name == ps.Name && (capW == 0 || e.CapW < capW) {
			capW = e.CapW
		}
	}
	if capW > 0 {
		out = append(out, &slurm.PowerCapPolicy{
			PartitionCapsW: []slurm.PartitionCapW{{Partition: ps.Name, CapW: capW}},
			Mode:           pol.CapMode,
		})
	}
	if pol.CoSchedule {
		out = append(out, &slurm.CoSchedulePolicy{InterferencePenalty: pol.InterferencePenalty})
	}
	if d := pol.Deferral; d != nil {
		out = append(out, &slurm.DeferralPolicy{
			Signal:    deferralSignal(seed, d),
			Threshold: d.Threshold,
			MaxDefer:  d.MaxDefer.Std(),
			Check:     d.Check.Std(),
		})
	}
	return out
}

// laneWindow is the conservative lookahead of the parallel partition
// lanes: within one window, every lane advances independently; at the
// barrier, cross-lane state (fair-share usage) is exchanged. The value
// is a fixed property of the run semantics — it must never depend on
// the lane count, or results would too.
const laneWindow = 5 * time.Minute

// usageDelta is one fair-share usage increment exported by a lane for
// replication into its siblings at the next barrier.
type usageDelta struct {
	uid  uint32
	cpuS float64
}

// subChunkLen sizes a chunk to fill a Go size class: 18 Submissions of
// 224 bytes are 4,032 of the class's 4,096.
const subChunkLen = 18

// subBatch is one lane's arrivals of one window, in stream order, in
// the idiom of the job-table arena: growth appends a chunk pointer and
// never copies a Submission, and a drained batch (n = 0) keeps its
// chunks, so a window no larger than an earlier one allocates nothing.
type subBatch struct {
	chunks []*[subChunkLen]workload.Submission
	n      int
}

func (b *subBatch) add(s *workload.Submission) {
	c := b.n / subChunkLen
	if c == len(b.chunks) {
		b.chunks = append(b.chunks, new([subChunkLen]workload.Submission))
	}
	b.chunks[c][b.n%subChunkLen] = *s
	b.n++
}

func (b *subBatch) at(i int) *workload.Submission {
	return &b.chunks[i/subChunkLen][i%subChunkLen]
}

// routedWindow is one window's arrivals split by lane. Two exist per
// run, refilled in turn.
type routedWindow struct {
	batches []subBatch // by lane index
	more    bool       // the source holds arrivals at or past this window's end
	err     error      // the source or the recorder failed; the run ends with it
}

// router is the serial half of a run: it pulls the source in arrival
// order (the stream stays ordered for recording and Seq assignment),
// records, and splits each window's arrivals by partition. It touches
// no lane state, so it runs on its own goroutine, a window ahead of the
// lanes; its counters are read once its last window has been received.
type router struct {
	src    workload.Source
	lw     *workload.LogWriter
	laneOf map[string]int // partition name ("" = the default) → lane index

	submissions, rejected int
	lastArrival           time.Time
}

// route fills each window it is handed on free, in window order from
// start, and hands it on through filled; it returns after the window
// that exhausts the source (and flushes the recorder) or fails.
func (r *router) route(start time.Time, free <-chan *routedWindow, filled chan<- *routedWindow) {
	// One submission is pulled ahead, to see whether it belongs to the
	// window being filled; the generator fills pending in place.
	var pending workload.Submission
	pullInto, hasInto := r.src.(workload.IntoSource)
	next := func() (ok bool, err error) {
		if hasInto {
			return pullInto.NextInto(&pending)
		}
		pending, ok, err = r.src.Next()
		return ok, err
	}
	r.lastArrival = start
	windowEnd := start
	ok, err := next()
	for w := range free {
		windowEnd = windowEnd.Add(laneWindow)
		// At < windowEnd, strictly: the boundary instant belongs to the
		// next window.
		for err == nil && ok && pending.At.Before(windowEnd) {
			if r.lw != nil {
				if err = r.lw.Record(pending); err != nil {
					break
				}
			}
			r.submissions++
			r.lastArrival = pending.At
			if li, known := r.laneOf[pending.Partition]; known {
				w.batches[li].add(&pending)
			} else {
				r.rejected++
			}
			ok, err = next()
		}
		if err == nil && !ok && r.lw != nil {
			err = r.lw.Flush()
		}
		w.more, w.err = ok, err
		filled <- w
		if err != nil || !ok {
			return
		}
	}
}

// clusterLane is one partition's slice of the cluster: its own
// simulated clock, a single-partition controller over the partition's
// dedicated nodes, and the window-local buffers the coordinator
// exchanges at barriers. Partitions in the committed specs share no
// nodes, so between barriers a lane's state is touched by exactly one
// goroutine.
type clusterLane struct {
	name  string
	sim   *simclock.Sim
	ctl   *slurm.Controller
	stats *PartitionReport

	// batch and windowEnd are the window to run, set by the coordinator.
	batch     *subBatch
	windowEnd time.Time
	usage     []usageDelta // usage accrued this window (sink output)
	rejected  int          // submissions the controller refused
	// deadlineMisses counts jobs cancelled DeadlineUnsatisfiable (only
	// tracked under a policy block).
	deadlineMisses int64

	// desc is the lane's reusable job description: runWindow rewrites
	// the per-submission fields in place and submits by pointer, so the
	// ~250-byte struct is built and copied once per submission instead
	// of three times. Fields not listed in runWindow stay zero.
	desc slurm.JobDesc
}

// runWindow advances the lane to the window boundary, admitting this
// window's arrivals at their exact instants and leaving the batch
// drained. Queue depth is sampled right after each Submit — with
// batched scheduling the new job is still pending at that point, so
// the peak includes it.
func (ln *clusterLane) runWindow() {
	b := ln.batch
	for i := 0; i < b.n; i++ {
		s := b.at(i)
		ln.sim.RunUntil(s.At)
		d := &ln.desc
		d.Name = s.JobName
		d.Comment = s.Comment
		d.NumTasks = s.Tasks
		d.ThreadsPerCPU = s.ThreadsPerCPU
		d.TimeLimit = s.TimeLimit
		d.Partition = ln.name
		d.UserID = s.UserID
		d.Shape = &s.Shape
		d.Exclusive = s.Exclusive
		d.Deferrable = s.Deferrable
		d.Deadline = s.Deadline
		if _, err := ln.ctl.SubmitDesc(d); err != nil {
			ln.rejected++
		} else {
			ln.stats.Submitted++
			if depth := ln.ctl.QueueDepth(ln.name); depth > ln.stats.PeakQueueDepth {
				ln.stats.PeakQueueDepth = depth
			}
		}
		// Run the deferred scheduling pass once per distinct arrival
		// instant (batched mode queues, Flush places).
		if i+1 == b.n || !b.at(i+1).At.Equal(s.At) {
			ln.ctl.Flush()
		}
	}
	b.n = 0
	ln.sim.RunBefore(ln.windowEnd)
}

// runCluster builds one lane per partition and pumps the submission
// source through them in conservative time windows, in three stages:
// the router fills one of two routedWindows while the lanes drain the
// other; the coordinator (this goroutine) hands each filled window's
// active lanes to the run-long lane workers (bounded by WithLanes) and
// meets them at the barrier, where fair-share usage deltas are
// replicated into sibling lanes in partition-config order. A lane sees
// only its own window's arrivals, in stream order, and no step depends
// on the lane count or on how far ahead the router is, so a run, its
// replay, and any -lanes setting produce byte-identical reports and
// logs. Every goroutine started here has exited when it returns.
func runCluster(start time.Time, spec workload.Spec, src workload.Source, lw *workload.LogWriter, opts []RunOption) (*ClusterReport, error) {
	var rcfg runConfig
	for _, opt := range opts {
		opt(&rcfg)
	}

	calib := perfmodel.Default()
	spec0 := hw.DefaultSpec()
	var nodes []*hw.Node // global construction order: spec order, for energy totals
	lanes := make([]*clusterLane, 0, len(spec.Cluster.Partitions))
	rt := &router{src: src, lw: lw, laneOf: make(map[string]int, len(spec.Cluster.Partitions)+1)}

	report := &ClusterReport{Spec: spec.Name, Seed: spec.Seed}
	report.Partitions = make([]PartitionReport, len(spec.Cluster.Partitions))

	defaultLane := 0
	totalNodes := 0
	for _, ps := range spec.Cluster.Partitions {
		totalNodes += ps.Nodes
	}
	idx := 0
	for pi, ps := range spec.Cluster.Partitions {
		if ps.Default {
			defaultLane = pi
		}
		laneSim := simclock.NewAt(start)
		pool := make([]*hw.Node, ps.Nodes)
		for i := range pool {
			ns := spec0
			ns.Name = fmt.Sprintf("%s-%04d", ps.Name, i+1)
			pool[i] = hw.NewNode(laneSim, ns, calib, spec.Seed+uint64(idx)*clusterSeedStride+1)
			idx++
		}
		nodes = append(nodes, pool...)

		conf := slurm.DefaultConf()
		conf.ClusterName = spec.Name
		conf.Partitions = []slurm.Partition{{
			Name:    ps.Name,
			MaxTime: ps.MaxTime.Std(),
			Default: true,
		}}

		report.Partitions[pi] = PartitionReport{Name: ps.Name, Nodes: ps.Nodes}
		ln := &clusterLane{name: ps.Name, sim: laneSim, stats: &report.Partitions[pi]}

		copts := []slurm.ClusterOption{
			slurm.WithPartitionNodes(ps.Name, pool...),
			slurm.WithAggregateAccounting(),
			slurm.WithBatchedScheduling(),
			slurm.WithUsageSink(func(uid uint32, cpuS float64) {
				ln.usage = append(ln.usage, usageDelta{uid: uid, cpuS: cpuS})
			}),
		}
		if ps.Policy == "multifactor" {
			copts = append(copts, slurm.WithPartitionPolicy(ps.Name, slurm.DefaultMultifactor(spec0.Cores)))
		}
		if spec.Policy != nil {
			if pols := lanePolicies(spec.Policy, ps, totalNodes, spec.Seed); len(pols) > 0 {
				copts = append(copts, slurm.WithSchedPolicies(pols...))
			}
		}
		ctl, err := slurm.NewCluster(laneSim, conf, copts...)
		if err != nil {
			return nil, err
		}
		ln.ctl = ctl
		stats := ln.stats
		trackDeadlines := spec.Policy != nil
		ctl.OnCompletion(func(j *slurm.Job) {
			switch j.State {
			case slurm.StateCompleted:
				stats.Completed++
			case slurm.StateFailed:
				stats.Failed++
			case slurm.StateCancelled:
				stats.Cancelled++
				if trackDeadlines && j.Reason == "DeadlineUnsatisfiable" {
					ln.deadlineMisses++
				}
			}
			stats.SystemKJ += j.SystemJ / 1000
		})
		lanes = append(lanes, ln)
		rt.laneOf[ps.Name] = pi
	}
	rt.laneOf[""] = defaultLane
	report.Nodes = len(nodes)

	workers := rcfg.lanes
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(lanes))

	// Two windows are the whole back-pressure: the router waits on free
	// once it is a window ahead. No send on either channel can block.
	free := make(chan *routedWindow, 2)
	filled := make(chan *routedWindow, 2)
	for i := 0; i < cap(free); i++ {
		free <- &routedWindow{batches: make([]subBatch, len(lanes))}
	}
	work := make(chan *clusterLane, len(lanes))
	var stages, window sync.WaitGroup
	stages.Add(1 + workers)
	go func() {
		defer stages.Done()
		rt.route(start, free, filled)
	}()
	for i := 0; i < workers; i++ {
		go func() {
			defer stages.Done()
			for ln := range work {
				ln.runWindow()
				window.Done()
			}
		}()
	}
	// Both exits below follow the router's last window.
	defer func() {
		close(work)
		stages.Wait()
	}()

	windowEnd := start
	var w *routedWindow
	for more := true; ; { // more: the router has another window to send
		windowEnd = windowEnd.Add(laneWindow)
		if more {
			w = <-filled
			if w.err != nil {
				return nil, w.err
			}
			more = w.more
		}

		// Advance each active lane through the window; idle lanes (no
		// arrivals, no pending events) skip it entirely. Past the
		// source's end w stays the last window, its batches drained.
		active := 0
		for i, ln := range lanes {
			ln.batch, ln.windowEnd = &w.batches[i], windowEnd
			if ln.batch.n == 0 && ln.sim.Pending() == 0 {
				continue
			}
			active++
			window.Add(1)
			work <- ln
		}
		window.Wait()
		if more {
			free <- w
		}

		// Barrier: replicate each lane's fair-share deltas into every
		// sibling, in partition-config order — the one piece of
		// cross-partition state.
		for _, ln := range lanes {
			if len(ln.usage) == 0 {
				continue
			}
			for _, other := range lanes {
				if other == ln {
					continue
				}
				for _, d := range ln.usage {
					other.ctl.AddUsage(d.uid, d.cpuS)
				}
			}
			ln.usage = ln.usage[:0]
		}

		if !more && active == 0 {
			break
		}
	}
	report.Submissions, report.Rejected = rt.submissions, rt.rejected

	// Makespan: the last instant anything happened — the last lane
	// event or the last (possibly rejected) arrival. Advance every lane
	// clock to it so node energy integrates over the same interval on
	// all lanes.
	last := rt.lastArrival
	for _, ln := range lanes {
		if le := ln.sim.LastEventAt(); le.After(last) {
			last = le
		}
	}
	for _, ln := range lanes {
		ln.sim.RunUntil(last)
	}
	report.Makespan = last.Sub(start)

	for _, ln := range lanes {
		report.Rejected += ln.rejected
		t := ln.ctl.Accounting().Totals()
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
		pl := &PolicyReport{Policies: spec.Policy.Label()}
		for i, ln := range lanes {
			pt := ln.ctl.PolicyTotals()
			pl.CapDenials += pt.CapDenials
			pl.FreqCapped += pt.FreqCapped
			pl.DeferredJobs += pt.DeferredJobs
			pl.ForcedDispatches += pt.ForcedDispatches
			pl.CoScheduled += pt.CoScheduled
			pl.CapViolations += pt.CapViolations
			pl.SignalReads += pt.SignalReads
			pl.PlaceProbes += pt.PlaceProbes
			pl.DeadlineMisses += ln.deadlineMisses
			_, peak, capW := ln.ctl.PartitionDrawW(ln.name)
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
	return report, nil
}
