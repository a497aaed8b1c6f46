package ecosched

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"ecosched/internal/energymarket"
	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/workload"
)

// The reference run: the plainest cluster simulation that can referee
// RunClusterSpec on FIFO and multifactor partitions, under the spec's
// policy block or none. One goroutine, one container/heap of events
// ordered by (time, partition, seq), plain slices and maps, no pools,
// no lanes, no settled record and no index. It shares only the physics
// and the inputs with the real run: the workload generator and
// Shape.Plan, hw.NewNode with runCluster's names and seeds, a
// simclock.Sim that is nothing but the nodes' clock, moved with SkipToTick,
// slurm.PowerModel for draws, energymarket for the deferral signal, and
// laneWindow, the period at which fair-share usage crosses partitions.
// It never calls the controller, a partition, a policy value,
// lanePolicies, deferralSignal, takeIdle, orderKeyed, Accounting, the
// usage exchange or the lane pipeline (DESIGN §7).

// refJob is one accepted submission; id is its place in the stream.
type refJob struct {
	id                    int
	uid                   uint32
	key                   float64 // multifactor priority at the last pass
	shape                 *workload.Shape
	tasks, tpc            int
	limit                 time.Duration
	deadline              time.Time
	exclusive, deferrable bool
	release               time.Time // a hold ends here, whatever the signal
	deferred              bool      // held, and not yet released by its bound
	freqKHz               int       // the rung fit pinned it to; 0 = the governor's
	submit, start         time.Time
	slot                  int     // the node it runs on, by slot
	hwJob                 *hw.Job // a primary's run on its node
	sys0, cpu0            float64 // the node's energy counters at a primary's start
	secondary             bool
	drawW, cpuW           float64 // the draw booked at its start; a secondary's CPU share
	timedOut              bool
}

// refNode is one node: the job holding it (a promoted secondary
// included) and the secondary running beside it.
type refNode struct {
	*hw.Node
	holder, beside *refJob
}

// refPart is one partition: its nodes in slot order, its queue, the
// fair-share usage it sees by user, with the usage its own jobs added
// this window for its siblings, and its share of the policy block: a
// draw ledger (kept when the partition has any policy) and one wake.
type refPart struct {
	PartitionReport
	maxTime     time.Duration
	multifactor bool
	nodes       []refNode
	queue       []*refJob
	totals      slurm.AcctTotals
	usage       map[uint32]float64
	deltas      []refDelta
	policy      bool
	floorW      float64
	drawW       float64
	wakeArmed   bool
	wakeAt      time.Time
}

type refDelta struct {
	uid  uint32
	cpuS float64
}

// refPolicy is the spec's policy block as the rules read it.
type refPolicy struct {
	freqCap         bool
	penalty         float64                 // 0: no co-scheduling
	signal          func(time.Time) float64 // nil: no deferral
	threshold       float64
	maxDefer, check time.Duration
}

// refCoverage is what the run saw multifactor passes and the policies
// do.
type refCoverage struct {
	outOfOrder bool // a job started while one submitted before it stayed queued
	tie        bool // two queued jobs had equal keys
	saturated  bool // a job started after waiting a day or more
	denied     bool // fit refused a node
	pinned     bool // fit pinned a lower rung
	paired     bool // a secondary started beside a primary
	promoted   bool // a primary ended before its secondary
	held       bool // hold kept a job queued
	forced     bool // a held job was released by its bound
	refused    bool // the budget refused a submission
}

// add folds another run's coverage into c.
func (c *refCoverage) add(o refCoverage) {
	c.outOfOrder = c.outOfOrder || o.outOfOrder
	c.tie = c.tie || o.tie
	c.saturated = c.saturated || o.saturated
	c.denied = c.denied || o.denied
	c.pinned = c.pinned || o.pinned
	c.paired = c.paired || o.paired
	c.promoted = c.promoted || o.promoted
	c.held = c.held || o.held
	c.forced = c.forced || o.forced
	c.refused = c.refused || o.refused
}

// refEvent is a job's completion, or the partition's wake (job nil).
type refEvent struct {
	at   time.Time
	part int
	seq  int
	job  *refJob
}

type refEvents []refEvent

func (h refEvents) Len() int { return len(h) }
func (h refEvents) Less(i, j int) bool {
	a, b := h[i], h[j]
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	if a.part != b.part {
		return a.part < b.part
	}
	return a.seq < b.seq
}
func (h refEvents) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEvents) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refEvents) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

type refRun struct {
	t      testing.TB
	clock  *simclock.Sim
	node   hw.NodeSpec
	pm     slurm.PowerModel
	pol    refPolicy
	parts  []*refPart
	events refEvents
	seq    int
	window time.Duration // the usage window the run is in, counted from the epoch
	totals PolicyReport
	cover  refCoverage
}

// referenceRun simulates the spec's generated stream as RunClusterSpec
// would, from the rules alone:
//
//   - a submission goes to its named partition, or the default one (the
//     last marked, else the first), and is refused when no node has its
//     tasks and threads per CPU;
//   - an unset time limit is the slurm.conf default, capped at the
//     partition's MaxTime;
//   - at each instant, the events due fire first, each completion
//     followed by a pass; then the instant's arrivals queue, and every
//     partition that queued one runs one pass;
//   - a pass asks queued jobs in order. A deferrable job is asked hold
//     first; the idle node of lowest slot then goes to fit, and a job
//     fit refuses stays queued, its node free. With no idle node, a job
//     goes beside the first host place accepts, in slot order; without
//     co-scheduling the pass stops there, asking nothing of the jobs
//     behind it, hold included. A started job that cannot meet its
//     deadline is cancelled there, and one whose plan exceeds its time
//     limit ends at the limit, failed. A FIFO queue's order is
//     submission order. A multifactor queue is sorted by key,
//     descending, ties in submission order. The key is 1000·min(age/24h,
//     1) + 100·max(1 − tasks/32, 0) + 2000·115200/(115200 + usage),
//     usage being the CPU-seconds the partition has seen its user's jobs
//     run;
//   - a started job's tasks × runtime counts as its user's usage in its
//     own partition when it ends. The run is cut into windows of
//     laneWindow from the epoch; on first entering a later window, each
//     multifactor partition adds its siblings' usage of the window just
//     ended, sibling by sibling in config order;
//   - a primary is billed its node's energy counters from its start to
//     its end, a secondary its booked draw and CPU share × runtime; the
//     run's energy is every node's counters at the makespan, the last
//     arrival or event;
//   - the policy rules are on admits, hold, arm, fit, place and run.
func referenceRun(t testing.TB, spec workload.Spec) (*ClusterReport, refCoverage) {
	t.Helper()
	gen, err := workload.NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	var subs []workload.Submission
	for {
		var s workload.Submission
		ok, err := gen.NextInto(&s)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		subs = append(subs, s)
	}

	r := &refRun{t: t, clock: simclock.NewAt(simclock.Epoch), node: hw.DefaultSpec(), pm: slurm.NewPowerModel(clusterCalib)}
	rep := &ClusterReport{Spec: spec.Name, Seed: spec.Seed, Submissions: len(subs)}
	var nodes []*hw.Node
	def := 0
	for i, ps := range spec.Cluster.Partitions {
		if ps.Default {
			def = i
		}
		p := &refPart{PartitionReport: PartitionReport{Name: ps.Name, Nodes: ps.Nodes}, maxTime: ps.MaxTime.Std(),
			multifactor: ps.Policy == "multifactor", usage: map[uint32]float64{}}
		for k := range ps.Nodes {
			ns := r.node
			ns.Name = fmt.Sprintf("%s-%04d", ps.Name, k+1)
			n := hw.NewNode(r.clock, ns, clusterCalib, spec.Seed+uint64(len(nodes))*clusterSeedStride+1)
			p.nodes = append(p.nodes, refNode{Node: n})
			nodes = append(nodes, n)
		}
		r.parts = append(r.parts, p)
	}
	if spec.Policy != nil {
		r.setPolicy(spec, len(nodes))
	}
	defaultLimit := slurm.DefaultConf().DefaultTimeLimit

	last := simclock.Epoch
	for i := 0; i < len(subs); {
		at := subs[i].At.Time()
		last = r.fireThrough(at, last)
		r.enter(at)
		r.clock.SkipToTick(at.UnixNano())
		last = at
		queued := make([]bool, len(r.parts))
		for ; i < len(subs) && subs[i].At.Time().Equal(at); i++ {
			s := &subs[i]
			pi := def
			if s.Partition != "" {
				pi = -1
				for k, p := range r.parts {
					if p.Name == s.Partition {
						pi = k
					}
				}
			}
			j := &refJob{id: i, uid: s.UserID, shape: &s.Shape, tasks: max(s.Tasks, 1), tpc: max(s.ThreadsPerCPU, 1),
				limit: s.TimeLimit, deadline: s.Deadline.Time(), exclusive: s.Exclusive, deferrable: s.Deferrable, submit: at}
			if pi < 0 || j.tasks > r.node.Cores || j.tpc > r.node.ThreadsPerCore {
				rep.Rejected++
				continue
			}
			p := r.parts[pi]
			if j.limit <= 0 {
				j.limit = defaultLimit
			}
			if p.maxTime > 0 && j.limit > p.maxTime {
				j.limit = p.maxTime
			}
			if !r.admits(p, j) {
				rep.Rejected++
				r.cover.refused = true
				continue
			}
			j.release = at.Add(r.pol.maxDefer)
			if !j.deadline.IsZero() && j.deadline.Add(-j.limit).Before(j.release) {
				j.release = j.deadline.Add(-j.limit)
			}
			p.queue = append(p.queue, j)
			p.Submitted++
			p.PeakQueueDepth = max(p.PeakQueueDepth, len(p.queue))
			queued[pi] = true
		}
		for pi, q := range queued {
			if q {
				r.pass(pi)
			}
		}
	}
	last = r.fireThrough(time.Unix(1<<62, 0), last) // the run-out: every event left

	rep.Nodes = len(nodes)
	rep.Makespan = last.Sub(simclock.Epoch)
	for _, p := range r.parts {
		tot := p.totals
		p.Completed, p.Failed, p.Cancelled, p.SystemKJ = tot.Completed, tot.Failed, tot.Cancelled, tot.SystemKJ
		rep.Partitions = append(rep.Partitions, p.PartitionReport)
		rep.Totals.Jobs += tot.Jobs
		rep.Totals.Completed += tot.Completed
		rep.Totals.Failed += tot.Failed
		rep.Totals.Cancelled += tot.Cancelled
		rep.Totals.SystemKJ += tot.SystemKJ
		rep.Totals.CPUKJ += tot.CPUKJ
		rep.Totals.CPUSeconds += tot.CPUSeconds
		rep.Totals.RuntimeSeconds += tot.RuntimeSeconds
		rep.Totals.WaitSeconds += tot.WaitSeconds
	}
	r.clock.SkipToTick(last.UnixNano())
	for _, n := range nodes {
		sysJ, cpuJ := n.EnergyJ()
		rep.ClusterSystemKJ += sysJ / 1000
		rep.ClusterCPUKJ += cpuJ / 1000
	}
	if spec.Policy != nil {
		pl := r.totals
		pl.Policies = spec.Policy.Label()
		pl.DeadlineMisses = int64(rep.Totals.Cancelled) // every cancellation is a deadline the plan missed
		pl.EnergyKJ = rep.Totals.SystemKJ
		pl.MakespanS = rep.Makespan.Seconds()
		pl.MeanWaitS = rep.meanWaitSeconds()
		pl.Score = pl.EnergyKJ * (1 + pl.MeanWaitS/3600) * (1 + float64(pl.CapViolations+pl.DeadlineMisses))
		rep.Policy = &pl
	}
	return rep, r.cover
}

// setPolicy reads the spec's policy block: one cap per partition, the
// cluster cap × its nodes / all nodes, which a named entry can only
// lower; co-scheduling's penalty; the deferral signal, the one every
// lane reads; and, on every partition with any policy, a draw ledger
// opened at its nodes' idle floors, in slot order.
func (r *refRun) setPolicy(spec workload.Spec, totalNodes int) {
	pol := spec.Policy
	r.pol.freqCap = pol.CapMode == "freqcap"
	if pol.CoSchedule {
		r.pol.penalty = pol.InterferencePenalty
		if r.pol.penalty == 0 {
			r.pol.penalty = defaultInterferencePenalty
		}
	}
	if d := pol.Deferral; d != nil {
		m := energymarket.New(spec.Seed)
		r.pol.signal = m.Price
		if d.Signal == workload.SignalCarbon {
			r.pol.signal = m.CarbonIntensity
		}
		r.pol.threshold, r.pol.maxDefer, r.pol.check = d.Threshold, d.MaxDefer.Std(), d.Check.Std()
		if r.pol.check == 0 {
			r.pol.check = defaultDeferCheck
		}
	}
	for _, p := range r.parts {
		if pol.PowerCapW > 0 {
			p.CapW = pol.PowerCapW * float64(p.Nodes) / float64(totalNodes)
		}
		for _, e := range pol.PartitionCapsW {
			if e.Name == p.Name && (p.CapW == 0 || e.CapW < p.CapW) {
				p.CapW = e.CapW
			}
		}
		p.policy = p.CapW > 0 || pol.CoSchedule || pol.Deferral != nil
		if p.policy {
			for range p.nodes {
				p.drawW += r.pm.IdleNodeW()
			}
			p.floorW, p.PeakDrawW = p.drawW, p.drawW
		}
	}
}

// enter moves the run to t's window. On first entering a later one,
// every multifactor partition adds its siblings' usage of the window
// just ended, sibling by sibling in config order.
func (r *refRun) enter(t time.Time) {
	w := t.Sub(simclock.Epoch) / laneWindow
	if w == r.window {
		return
	}
	r.window = w
	for i, p := range r.parts {
		if !p.multifactor {
			continue
		}
		for k, sib := range r.parts {
			if k != i {
				for _, d := range sib.deltas {
					p.usage[d.uid] += d.cpuS
				}
			}
		}
	}
	for _, p := range r.parts {
		p.deltas = p.deltas[:0]
	}
}

// push arms an event: the job's completion, or with no job the
// partition's wake.
func (r *refRun) push(at time.Time, pi int, j *refJob) {
	heap.Push(&r.events, refEvent{at: at, part: pi, seq: r.seq, job: j})
	r.seq++
}

// fireThrough fires every event due at or before t, in (time,
// partition, seq) order, and returns the later of last and the last
// instant it fired. A completion takes the job off its node — a
// secondary leaves its primary, a primary ends its hardware run and
// hands the node to its secondary, if any — returns its draw, bills it
// and runs its partition's pass. A wake runs the pass if it is the one
// armed; any other is stale.
func (r *refRun) fireThrough(t, last time.Time) time.Time {
	for len(r.events) > 0 && !r.events[0].at.After(t) {
		ev := heap.Pop(&r.events).(refEvent)
		r.enter(ev.at)
		r.clock.SkipToTick(ev.at.UnixNano())
		last = ev.at
		p, j := r.parts[ev.part], ev.job
		if j == nil {
			if p.wakeArmed && ev.at.Equal(p.wakeAt) {
				p.wakeArmed = false
				r.pass(ev.part)
			}
			continue
		}
		n := &p.nodes[j.slot]
		if n.beside == j {
			n.beside = nil
		} else {
			if j.hwJob != nil {
				j.hwJob.End()
			}
			r.cover.promoted = r.cover.promoted || n.beside != nil
			n.holder, n.beside = n.beside, nil
		}
		if p.policy {
			p.drawW -= j.drawW
		}
		var sysJ, cpuJ float64
		if j.secondary {
			secs := ev.at.Sub(j.start).Seconds()
			sysJ, cpuJ = j.drawW*secs, j.cpuW*secs
		} else {
			sys1, cpu1 := n.EnergyJ()
			sysJ, cpuJ = sys1-j.sys0, cpu1-j.cpu0
		}
		state := slurm.StateCompleted
		if j.timedOut {
			state = slurm.StateFailed
		}
		p.account(j, state, ev.at, sysJ, cpuJ)
		r.pass(ev.part)
	}
	return last
}

// pass asks the partition's queued jobs in order, as referenceRun
// states. Every node is hw.DefaultSpec, so every job submission
// accepted fits every node.
func (r *refRun) pass(pi int) {
	p := r.parts[pi]
	now := r.clock.Now()
	if p.multifactor {
		for _, j := range p.queue {
			age := float64(now.Sub(j.submit)) / float64(24*time.Hour)
			if age > 1 {
				age = 1
			}
			size := 1 - float64(j.tasks)/32
			if size < 0 {
				size = 0
			}
			j.key = 1000*age + 100*size + 2000*(115200/(115200+p.usage[j.uid]))
		}
		sort.SliceStable(p.queue, func(a, b int) bool {
			ja, jb := p.queue[a], p.queue[b]
			if ja.key != jb.key {
				return ja.key > jb.key
			}
			return ja.id < jb.id
		})
		for k := 1; k < len(p.queue); k++ {
			r.cover.tie = r.cover.tie || p.queue[k].key == p.queue[k-1].key
		}
	}
	var kept []*refJob
	firstKept, lastStarted := -1, -1
	for k, j := range p.queue {
		slot := -1
		for s := range p.nodes {
			if p.nodes[s].holder == nil {
				slot = s
				break
			}
		}
		if slot < 0 && r.pol.penalty == 0 {
			for _, rest := range p.queue[k:] {
				if firstKept < 0 || rest.id < firstKept {
					firstKept = rest.id
				}
			}
			kept = append(kept, p.queue[k:]...)
			break
		}
		switch {
		case r.hold(pi, j, now):
		case slot >= 0 && r.fit(p, j):
			if r.start(pi, j, slot, now) {
				lastStarted = max(lastStarted, j.id)
			}
			continue
		case slot < 0 && r.place(pi, j, now):
			lastStarted = max(lastStarted, j.id)
			continue
		}
		if firstKept < 0 || j.id < firstKept {
			firstKept = j.id
		}
		kept = append(kept, j)
	}
	p.queue = kept
	r.cover.outOfOrder = r.cover.outOfOrder || p.multifactor && firstKept >= 0 && firstKept < lastStarted
}

// hold reports whether the deferral signal keeps a deferrable job
// queued at now, arming the partition's wake for when it should be
// asked again: the next check, or its release bound if that comes
// first. A job at its bound is released whatever the signal, and one
// held before counts as forced — once.
func (r *refRun) hold(pi int, j *refJob, now time.Time) bool {
	if r.pol.signal == nil || !j.deferrable {
		return false
	}
	if !now.Before(j.release) {
		if j.deferred {
			j.deferred = false
			r.totals.ForcedDispatches++
			r.cover.forced = true
		}
		return false
	}
	if r.pol.signal(now) <= r.pol.threshold {
		return false
	}
	if !j.deferred {
		j.deferred = true
		r.totals.DeferredJobs++
	}
	r.cover.held = true
	wake := now.Add(r.pol.check)
	if wake.After(j.release) {
		wake = j.release
	}
	r.arm(pi, wake)
	return true
}

// arm sets the partition's one wake, only ever to an earlier instant.
func (r *refRun) arm(pi int, at time.Time) {
	p := r.parts[pi]
	if p.wakeArmed && !at.Before(p.wakeAt) {
		return
	}
	p.wakeArmed, p.wakeAt = true, at
	r.push(at, pi, nil)
}

// delta is the draw the job adds to an idle node at the given clock.
func (r *refRun) delta(j *refJob, khz int) float64 {
	return r.pm.PlacementDeltaW(perfmodel.Config{Cores: j.tasks, FreqKHz: khz, ThreadsPerCore: j.tpc})
}

// allows reports whether the partition's cap, if any, has room for w
// more watts.
func (p *refPart) allows(w float64) bool {
	return p.CapW == 0 || p.drawW+w <= p.CapW
}

// admits is the submission's budget check: a capped partition refuses a
// job whose least charge as a primary — its draw at the ladder top, or
// in freqcap mode at its cheapest rung — exceeds the cap less the idle
// floor.
func (r *refRun) admits(p *refPart, j *refJob) bool {
	if p.CapW == 0 {
		return true
	}
	ladder := r.node.FrequenciesKHz
	least := r.delta(j, ladder[len(ladder)-1])
	if r.pol.freqCap {
		for _, f := range ladder {
			least = min(least, r.delta(j, f))
		}
	}
	return least <= p.CapW-p.floorW
}

// fit charges a job on an idle node its draw at the ladder top; in
// freqcap mode it walks down the ladder to the fastest rung that fits,
// pinning the job there. A job no rung fits is denied.
func (r *refRun) fit(p *refPart, j *refJob) bool {
	ladder := r.node.FrequenciesKHz
	top := len(ladder) - 1
	if p.allows(r.delta(j, ladder[top])) {
		return true
	}
	if r.pol.freqCap {
		for i := top - 1; i >= 0; i-- {
			if p.allows(r.delta(j, ladder[i])) {
				j.freqKHz = ladder[i]
				r.totals.FreqCapped++
				r.cover.pinned = true
				return true
			}
		}
	}
	r.totals.CapDenials++
	r.cover.denied = true
	return false
}

// start runs a primary on its node at its pinned rung, or at the clock
// the node's governor picks — which is the ladder top: a pin lasts only
// its job — and reports whether it started: a plan past the deadline
// cancels it, the node left free.
func (r *refRun) start(pi int, j *refJob, slot int, now time.Time) bool {
	p := r.parts[pi]
	n := p.nodes[slot].Node
	hj, err := n.StartJob(perfmodel.Config{Cores: j.tasks, FreqKHz: j.freqKHz, ThreadsPerCore: j.tpc})
	if err != nil {
		r.t.Fatalf("reference: starting an accepted job: %v", err)
	}
	dur, _ := j.shape.Plan(n, hj.Config)
	if !j.deadline.IsZero() && now.Add(dur).After(j.deadline) {
		hj.End()
		p.account(j, slurm.StateCancelled, now, 0, 0)
		return false
	}
	p.nodes[slot].holder, j.hwJob = j, hj
	j.sys0, j.cpu0 = n.EnergyJ()
	r.run(pi, j, slot, hj.Config, dur, now)
	return true
}

// place starts a job that found no idle node beside the first host in
// slot order that takes it: a live primary of the other profile, with
// no secondary, neither side unprofiled or exclusive, cores for both,
// and room in the cap for the job's draw at the host's clock. The
// secondary runs its plan at that clock × the penalty, and no deadline
// may fall inside it.
func (r *refRun) place(pi int, j *refJob, now time.Time) bool {
	p := r.parts[pi]
	if r.pol.penalty == 0 || j.shape.Profile == "" || j.exclusive {
		return false
	}
	for slot := range p.nodes {
		n := &p.nodes[slot]
		h := n.holder
		if h == nil || h.hwJob == nil || n.beside != nil || h.exclusive ||
			h.shape.Profile == "" || h.shape.Profile == j.shape.Profile || h.tasks+j.tasks > r.node.Cores {
			continue
		}
		cfg := perfmodel.Config{Cores: j.tasks, FreqKHz: h.hwJob.Config.FreqKHz, ThreadsPerCore: j.tpc}
		if !p.allows(r.pm.PlacementDeltaW(cfg)) {
			continue
		}
		dur, _ := j.shape.Plan(n.Node, cfg)
		if dur <= 0 {
			continue
		}
		if ns := float64(dur) * r.pol.penalty; ns < math.MaxInt64 {
			dur = time.Duration(ns)
		} else {
			dur = math.MaxInt64
		}
		if !j.deadline.IsZero() && now.Add(dur).After(j.deadline) {
			continue
		}
		r.totals.CoScheduled++
		r.cover.paired = true
		n.beside = j
		j.secondary, j.cpuW = true, r.pm.CPUDeltaW(cfg)
		r.run(pi, j, slot, cfg, dur, now)
		return true
	}
	return false
}

// run commits a started job: its plan is cut at its time limit, the
// draw of the configuration it runs in is booked, the peak tracked, and
// its completion armed.
func (r *refRun) run(pi int, j *refJob, slot int, cfg perfmodel.Config, dur time.Duration, now time.Time) {
	p := r.parts[pi]
	if dur > j.limit {
		dur, j.timedOut = j.limit, true
	}
	j.start, j.slot = now, slot
	r.cover.saturated = r.cover.saturated || p.multifactor && now.Sub(j.submit) >= 24*time.Hour
	if p.policy {
		j.drawW = r.pm.PlacementDeltaW(cfg)
		p.drawW += j.drawW
		p.PeakDrawW = max(p.PeakDrawW, p.drawW)
	}
	r.push(now.Add(dur), pi, j)
}

// account folds an ended job into the partition's totals, in the order
// jobs end.
func (p *refPart) account(j *refJob, state slurm.JobState, end time.Time, sysJ, cpuJ float64) {
	t := &p.totals
	t.Jobs++
	switch state {
	case slurm.StateCompleted:
		t.Completed++
	case slurm.StateFailed:
		t.Failed++
	case slurm.StateCancelled:
		t.Cancelled++
	}
	t.SystemKJ += sysJ / 1000
	t.CPUKJ += cpuJ / 1000
	if !j.start.IsZero() {
		secs := end.Sub(j.start).Seconds()
		cpuS := float64(j.tasks) * secs
		t.RuntimeSeconds += secs
		t.CPUSeconds += cpuS
		t.WaitSeconds += j.start.Sub(j.submit).Seconds()
		p.usage[j.uid] += cpuS
		p.deltas = append(p.deltas, refDelta{j.uid, cpuS})
	}
}

// randomSpec draws a small spec from seed: 1–3 partitions of 1–64
// nodes, each multifactor or FIFO, 1–3 clients, at most 500
// submissions, and half the time a policy block (randomPolicy). Task
// counts past the node's cores and three threads per CPU draw
// rejections; time limits under the sleeps draw TimeLimit failures;
// deadlines on deferrable jobs draw cancellations once jobs queue;
// sleeps long enough for queues to outlive a day saturate the age
// factor; and a client whose sleep equals its time limit runs jobs that
// end exactly at their limit.
func randomSpec(seed uint64) workload.Spec {
	rng := rand.New(rand.NewPCG(seed, 0x0ac1e))
	spec := workload.Spec{
		Version: workload.SpecVersion, Name: fmt.Sprintf("reference-%d", seed), Seed: seed,
		Horizon: workload.Duration(48 * time.Hour), MaxSubmissions: 1 + rng.IntN(500),
	}
	var names []string
	for i := range 1 + rng.IntN(3) {
		ps := workload.PartitionSpec{Name: fmt.Sprintf("p%d", i), Nodes: 1 + rng.IntN(1<<rng.IntN(7)), Default: rng.IntN(3) == 0}
		if rng.IntN(2) == 0 {
			ps.MaxTime = workload.Duration(time.Duration(5+rng.IntN(60)) * time.Minute)
		}
		spec.Cluster.Partitions = append(spec.Cluster.Partitions, ps)
		names = append(names, ps.Name)
	}
	processes := []string{workload.ArrivalPoisson, workload.ArrivalGamma, workload.ArrivalWeibull}
	for i := range 1 + rng.IntN(3) {
		c := workload.Client{
			Name:    fmt.Sprintf("c%d", i),
			Arrival: workload.ArrivalSpec{Process: processes[rng.IntN(3)], RatePerHour: float64(10 + rng.IntN(600)), Shape: 0.3 + 2*rng.Float64()},
			Users:   1 + rng.IntN(4),
		}
		j := &c.Jobs
		j.SleepFraction = []float64{0, 0.5, 1}[rng.IntN(3)]
		j.Sleep = workload.Dist{Kind: workload.DistLogNormal, Mu: 4 + 4*rng.Float64(), Sigma: rng.Float64()}
		j.Work = workload.Dist{Kind: workload.DistGamma, Shape: 2, Scale: float64(100 + rng.IntN(2000))}
		j.Tasks = workload.Dist{Kind: workload.DistUniform, Min: 1, Max: float64(1 + rng.IntN(40))}
		j.ThreadsPerCPU = []int{0, 0, 0, 1, 1, 2, 2, 3}[rng.IntN(8)]
		switch rng.IntN(3) {
		case 0: // the cluster default
		case 1:
			j.TimeLimit = workload.Dist{Kind: workload.DistUniform, Min: 30, Max: float64(60 + rng.IntN(1800))}
		case 2: // every sleep job ends exactly at its limit
			secs := float64(60 + rng.IntN(600))
			j.SleepFraction = 1
			j.Sleep = workload.Dist{Kind: workload.DistConstant, Value: secs}
			j.TimeLimit = workload.Dist{Kind: workload.DistConstant, Value: secs}
		}
		if !j.TimeLimit.IsZero() && rng.IntN(2) == 0 {
			j.DeferrableFraction = rng.Float64()
			j.DeadlineSlack = workload.Dist{Kind: workload.DistExponential, Mean: float64(1 + rng.IntN(900))}
		}
		for _, name := range names {
			if rng.IntN(2) == 0 {
				j.Partitions = append(j.Partitions, workload.PartitionWeight{Name: name, Weight: 1 + rng.Float64()})
			}
		}
		spec.Clients = append(spec.Clients, c)
	}
	for i := range spec.Cluster.Partitions {
		if rng.IntN(2) == 0 {
			spec.Cluster.Partitions[i].Policy = "multifactor"
		}
	}
	if rng.IntN(2) == 0 {
		randomPolicy(rng, &spec)
	}
	return spec
}

// randomPolicy gives the spec a policy block. A cap, cluster-wide or on
// one partition, leaves each node 10–90 W over its idle floor, which
// the 18–89 W a job draws sometimes fills: wide jobs wait for draw, and
// on a one-node partition some are refused at submission. The block may
// also co-schedule, at the default penalty or a drawn one, and defer on
// the price or carbon signal at a drawn threshold, max defer and check.
// Clients get the two profiles in turn (some none) and exclusive and
// deferrable fractions.
func randomPolicy(rng *rand.Rand, spec *workload.Spec) {
	idle := slurm.NewPowerModel(clusterCalib).IdleNodeW()
	pol := &workload.PolicySpec{}
	parts := spec.Cluster.Partitions
	total := 0
	for _, ps := range parts {
		total += ps.Nodes
	}
	capped := rng.IntN(4) // none, cluster-wide, one partition's, or both
	if capped&1 != 0 {
		pol.PowerCapW = float64(total) * (idle + 10 + 80*rng.Float64())
	}
	if capped&2 != 0 {
		ps := parts[rng.IntN(len(parts))]
		pol.PartitionCapsW = []workload.PartitionCap{{Name: ps.Name, CapW: float64(ps.Nodes) * (idle + 10 + 80*rng.Float64())}}
	}
	if capped != 0 {
		pol.CapMode = []string{"", "wait", "freqcap"}[rng.IntN(3)]
	}
	if rng.IntN(3) > 0 {
		pol.CoSchedule = true
		if rng.IntN(2) == 0 {
			pol.InterferencePenalty = 1 + rng.Float64()
		}
	}
	if rng.IntN(2) == 0 {
		d := &workload.DeferralSpec{Signal: workload.SignalPrice, Threshold: 0.15 + 0.15*rng.Float64(),
			MaxDefer: workload.Duration(time.Duration(30+rng.IntN(330)) * time.Minute)}
		if rng.IntN(2) == 0 {
			d.Signal, d.Threshold = workload.SignalCarbon, 100+300*rng.Float64()
		}
		if rng.IntN(2) == 0 {
			d.Check = workload.Duration(time.Duration(1+rng.IntN(30)) * time.Minute)
		}
		pol.Deferral = d
	}
	if pol.Label() == "none" {
		pol.CoSchedule = true
	}
	spec.Policy = pol
	profiles := [2]string{workload.ProfileCompute, workload.ProfileMemory}
	first := rng.IntN(2)
	for i := range spec.Clients {
		j := &spec.Clients[i].Jobs
		if rng.IntN(4) > 0 {
			j.Profile = profiles[(first+i)%2]
		}
		if rng.IntN(3) == 0 {
			j.ExclusiveFraction = rng.Float64() / 2
		}
		if pol.Deferral != nil && j.DeferrableFraction == 0 && rng.IntN(2) == 0 {
			j.DeferrableFraction = rng.Float64()
		}
	}
}

// referenceSeeds is the committed corpus, seeds 1 to referenceSeeds:
// every one runs under plain `go test` as FuzzClusterMatchesReference's
// seed corpus.
const referenceSeeds = 128

// checkAgainstReference runs the spec through RunClusterSpec at one
// lane and at GOMAXPROCS lanes and through referenceRun, and requires
// equal reports and byte-identical text.
func checkAgainstReference(t *testing.T, spec workload.Spec) (*ClusterReport, refCoverage) {
	t.Helper()
	want, cov := referenceRun(t, spec)
	var wantText bytes.Buffer
	want.WriteText(&wantText)
	for _, lanes := range []int{1, runtime.GOMAXPROCS(0)} {
		got, err := RunClusterSpec(spec, nil, WithLanes(lanes))
		if err != nil {
			t.Fatalf("%s at %d lanes: %v", spec.Name, lanes, err)
		}
		if pl := got.Policy; pl != nil {
			// The work counters count work, which the reference cannot see.
			pl.SignalReads, pl.PlaceProbes, pl.QueueVisits = 0, 0, 0
		}
		var gotText bytes.Buffer
		got.WriteText(&gotText)
		if !reflect.DeepEqual(got, want) || !bytes.Equal(gotText.Bytes(), wantText.Bytes()) {
			t.Fatalf("%s at %d lanes disagrees with the reference:\n%s\nreference:\n%s", spec.Name, lanes, gotText.Bytes(), wantText.Bytes())
		}
	}
	return want, cov
}

// FuzzClusterMatchesReference differential-tests the cluster run
// against the reference on random specs with no policy block. Kills
// scripts/mutants/fifo-flush-once-per-window.patch,
// fifo-arrival-before-completion.patch, time-limit-inclusive.patch,
// multifactor-tie-newest-first.patch, multifactor-age-unbounded.patch,
// usage-reader-skips-siblings.patch and usage-own-not-credited.patch.
func FuzzClusterMatchesReference(f *testing.F) {
	for seed := range uint64(referenceSeeds) {
		f.Add(seed + 1)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkAgainstReference(t, randomSpec(seed))
	})
}

// TestReferenceCorpusCovers keeps the corpus from going vacuous: across
// it some job waits, some fails its time limit, some misses its
// deadline, some submission is refused, some run has more than one
// partition, some client's sleep equals its time limit; on multifactor
// partitions some job starts ahead of one submitted before it (the
// priority order decides something), some two queued jobs tie and some
// job starts with its age factor saturated; and under the policy
// blocks fit denies a node and pins a rung, a secondary starts and one
// is promoted, hold keeps a job and its bound forces one out, and the
// budget refuses a submission.
func TestReferenceCorpusCovers(t *testing.T) {
	var waited, failed, cancelled, rejected, multi, exact bool
	var seen refCoverage
	for seed := range uint64(referenceSeeds) {
		spec := randomSpec(seed + 1)
		rep, cov := referenceRun(t, spec)
		waited = waited || rep.Totals.WaitSeconds > 0
		failed = failed || rep.Totals.Failed > 0
		cancelled = cancelled || rep.Totals.Cancelled > 0
		rejected = rejected || rep.Rejected > 0
		multi = multi || len(rep.Partitions) > 1
		for _, c := range spec.Clients {
			exact = exact || c.Jobs.Sleep.Kind == workload.DistConstant && c.Jobs.Sleep == c.Jobs.TimeLimit
		}
		seen.add(cov)
	}
	all := refCoverage{true, true, true, true, true, true, true, true, true, true}
	if !waited || !failed || !cancelled || !rejected || !multi || !exact || seen != all {
		t.Fatalf("corpus covers: waits %v, time-limit failures %v, cancellations %v, rejections %v, several partitions %v, sleeps at their limit %v, "+
			"and %+v; want all", waited, failed, cancelled, rejected, multi, exact, seen)
	}
}

// TestClusterCommittedSpecsMatchReference referees four committed
// specs, read in place: the benchmark's cluster-nopolicy, its
// multifactor debug partition beside FIFO batch, cut to 5,000
// submissions; mutual-readers, two multifactor partitions sharing one
// user population beside a FIFO one, each reading both siblings' usage;
// and the two policy specs, the benchmark's cluster-policy and
// powercap-smoke (freqcap cap, co-scheduling and price deferral). In
// mutual-readers the priority order must decide something: some job
// starts ahead of one submitted before it. Under each policy spec some
// job is pinned, paired and held.
func TestClusterCommittedSpecsMatchReference(t *testing.T) {
	bench := func(name string) workload.Spec {
		spec, err := workload.LoadSpec(filepath.Join("bench", "specs", name))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	nopolicy := bench("cluster-nopolicy.json")
	nopolicy.MaxSubmissions = 5000
	for _, row := range []struct {
		spec             workload.Spec
		ordered, policed bool
	}{
		{nopolicy, false, false}, {loadSpec(t, "mutual-readers.json"), true, false},
		{bench("cluster-policy.json"), false, true}, {loadSpec(t, "powercap-smoke.json"), false, true},
	} {
		rep, cov := checkAgainstReference(t, row.spec)
		if rep.Totals.Completed == 0 || len(rep.Partitions) < 2 || row.ordered && !cov.outOfOrder ||
			row.policed && !(cov.pinned && cov.paired && cov.held) {
			t.Errorf("%s: %d completed over %d partitions, coverage %+v", row.spec.Name, rep.Totals.Completed, len(rep.Partitions), cov)
		}
	}
}
