package ecosched

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/workload"
)

// The reference run: the plainest cluster simulation that can referee
// RunClusterSpec on FIFO and multifactor partitions with no policy
// block. One goroutine, one container/heap of completions ordered by
// (time, partition, seq), plain slices and maps, no pools, no lanes.
// It shares only the physics and the inputs with the real run: the
// workload generator and Shape.Plan, hw.NewNode with runCluster's names
// and seeds, a simclock.Sim that is nothing but the nodes' clock, moved
// with SkipTo, and laneWindow, the period at which fair-share usage
// crosses partitions. It never calls the controller, a partition,
// takeIdle, orderKeyed, Accounting, the usage exchange or the lane
// pipeline (DESIGN §7).

// refJob is one accepted submission; id is its place in the stream.
type refJob struct {
	id            int
	uid           uint32
	key           float64 // multifactor priority at the last pass
	shape         *workload.Shape
	tasks, tpc    int
	limit         time.Duration
	deadline      time.Time
	submit, start time.Time
	slot          int // the node it runs on, by slot
	hwJob         *hw.Job
	sys0, cpu0    float64 // the node's energy counters at its start
	timedOut      bool
}

// refPart is one partition: its nodes in slot order, which are busy,
// its queue, and the fair-share usage it sees by user, with the usage
// its own jobs added this window for its siblings.
type refPart struct {
	PartitionReport
	maxTime     time.Duration
	multifactor bool
	nodes       []*hw.Node
	busy        []bool
	queue       []*refJob
	totals      slurm.AcctTotals
	usage       map[uint32]float64
	deltas      []refDelta
}

type refDelta struct {
	uid  uint32
	cpuS float64
}

// refCoverage is what the run saw multifactor passes do.
type refCoverage struct {
	outOfOrder bool // a job started while one submitted before it stayed queued
	tie        bool // two queued jobs had equal keys
	saturated  bool // a job started after waiting a day or more
}

// refEvent is a job's completion.
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
	parts  []*refPart
	events refEvents
	seq    int
	window time.Duration // the usage window the run is in, counted from the epoch
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
//   - at each instant, the completions due fire first, each followed by
//     a pass; then the instant's arrivals queue, and every partition
//     that queued one runs one pass;
//   - a pass starts queued jobs in order, each on the idle node of
//     lowest slot; a job that cannot meet its deadline is cancelled
//     there, and one whose plan exceeds its time limit ends at the
//     limit, failed. A FIFO queue's order is submission order. A
//     multifactor queue is sorted by key, descending, ties in
//     submission order. The key is 1000·min(age/24h, 1) +
//     100·max(1 − tasks/32, 0) + 2000·115200/(115200 + usage), usage
//     being the CPU-seconds the partition has seen its user's jobs run;
//   - a started job's tasks × runtime counts as its user's usage in its
//     own partition when it ends. The run is cut into windows of
//     laneWindow from the epoch; on first entering a later window, each
//     multifactor partition adds its siblings' usage of the window just
//     ended, sibling by sibling in config order;
//   - a job is billed its node's energy counters from its start to its
//     end; the run's energy is every node's counters at the makespan,
//     the last arrival or completion.
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

	r := &refRun{t: t, clock: simclock.NewAt(simclock.Epoch)}
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
			ns := hw.DefaultSpec()
			ns.Name = fmt.Sprintf("%s-%04d", ps.Name, k+1)
			n := hw.NewNode(r.clock, ns, clusterCalib, spec.Seed+uint64(len(nodes))*clusterSeedStride+1)
			p.nodes = append(p.nodes, n)
			nodes = append(nodes, n)
		}
		p.busy = make([]bool, ps.Nodes)
		r.parts = append(r.parts, p)
	}
	node := hw.DefaultSpec()
	defaultLimit := slurm.DefaultConf().DefaultTimeLimit

	last := simclock.Epoch
	for i := 0; i < len(subs); {
		at := subs[i].At
		last = r.fireThrough(at, last)
		r.enter(at)
		r.clock.SkipTo(at)
		last = at
		queued := make([]bool, len(r.parts))
		for ; i < len(subs) && subs[i].At.Equal(at); i++ {
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
				limit: s.TimeLimit, deadline: s.Deadline, submit: at}
			if pi < 0 || j.tasks > node.Cores || j.tpc > node.ThreadsPerCore {
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
	last = r.fireThrough(time.Unix(1<<62, 0), last) // the run-out: every completion left

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
	r.clock.SkipTo(last)
	for _, n := range nodes {
		sysJ, cpuJ := n.EnergyJ()
		rep.ClusterSystemKJ += sysJ / 1000
		rep.ClusterCPUKJ += cpuJ / 1000
	}
	return rep, r.cover
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

// fireThrough fires every completion due at or before t, in (time,
// partition, seq) order, each followed by its partition's pass, and
// returns the later of last and the last instant it fired.
func (r *refRun) fireThrough(t, last time.Time) time.Time {
	for len(r.events) > 0 && !r.events[0].at.After(t) {
		ev := heap.Pop(&r.events).(refEvent)
		r.enter(ev.at)
		r.clock.SkipTo(ev.at)
		last = ev.at
		p, j := r.parts[ev.part], ev.job
		j.hwJob.End()
		p.busy[j.slot] = false
		sys1, cpu1 := p.nodes[j.slot].EnergyJ()
		state := slurm.StateCompleted
		if j.timedOut {
			state = slurm.StateFailed
		}
		p.account(j, state, ev.at, sys1-j.sys0, cpu1-j.cpu0)
		r.pass(ev.part)
	}
	return last
}

// pass starts the partition's queued jobs in order on its idle nodes,
// lowest slot first. Every node is hw.DefaultSpec, so every job
// submission accepted fits every node.
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
	for _, j := range p.queue {
		slot := -1
		for k, busy := range p.busy {
			if !busy {
				slot = k
				break
			}
		}
		if slot < 0 {
			if firstKept < 0 || j.id < firstKept {
				firstKept = j.id
			}
			kept = append(kept, j)
			continue
		}
		n := p.nodes[slot]
		hj, err := n.StartJob(perfmodel.Config{Cores: j.tasks, ThreadsPerCore: j.tpc})
		if err != nil {
			r.t.Fatalf("reference: starting an accepted job: %v", err)
		}
		dur, _ := j.shape.Plan(n, hj.Config)
		if !j.deadline.IsZero() && now.Add(dur).After(j.deadline) {
			hj.End()
			p.account(j, slurm.StateCancelled, now, 0, 0)
			continue
		}
		p.busy[slot] = true
		j.start, j.slot, j.hwJob = now, slot, hj
		lastStarted = max(lastStarted, j.id)
		r.cover.saturated = r.cover.saturated || p.multifactor && now.Sub(j.submit) >= 24*time.Hour
		j.sys0, j.cpu0 = n.EnergyJ()
		if dur > j.limit {
			dur, j.timedOut = j.limit, true
		}
		heap.Push(&r.events, refEvent{at: now.Add(dur), part: pi, seq: r.seq, job: j})
		r.seq++
	}
	p.queue = kept
	r.cover.outOfOrder = r.cover.outOfOrder || p.multifactor && firstKept >= 0 && firstKept < lastStarted
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

// randomSpec draws a small spec with no policy block from seed: 1–3
// partitions of 1–64 nodes, each multifactor or FIFO, 1–3 clients, at
// most 500 submissions. Task counts past the node's cores and three
// threads per CPU draw rejections; time limits under the sleeps draw
// TimeLimit failures; deadlines on deferrable jobs draw cancellations
// once jobs queue; sleeps long enough for queues to outlive a day
// saturate the age factor; and a client whose sleep equals its time
// limit runs jobs that end exactly at their limit.
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
	return spec
}

// referenceSeeds is the committed corpus, seeds 1 to referenceSeeds:
// every one runs under plain `go test` as FuzzClusterMatchesReference's
// seed corpus.
const referenceSeeds = 64

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
// partition, some client's sleep equals its time limit, and on
// multifactor partitions some job starts ahead of one submitted before
// it (the priority order decides something), some two queued jobs tie
// and some job starts with its age factor saturated.
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
		seen.outOfOrder = seen.outOfOrder || cov.outOfOrder
		seen.tie = seen.tie || cov.tie
		seen.saturated = seen.saturated || cov.saturated
	}
	if !waited || !failed || !cancelled || !rejected || !multi || !exact || !seen.outOfOrder || !seen.tie || !seen.saturated {
		t.Fatalf("corpus covers: waits %v, time-limit failures %v, cancellations %v, rejections %v, several partitions %v, sleeps at their limit %v, "+
			"multifactor starts out of submission order %v, equal keys %v, saturated ages %v; want all",
			waited, failed, cancelled, rejected, multi, exact, seen.outOfOrder, seen.tie, seen.saturated)
	}
}

// TestClusterNoPolicyMatchesReference referees two committed specs
// with no policy block, read in place: the benchmark's
// cluster-nopolicy, its multifactor debug partition beside FIFO batch,
// cut to 5,000 submissions; and mutual-readers, two multifactor
// partitions sharing one user population beside a FIFO one, each
// reading both siblings' usage. In mutual-readers the priority order
// must decide something: some job starts ahead of one submitted before
// it.
func TestClusterNoPolicyMatchesReference(t *testing.T) {
	nopolicy, err := workload.LoadSpec(filepath.Join("bench", "specs", "cluster-nopolicy.json"))
	if err != nil {
		t.Fatal(err)
	}
	nopolicy.MaxSubmissions = 5000
	for _, row := range []struct {
		spec    workload.Spec
		ordered bool
	}{{nopolicy, false}, {loadSpec(t, "mutual-readers.json"), true}} {
		rep, cov := checkAgainstReference(t, row.spec)
		if rep.Totals.Completed == 0 || len(rep.Partitions) < 2 || row.ordered && !cov.outOfOrder {
			t.Errorf("%s: %d completed over %d partitions, a multifactor job started out of submission order: %v",
				row.spec.Name, rep.Totals.Completed, len(rep.Partitions), cov.outOfOrder)
		}
	}
}
