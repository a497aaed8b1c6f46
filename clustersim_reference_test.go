package ecosched

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/workload"
)

// The reference run: the plainest cluster simulation that can referee
// RunClusterSpec on FIFO partitions with no policy block. One
// goroutine, one container/heap of completions ordered by (time,
// partition, seq), plain slices, no pools, no windows, no lanes. It
// shares only the physics and the inputs with the real run: the
// workload generator and Shape.Plan, hw.NewNode with runCluster's names
// and seeds, and a simclock.Sim that is nothing but the nodes' clock,
// moved with SkipTo. It never calls the controller, a partition,
// takeIdle, Accounting or the lane pipeline (DESIGN §7).

// refJob is one accepted submission.
type refJob struct {
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
// and its FIFO queue.
type refPart struct {
	PartitionReport
	maxTime time.Duration
	nodes   []*hw.Node
	busy    []bool
	queue   []*refJob
	totals  slurm.AcctTotals
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
//   - a pass starts queued jobs in submission order, each on the idle
//     node of lowest slot; a job that cannot meet its deadline is
//     cancelled there, and one whose plan exceeds its time limit ends
//     at the limit, failed;
//   - a job is billed its node's energy counters from its start to its
//     end; the run's energy is every node's counters at the makespan,
//     the last arrival or completion.
func referenceRun(t testing.TB, spec workload.Spec) *ClusterReport {
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
		p := &refPart{PartitionReport: PartitionReport{Name: ps.Name, Nodes: ps.Nodes}, maxTime: ps.MaxTime.Std()}
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
			j := &refJob{shape: &s.Shape, tasks: max(s.Tasks, 1), tpc: max(s.ThreadsPerCPU, 1),
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
	return rep
}

// fireThrough fires every completion due at or before t, in (time,
// partition, seq) order, each followed by its partition's pass, and
// returns the later of last and the last instant it fired.
func (r *refRun) fireThrough(t, last time.Time) time.Time {
	for len(r.events) > 0 && !r.events[0].at.After(t) {
		ev := heap.Pop(&r.events).(refEvent)
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
	var kept []*refJob
	for _, j := range p.queue {
		slot := -1
		for k, busy := range p.busy {
			if !busy {
				slot = k
				break
			}
		}
		if slot < 0 {
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
		j.sys0, j.cpu0 = n.EnergyJ()
		if dur > j.limit {
			dur, j.timedOut = j.limit, true
		}
		heap.Push(&r.events, refEvent{at: now.Add(dur), part: pi, seq: r.seq, job: j})
		r.seq++
	}
	p.queue = kept
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
		t.RuntimeSeconds += secs
		t.CPUSeconds += float64(j.tasks) * secs
		t.WaitSeconds += j.start.Sub(j.submit).Seconds()
	}
}

// randomFIFOSpec draws a small FIFO-only spec from seed: 1–3
// partitions of 1–64 nodes, 1–3 clients, at most 500 submissions.
// Task counts past the node's cores and three threads per CPU draw
// rejections; time limits under the sleeps draw TimeLimit failures;
// deadlines on deferrable jobs draw cancellations once jobs queue; and
// a client whose sleep equals its time limit runs jobs that end exactly
// at their limit.
func randomFIFOSpec(seed uint64) workload.Spec {
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
		j.Sleep = workload.Dist{Kind: workload.DistLogNormal, Mu: 4 + 2*rng.Float64(), Sigma: rng.Float64()}
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
	return spec
}

// referenceSeeds is the committed corpus, seeds 1 to referenceSeeds:
// every one runs under plain `go test` as FuzzClusterMatchesReference's
// seed corpus.
const referenceSeeds = 64

// checkAgainstReference runs the spec through RunClusterSpec at one
// lane and at GOMAXPROCS lanes and through referenceRun, and requires
// equal reports and byte-identical text.
func checkAgainstReference(t *testing.T, spec workload.Spec) *ClusterReport {
	t.Helper()
	want := referenceRun(t, spec)
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
	return want
}

// FuzzClusterMatchesReference differential-tests the cluster run
// against the reference on random FIFO-only specs. Kills
// scripts/mutants/fifo-flush-once-per-window.patch,
// fifo-arrival-before-completion.patch and time-limit-inclusive.patch.
func FuzzClusterMatchesReference(f *testing.F) {
	for seed := range uint64(referenceSeeds) {
		f.Add(seed + 1)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkAgainstReference(t, randomFIFOSpec(seed))
	})
}

// TestReferenceCorpusCovers keeps the corpus from going vacuous: across
// it some job waits, some fails its time limit, some misses its
// deadline, some submission is refused, some run has more than one
// partition, and some client's sleep equals its time limit.
func TestReferenceCorpusCovers(t *testing.T) {
	var waited, failed, cancelled, rejected, multi, exact bool
	for seed := range uint64(referenceSeeds) {
		spec := randomFIFOSpec(seed + 1)
		rep := referenceRun(t, spec)
		waited = waited || rep.Totals.WaitSeconds > 0
		failed = failed || rep.Totals.Failed > 0
		cancelled = cancelled || rep.Totals.Cancelled > 0
		rejected = rejected || rep.Rejected > 0
		multi = multi || len(rep.Partitions) > 1
		for _, c := range spec.Clients {
			exact = exact || c.Jobs.Sleep.Kind == workload.DistConstant && c.Jobs.Sleep == c.Jobs.TimeLimit
		}
	}
	if !waited || !failed || !cancelled || !rejected || !multi || !exact {
		t.Fatalf("corpus covers: waits %v, time-limit failures %v, cancellations %v, rejections %v, several partitions %v, sleeps at their limit %v; want all",
			waited, failed, cancelled, rejected, multi, exact)
	}
}

// TestClusterNoPolicyMatchesReference referees the benchmark's
// cluster-nopolicy spec, read in place, with its multifactor partition
// switched to FIFO and the stream cut to 5,000 submissions.
func TestClusterNoPolicyMatchesReference(t *testing.T) {
	spec, err := workload.LoadSpec(filepath.Join("bench", "specs", "cluster-nopolicy.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Cluster.Partitions {
		spec.Cluster.Partitions[i].Policy = ""
	}
	spec.MaxSubmissions = 5000
	rep := checkAgainstReference(t, spec)
	if rep.Totals.Completed == 0 || len(rep.Partitions) != 2 {
		t.Fatalf("cluster-nopolicy cut: %d completed over %d partitions", rep.Totals.Completed, len(rep.Partitions))
	}
}
