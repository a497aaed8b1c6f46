package slurm

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

func clusterNodes(sim *simclock.Sim, n int) []*hw.Node {
	nodes := make([]*hw.Node, n)
	for i := range nodes {
		spec := hw.DefaultSpec()
		if n > 1 {
			spec.Name = spec.Name + string(rune('a'+i))
		}
		nodes[i] = hw.NewNode(sim, spec, perfmodel.Default(), uint64(i+1))
	}
	return nodes
}

// TestClusterOptionErrors exercises the construction error paths.
func TestClusterOptionErrors(t *testing.T) {
	sim := simclock.New()
	nodes := clusterNodes(sim, 1)
	cases := []struct {
		name string
		conf Conf
		opts []ClusterOption
	}{
		{"no nodes", DefaultConf(), nil},
		{"no partition", Conf{}, []ClusterOption{WithNodes(nodes...)}},
		{"duplicate node", DefaultConf(), []ClusterOption{WithNodes(nodes[0], nodes[0])}},
		{"node too wide", DefaultConf(), []ClusterOption{WithNodes(wideNode(sim, maxNodeWidth+1, 1))}},
		{"threads too wide", DefaultConf(), []ClusterOption{WithNodes(wideNode(sim, 1, maxNodeWidth+1))}},
	}
	for _, c := range cases {
		if _, err := NewCluster(sim, c.conf, c.opts...); err == nil {
			t.Errorf("%s: NewCluster succeeded, want error", c.name)
		}
	}
}

// wideNode is a node with the given cores and threads per core.
func wideNode(sim *simclock.Sim, cores, threads int) *hw.Node {
	spec := hw.DefaultSpec()
	spec.Cores, spec.ThreadsPerCore = cores, threads
	return hw.NewNode(sim, spec, perfmodel.Default(), 1)
}

// TestRegisterWorkloadPaths runs jobs on registered binaries: the first
// path, held inline, and later ones, in the map, each registered again
// with another shape; a path never registered runs the unknown
// workload. Registering the first path allocates nothing, so a sweep
// stack that registers the one HPCG shape pays for no map.
func TestRegisterWorkloadPaths(t *testing.T) {
	sim := simclock.New()
	c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...))
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range []string{"/bin/a", "/bin/b", "/bin/c", "/bin/a", "/bin/b"} {
		c.RegisterWorkload(path, workload.Sleep("app", time.Duration(i+1)*time.Minute))
	}
	for _, tc := range []struct {
		path string
		want time.Duration
	}{{"/bin/a", 4 * time.Minute}, {"/bin/b", 5 * time.Minute}, {"/bin/c", 3 * time.Minute}, {"/bin/none", unknownWorkload.Duration}} {
		job, err := c.Submit(JobDesc{BinaryPath: tc.path})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitFor(job.ID); err != nil {
			t.Fatal(err)
		}
		if rec, _ := c.Accounting().Record(job.ID); rec.Runtime() != tc.want {
			t.Errorf("%s ran %v, want %v", tc.path, rec.Runtime(), tc.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var fresh Controller
		fresh.RegisterWorkload("/opt/hpcg/xhpcg", workload.FixedWork("hpcg", 24000))
	}); allocs != 0 {
		t.Fatalf("registering a controller's first workload allocates %.0f times, want 0", allocs)
	}
}

// TestShapeDrivenSubmission runs a job described by a workload.Shape
// instead of a registered binary, and checks the planned runtime and
// accounting match the registry path byte for byte.
func TestShapeDrivenSubmission(t *testing.T) {
	run := func(desc JobDesc) AcctRecord {
		sim := simclock.New()
		c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...))
		if err != nil {
			t.Fatal(err)
		}
		c.RegisterWorkload("/opt/hpcg/xhpcg", workload.FixedWork("hpcg", 24000))
		job, err := c.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		rec, ok := c.Accounting().Record(job.ID)
		if !ok {
			t.Fatal("no accounting record")
		}
		return rec
	}

	base := JobDesc{Name: "s", NumTasks: 32, MaxFreqKHz: 2_500_000, TimeLimit: time.Hour}

	viaRegistry := base
	viaRegistry.BinaryPath = "/opt/hpcg/xhpcg"
	shape := workload.FixedWork("hpcg", 24000)
	viaShape := base
	viaShape.Shape = &shape

	a, b := run(viaRegistry), run(viaShape)
	if a.Runtime() != b.Runtime() || math.Abs(a.SystemKJ-b.SystemKJ) > 1e-9 {
		t.Fatalf("shape path diverges from registry path: %+v vs %+v", a, b)
	}
	if a.Runtime() == 0 {
		t.Fatal("job did not run")
	}

	sleep := workload.Sleep("nap", 7*time.Minute)
	viaSleep := base
	viaSleep.Shape = &sleep
	if got := run(viaSleep).Runtime(); got != 7*time.Minute {
		t.Fatalf("sleep shape ran %v, want 7m", got)
	}
}

// TestAggregateAccounting checks WithAggregateAccounting keeps totals,
// drops rows, and retires jobs: WaitFor no longer finds one, and its
// record serves the next submission, zeroed.
func TestAggregateAccounting(t *testing.T) {
	sim := simclock.New()
	c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...),
		WithAggregateAccounting())
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterWorkload("/bin/app", workload.Sleep("app", time.Minute))
	first, err := c.Submit(JobDesc{Name: "a", BinaryPath: "/bin/app", TimeLimit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if _, live := c.Job(first.ID); live {
		t.Fatal("terminal job not retired in aggregate mode")
	}
	if _, err := c.WaitFor(first.ID); err == nil {
		t.Fatal("WaitFor found a retired job")
	}
	if _, err := c.Submit(JobDesc{Name: "b", BinaryPath: "/bin/app", TimeLimit: time.Hour}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	tot := c.Accounting().Totals()
	if tot.Jobs != 2 || tot.Completed != 2 {
		t.Fatalf("totals = %+v, want 2 completed", tot)
	}
	if len(c.Accounting().Records()) != 0 {
		t.Fatal("aggregate mode kept per-job rows")
	}
	if tot.RuntimeSeconds != 120 {
		t.Fatalf("runtime seconds = %g, want 120", tot.RuntimeSeconds)
	}
	if tot.SystemKJ <= 0 {
		t.Fatal("no energy accounted")
	}

	// A record the deferral policy held comes back zeroed: the next
	// submission handed it is not deferred and carries its own release
	// bound, not one from another job's submit time.
	t.Run("held record recycled", func(t *testing.T) {
		sim := simclock.New()
		high := true
		c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...), WithAggregateAccounting(),
			WithEnergyPolicy(EnergyPolicy{
				Signal: func(time.Time) float64 {
					if high {
						return 1
					}
					return 0
				},
				Threshold: 0.5, MaxDefer: 2 * time.Hour, Check: 10 * time.Minute,
			}))
		if err != nil {
			t.Fatal(err)
		}
		app := workload.Sleep("app", 10*time.Minute)
		desc := JobDesc{Name: "j", NumTasks: 4, TimeLimit: time.Hour, Shape: &app, Deferrable: true}
		b, err := c.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		if b.Reason != reasonEnergyHold || !b.deferred || b.releaseTick == 0 {
			t.Fatalf("job 1 = %s (%q), deferred %v, release bound %d; want held with its bound cached", b.State, b.Reason, b.deferred, b.releaseTick)
		}
		high = false
		sim.Run() // the wake releases it; it runs, completes and is retired
		if _, live := c.Job(1); live || c.Accounting().Totals().Completed != 1 {
			t.Fatalf("job 1 live %v, totals %+v; want it completed and retired", live, c.Accounting().Totals())
		}
		d, err := c.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		if d != b {
			t.Fatal("the pooled record was not reused; the scenario no longer tests recycling")
		}
		if d.ID != 2 || d.State != StateRunning || d.deferred || d.releaseTick != int64(d.SubmitTime)+int64(2*time.Hour) {
			t.Fatalf("job %d = %s, deferred %v, release bound %d (submitted %v)", d.ID, d.State, d.deferred, d.releaseTick, d.SubmitTime)
		}
		if tot := c.PolicyTotals(); tot.DeferredJobs != 1 || tot.ForcedDispatches != 0 {
			t.Fatalf("totals = %+v, want one job deferred, none forced", tot)
		}
	})
}

// TestConstructionOptionsWiring checks WithMultifactor takes effect at
// construction and an unknown binary runs the one-minute default.
func TestConstructionOptionsWiring(t *testing.T) {
	sim := simclock.New()
	c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...), WithMultifactor())
	if err != nil {
		t.Fatal(err)
	}
	if !c.part.multifactor || c.part.maxCores != 32 {
		t.Fatalf("multifactor %v over a widest node of %d cores, want true over 32", c.part.multifactor, c.part.maxCores)
	}
	job, err := c.Submit(JobDesc{Name: "x", BinaryPath: "/no/such", TimeLimit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(done.EndTime - done.StartTime); d != time.Minute {
		t.Fatalf("fallback runtime = %v, want 1m", d)
	}
}

// TestJobTableGrowthMatchesMapOracle holds the live-job lookup against
// a plain map of the live jobs in both accounting modes: as thousands
// of submissions on a four-node controller queue, run and end out of
// id order, Job and Squeue must agree with the map every 512
// submissions and once the queue has drained.
func TestJobTableGrowthMatchesMapOracle(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []ClusterOption
	}{{"paper", nil}, {"aggregate", []ClusterOption{WithAggregateAccounting()}}} {
		t.Run(mode.name, func(t *testing.T) {
			sim := simclock.New()
			c, err := NewCluster(sim, DefaultConf(), append([]ClusterOption{WithNodes(clusterNodes(sim, 4)...)}, mode.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			// Mostly short jobs, now and then one that pins its node
			// for hours: jobs end out of id order.
			lengths := []time.Duration{30 * time.Second, time.Minute, 3 * time.Minute, 4 * time.Minute, 6 * time.Hour}
			for i, d := range lengths {
				c.RegisterWorkload(fmt.Sprintf("/bin/app%d", i), workload.Sleep("app", d))
			}
			// An oracle entry is live while its record carries its id (the
			// aggregate mode recycles ended records) and has not ended.
			live := map[int]*Job{}
			late := 0 // jobs that ended while a job with a smaller id was live
			prune := func() {
				oldest := math.MaxInt
				for id, j := range live {
					if j.ID == id && !j.State.Terminal() {
						oldest = min(oldest, id)
					}
				}
				for id, j := range live {
					if j.ID != id || j.State.Terminal() {
						delete(live, id)
						if id > oldest {
							late++
						}
					}
				}
			}

			check := func(when string) {
				t.Helper()
				prune()
				for id := 0; id <= c.nextID+1; id++ {
					got, ok := c.Job(id)
					if want := live[id]; got != want || ok != (want != nil) {
						t.Fatalf("%s: Job(%d) = %p, %v; oracle %p", when, id, got, ok, want)
					}
				}
				queue := c.Squeue()
				if len(queue) != len(live) {
					t.Fatalf("%s: Squeue lists %d jobs, oracle holds %d", when, len(queue), len(live))
				}
				for i, j := range queue {
					if live[j.ID] != j {
						t.Fatalf("%s: Squeue[%d] is job %d, not the oracle's record", when, i, j.ID)
					}
				}
			}

			rng := simclock.NewRNG(7)
			for i := 0; i < 8192; i++ {
				app := rng.Intn(len(lengths) - 1)
				if rng.Intn(400) == 0 {
					app = len(lengths) - 1
				}
				job, err := c.Submit(JobDesc{Name: "j", BinaryPath: fmt.Sprintf("/bin/app%d", app), TimeLimit: 8 * time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				live[job.ID] = job
				if i%512 == 0 {
					check(fmt.Sprintf("after job %d", job.ID))
				}
				sim.RunFor(time.Minute)
				prune()
			}
			check("at the last submission")
			sim.Run()
			check("drained")
			if late == 0 || len(live) != 0 {
				t.Fatalf("%d jobs ended out of id order, %d left live; want some and none", late, len(live))
			}
		})
	}
}

// TestLiveJobLookupFindsCoScheduledJobs: a co-scheduled secondary is
// live while it runs beside its primary, and still live once the
// primary ends and it takes the node: Job and Squeue find it in both
// places, and WaitFor waits it out. Kills
// scripts/mutants/live-job-walk-skips-cojob.patch.
func TestLiveJobLookupFindsCoScheduledJobs(t *testing.T) {
	_, c := newPolicyCluster(t, 1, EnergyPolicy{Penalty: 1.25})
	pri, err := c.Submit(sleepDesc(16, 10*time.Minute, workload.ProfileCompute))
	if err != nil {
		t.Fatal(err)
	}
	sec, err := c.Submit(sleepDesc(8, 30*time.Minute, workload.ProfileMemory))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(sleepDesc(16, time.Minute, workload.ProfileCompute))
	if err != nil {
		t.Fatal(err)
	}
	n := c.part.nodes[0]
	if n.current != pri || n.coJob != sec || queued.State != StatePending {
		t.Fatalf("node runs %v beside %v, third job %s; want the pair running and the third queued", n.current, n.coJob, queued.State)
	}
	lookup := func(when string, want ...*Job) {
		t.Helper()
		for _, j := range want {
			if got, ok := c.Job(j.ID); !ok || got != j {
				t.Fatalf("%s: Job(%d) = %v, %v; want %v", when, j.ID, got, ok, j)
			}
		}
		if q := c.Squeue(); !reflect.DeepEqual(q, want) {
			t.Fatalf("%s: Squeue = %v, want %v", when, q, want)
		}
	}
	lookup("paired", queued, pri, sec)

	if _, err := c.WaitFor(pri.ID); err != nil {
		t.Fatal(err)
	}
	// The primary's end promoted the secondary to the node's occupant.
	// A promoted secondary runs no hardware job to pair beside, so the
	// third job stays queued.
	if n.current != sec || n.coJob != nil {
		t.Fatalf("after the primary: node runs %v beside %v, want the promoted secondary alone", n.current, n.coJob)
	}
	if _, ok := c.Job(pri.ID); ok {
		t.Fatal("the ended primary is still live")
	}
	lookup("promoted", queued, sec)

	done, err := c.WaitFor(sec.ID)
	if err != nil || done != sec || sec.State != StateCompleted {
		t.Fatalf("WaitFor(secondary) = %v, %v; want it completed", done, err)
	}
}

// TestAccountingChunksMatchOneSlice pins the accounting table's chunk
// rule against the single slice it replaced: rows finishing out of id
// order, through chunk 0's doublings and two full chunks, read back
// the same through Records and Record; a full chunk is never moved;
// and one job's row is one allocation, as it was.
func TestAccountingChunksMatchOneSlice(t *testing.T) {
	var a Accounting
	var oracle []acctRow
	n := 2*acctChunkSize + 3
	var full *acctRow // chunk 0's first row once chunk 0 is full
	for i := 0; i < n; i++ {
		r := acctRow{jobID: (i*7919)%n + 1, name: fmt.Sprint("j", i), systemKJ: float64(i)}
		a.appendRow(r)
		oracle = append(oracle, r)
		if len(a.chunk0) == acctChunkSize && full == nil {
			full = &a.chunk0[0]
		}
	}
	if full != &a.chunk0[0] || cap(a.chunk0) != acctChunkSize || len(a.chunks) != 2 || cap(a.chunks[0]) != acctChunkSize || len(a.chunks[1]) != 3 {
		t.Fatalf("table shape: chunk 0 %d/%d rows (moved: %v), %d more chunks", len(a.chunk0), cap(a.chunk0), full != &a.chunk0[0], len(a.chunks))
	}
	sort.Slice(oracle, func(i, j int) bool { return oracle[i].jobID < oracle[j].jobID })
	want := make([]AcctRecord, len(oracle))
	for i := range oracle {
		want[i] = oracle[i].rec()
	}
	if got := a.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Records differs from the one-slice table (%d rows, want %d)", len(got), len(want))
	}
	for _, w := range want {
		if got, ok := a.Record(w.JobID); !ok || got != w {
			t.Fatalf("Record(%d) = %+v, %v; want %+v", w.JobID, got, ok, w)
		}
	}
	if _, ok := a.Record(n + 1); ok {
		t.Fatal("Record found a job that never ran")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var one Accounting
		one.appendRow(acctRow{jobID: 1})
	}); allocs != 1 {
		t.Fatalf("one job's row allocates %.0f times, want 1", allocs)
	}
}

// TestAccountingRowSize pins the stored row's size: on the paper path
// it is all the heap a finished job keeps
// (TestSubmitRetainsOnlyTheAccountingRow), 176 B while it held an
// AcctRecord.
func TestAccountingRowSize(t *testing.T) {
	if got := unsafe.Sizeof(acctRow{}); got > 104 {
		t.Fatalf("unsafe.Sizeof(acctRow{}) = %d, want at most 104: a long-lived controller keeps one per finished job", got)
	}
}

// TestAccountingRowsMatchOracle is a differential test of the stored
// row against the AcctRecord rows it replaced, kept in a plain slice:
// random terminal jobs — completed, failed at their time limit or at
// start, cancelled before they started — recorded out of id order, in
// tables from empty through chunk 0's doublings and across full-chunk
// boundaries, with extreme field values and clocks from just after the
// Unix epoch to the end of the tick range, must read back through
// Records, every Record(id) and FormatSacct exactly as the oracle's,
// times in UTC included.
func TestAccountingRowsMatchOracle(t *testing.T) {
	rng := simclock.NewRNG(53)
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
	floats := []float64{0, math.Copysign(0, -1), 1e-3, 1234.5678, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.Float64() * 1e6
	}
	// Clock starts: the simulator's epoch, and the ends of the range a
	// clock covers, just after the Unix epoch to 2262-04-11.
	starts := [][6]int{{2023, 5, 10, 3, 0, 0}, {2262, 4, 10, 0, 0, 0}, {1970, 1, 1, 0, 0, 1}}
	sizes := []int{0, 1, 2, 3, 5, acctChunkSize - 1, acctChunkSize, acctChunkSize + 1, 2 * acctChunkSize, 3*acctChunkSize + 7}
	tick := func(t time.Time) simclock.Tick { return simclock.Tick(t.UnixNano()) }
	for trial := 0; trial < 3*len(sizes); trial++ {
		n := sizes[trial%len(sizes)]
		st := starts[trial%len(starts)]
		epoch := time.Date(st[0], time.Month(st[1]), st[2], st[3], st[4], st[5], 0, time.UTC)

		ids := make([]int, n)
		for i := range ids {
			ids[i] = i + 1
		}
		if n > 0 && trial%2 == 1 {
			ids[n-1] = math.MaxInt
		}
		order := make([]int, n) // the order the jobs end in
		for i := range order {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], i
		}
		var a Accounting
		var oracle []AcctRecord
		for _, k := range order {
			// Times as the clock stamps them: the epoch advanced by a
			// duration, in nanoseconds.
			submit := epoch.Add(time.Duration(rng.Intn(int(12 * time.Hour))))
			job := &Job{
				ID:         ids[k],
				SubmitTime: tick(submit),
				NodeName:   []string{"", "n0", "node-with-a-long-name-0123456789"}[rng.Intn(3)],
				SystemJ:    float(),
				CPUJ:       float(),
				GFLOPS:     float(),
				Desc: JobDesc{
					Name:          []string{"", "HPCG_BENCHMARK", fmt.Sprint("job-", k)}[rng.Intn(3)],
					NumTasks:      pick(1, 2, 32, maxNodeWidth, 1+rng.Intn(maxNodeWidth)),
					ThreadsPerCPU: pick(1, 2, maxNodeWidth, 1+rng.Intn(maxNodeWidth)),
					MaxFreqKHz:    pick(0, 2_200_000, -1, math.MaxInt, math.MinInt, rng.Intn(5_000_000)),
				},
			}
			d := time.Duration(rng.Intn(int(6 * time.Hour)))
			var start, end time.Time
			switch kind := rng.Intn(4); kind {
			case 0, 1: // completed, or failed at its time limit
				job.State = []JobState{StateCompleted, StateFailed}[kind]
				start = submit.Add(d)
				end = start.Add(time.Duration(rng.Intn(int(6 * time.Hour))))
				job.StartTime = tick(start)
			default: // failed at start, or cancelled before it
				job.State = []JobState{StateFailed, StateCancelled}[kind-2]
				end = submit.Add(d)
			}
			job.EndTime = tick(end)
			a.record(job)
			oracle = append(oracle, AcctRecord{
				JobID:      job.ID,
				Name:       job.Desc.Name,
				State:      job.State,
				NodeName:   job.NodeName,
				Cores:      job.Desc.NumTasks,
				FreqKHz:    job.Desc.MaxFreqKHz,
				ThreadsPer: job.Desc.ThreadsPerCPU,
				Submit:     submit,
				Start:      start,
				End:        end,
				SystemKJ:   job.SystemJ / 1000,
				CPUKJ:      job.CPUJ / 1000,
				GFLOPS:     job.GFLOPS,
			})
		}
		sort.Slice(oracle, func(i, j int) bool { return oracle[i].JobID < oracle[j].JobID })

		got := a.Records()
		if len(got) != len(oracle) || (n == 0) != (got == nil) {
			t.Fatalf("trial %d: Records holds %d rows (nil: %v), oracle %d", trial, len(got), got == nil, len(oracle))
		}
		for i, want := range oracle {
			if !sameRecord(got[i], want) {
				t.Fatalf("trial %d: Records()[%d] = %+v, oracle %+v", trial, i, got[i], want)
			}
			if r, ok := a.Record(want.JobID); !ok || !sameRecord(r, want) {
				t.Fatalf("trial %d: Record(%d) = %+v, %v; oracle %+v", trial, want.JobID, r, ok, want)
			}
		}
		if _, ok := a.Record(0); ok {
			t.Fatalf("trial %d: Record(0) found a row", trial)
		}
		if got, want := (&Controller{acct: &a}).FormatSacct(), formatSacct(oracle); got != want {
			t.Fatalf("trial %d: FormatSacct differs from the oracle's:\n%s\nwant\n%s", trial, got, want)
		}
	}
}

// sameRecord reports whether two records are identical: times in their
// representation and location, floats bit for bit (NaN and −0
// included).
func sameRecord(a, b AcctRecord) bool {
	bits := func(r *AcctRecord) [3]uint64 {
		out := [3]uint64{math.Float64bits(r.SystemKJ), math.Float64bits(r.CPUKJ), math.Float64bits(r.GFLOPS)}
		r.SystemKJ, r.CPUKJ, r.GFLOPS = 0, 0, 0
		return out
	}
	return bits(&a) == bits(&b) && a == b
}

// TestDeepQueueAllocatesNothing holds a four-node FIFO partition at a
// standing backlog of 1,000 jobs, so every completion's pass starts one
// job and slides the pending window forward, and runs 20,000 cycles of
// one completion and one submission: the window drifts through its
// backing array twenty times, and compacting it in place must allocate
// nothing. The slots past the live window must hold no job, so the
// array keeps none alive that left the queue. A per-op benchmark would
// round the few reallocations a drifting append makes to 0 allocs/op.
func TestDeepQueueAllocatesNothing(t *testing.T) {
	const backlog, cycles = 1000, 20_000
	sim := simclock.New()
	c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 4)...),
		WithAggregateAccounting(), WithBatchedScheduling())
	if err != nil {
		t.Fatal(err)
	}
	desc := sleepDesc(32, time.Hour, "")
	submit := func() {
		if _, err := c.SubmitDesc(&desc); err != nil {
			t.Fatal(err)
		}
		c.Flush()
	}
	for range backlog + 4 {
		submit()
	}
	p := c.part
	cycle := func() {
		for done := c.Accounting().Totals().Jobs; c.Accounting().Totals().Jobs == done; {
			sim.Step()
		}
		submit()
	}
	for range 4 * backlog {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for range cycles {
			cycle()
			if len(p.pending) != backlog {
				t.Fatalf("%d jobs queued, want a standing backlog of %d", len(p.pending), backlog)
			}
			for i, j := range p.pending[backlog:cap(p.pending)] {
				if j != nil {
					t.Fatalf("slot %d past the %d queued jobs holds job %d", i, backlog, j.ID)
				}
			}
		}
	}); allocs != 0 {
		t.Fatalf("%d completions and submissions on a %d-job queue allocate %.0f times, want 0", cycles, backlog, allocs)
	}
}
