package slurm

import (
	"slices"
	"testing"
	"time"

	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// BenchmarkSubmitSteadyState measures the cluster simulator's inner
// loop from the controller's side: one pooled submission through
// SubmitDesc, batched scheduling, job execution and aggregate
// accounting, with the simulator run to idle each iteration. The
// alloc-check make target pins it at 0 allocs/op — the job pool, the
// event pool and the aggregate-only accounting keep the whole
// submit→complete cycle off the heap, and a job is its own completion
// event.
func BenchmarkSubmitSteadyState(b *testing.B) {
	sim := simclock.New()
	ctl, err := NewCluster(sim, DefaultConf(),
		WithNodes(clusterNodes(sim, 4)...),
		WithAggregateAccounting(),
		WithBatchedScheduling(),
	)
	if err != nil {
		b.Fatal(err)
	}
	shape := workload.Sleep("steady", 250*time.Millisecond)
	desc := JobDesc{
		Name:      "steady",
		NumTasks:  32,
		TimeLimit: time.Hour,
		UserID:    1000,
		Shape:     &shape,
	}
	run := func() {
		if _, err := ctl.SubmitDesc(&desc); err != nil {
			b.Fatal(err)
		}
		ctl.Flush() // batched mode: the driver flushes the instant's submissions
		sim.Run()
	}
	// Warm the job pool, event pool and usage slots before measuring.
	for i := 0; i < 512; i++ {
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if got := ctl.Accounting().Totals().Jobs; got < b.N {
		b.Fatalf("completed %d jobs, want >= %d", got, b.N)
	}
}

// policyPassQueue builds the steady state of a saturated capped
// cluster the pass benchmarks time: a full 24-node partition (22 nodes
// already paired, two with primaries too wide to share) and a 160-job
// window under all three policies — 128 Deferrable jobs the signal
// holds, 16 compute-bound jobs with no memory-bound primary to start
// beside, 16 memory-bound jobs with two candidates and room beside
// neither. check fails the benchmark unless the window is still that.
func policyPassQueue(b *testing.B) (c *Controller, check func()) {
	idle, deltas := testLadderWatts()
	sim := simclock.New()
	c, err := tryPolicyCluster(sim, 24, EnergyPolicy{
		CapW: 24 * (idle + 2*deltas[len(deltas)-1]), FreqCap: true, Penalty: 1.25,
		Signal: func(time.Time) float64 { return 1 }, Threshold: 0.5, MaxDefer: 4 * time.Hour, Check: 10 * time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	submit := func(n, tasks int, profile string, deferrable bool) {
		for i := 0; i < n; i++ {
			desc := sleepDesc(tasks, 3*time.Hour, profile)
			desc.Deferrable = deferrable
			if _, err := c.Submit(desc); err != nil {
				b.Fatal(err)
			}
		}
	}
	submit(22, 16, workload.ProfileCompute, false)
	submit(2, 28, workload.ProfileCompute, false)
	submit(22, 8, workload.ProfileMemory, false) // start beside the first 22
	submit(128, 8, workload.ProfileMemory, true)
	submit(16, 8, workload.ProfileCompute, false)
	submit(16, 8, workload.ProfileMemory, false)
	p := c.part
	return c, func() {
		tot := c.PolicyTotals()
		if len(p.pending) != 160 || p.freeN != 0 || tot.CoScheduled != 22 || tot.DeferredJobs != 128 {
			b.Fatalf("%d queued, %d nodes free, totals %+v; want 160 queued behind 24 busy nodes, 22 paired, 128 held",
				len(p.pending), p.freeN, tot)
		}
	}
}

// BenchmarkPolicyPassSaturated measures what the policy decisions cost
// a scheduling pass that walks the whole window and starts nothing: one
// schedulePart over policyPassQueue's 160 jobs, the partition's settled
// record dropped first (its length: the dense kinds are a buffer the
// pass writes again) so the pass asks every job again. The
// alloc-check make target pins it at 0 allocs/op; DESIGN §7 quotes its
// ns/op.
func BenchmarkPolicyPassSaturated(b *testing.B) {
	c, check := policyPassQueue(b)
	p := c.part
	check()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.settled.n = 0
		c.schedulePart(p)
	}
	b.StopTimer()
	check()
}

// BenchmarkPolicyPassCompletion measures the pass a completion leaves
// on that window: one paired primary ends (its secondary takes the
// node, so none is free), which moves the partition's epoch, and its
// pass finds every verdict of the settled record standing — held jobs
// on the signal, the rest on no free node and no fresh host — so its
// pass by kind starts past all 160: every kind in the record is one
// skipMask repeats, and nextAsked finds no job to ask. Each iteration
// moves the epoch as that completion did and runs the pass again.
// alloc-check pins it at 0 allocs/op.
func BenchmarkPolicyPassCompletion(b *testing.B) {
	c, check := policyPassQueue(b)
	p := c.part
	primary := p.nodes[0].current
	if primary == nil || p.nodes[0].coJob == nil {
		b.Fatal("node 0 does not run a paired primary")
	}
	visits := c.PolicyTotals().QueueVisits
	c.completeJob(primary)
	if primary.State != StateCompleted || p.settled.n != 160 || p.settled.epoch != p.epoch {
		b.Fatalf("primary %s, %d jobs settled; want it completed and the window settled after its pass", primary.State, p.settled.n)
	}
	check()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.epoch++
		c.schedulePart(p)
	}
	b.StopTimer()
	check()
	if got := c.PolicyTotals().QueueVisits - visits; got != 0 {
		b.Fatalf("the completion and %d passes looked at %d queued jobs, want none: every record job skipped", b.N, got)
	}
}

// BenchmarkPolicyPassArrival measures the pass one arrival costs on
// that window: a memory-bound job (place probes the two wide primaries
// and refuses) queued behind the 160 settled jobs, which the pass does
// not look at. Each iteration takes the arrival back off the window and
// the settled record (its length, which rewinds the dense kinds, and
// its kind's count), so every pass is the same; the 160 settled jobs'
// kinds must come through untouched.
// alloc-check pins it at 0 allocs/op.
func BenchmarkPolicyPassArrival(b *testing.B) {
	c, check := policyPassQueue(b)
	p := c.part
	arrival, err := c.Submit(sleepDesc(8, 3*time.Hour, workload.ProfileMemory))
	if err != nil {
		b.Fatal(err)
	}
	if arrival.State != StatePending || p.settled.n != 161 || verdict(p.settled.kind[160]) != keptMemory {
		b.Fatalf("arrival %s, %d jobs settled; want it queued behind 160 settled, refused by place", arrival.State, p.settled.n)
	}
	p.pending, p.settled.n = p.pending[:160], 160
	p.settled.kinds[keptMemory]--
	record := p.settled
	kind := slices.Clone(p.settled.kind[:160])
	check()
	visits := c.PolicyTotals().QueueVisits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrival.Reason = "Priority"
		p.pending = append(p.pending, arrival)
		c.schedulePart(p)
		p.pending, p.settled.n = p.pending[:160], 160
		p.settled.kinds[keptMemory]--
	}
	b.StopTimer()
	check()
	if s := p.settled; s.n != record.n || s.kinds != record.kinds || s.epoch != record.epoch || s.release != record.release ||
		s.minCapW != record.minCapW || s.high != record.high || !slices.Equal(s.kind[:160], kind) {
		b.Fatalf("settled record %+v after the passes, want %+v and its 160 kinds unchanged", s, record)
	}
	if got := c.PolicyTotals().QueueVisits - visits; got != int64(b.N) {
		b.Fatalf("%d passes looked at %d queued jobs, want the arrival alone", b.N, got)
	}
}

// BenchmarkAccountingRecordNewest looks up the row of the job that
// ended last among 100,000: the lookup a submitter makes right after
// WaitFor, on a long-lived controller.
func BenchmarkAccountingRecordNewest(b *testing.B) {
	const rows = 100_000
	var a Accounting
	for id := 1; id <= rows; id++ {
		a.appendRow(acctRow{jobID: id})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, ok := a.Record(rows); !ok || r.JobID != rows {
			b.Fatalf("Record(%d) = %+v, %v", rows, r, ok)
		}
	}
}
