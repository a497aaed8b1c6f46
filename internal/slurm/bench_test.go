package slurm

import (
	"testing"
	"time"

	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// BenchmarkSubmitSteadyState measures the cluster simulator's inner
// loop from the controller's side: one pooled submission through
// SubmitDesc, batched scheduling, job execution and aggregate
// accounting, with the simulator drained to idle each iteration. The
// alloc-check make target pins it at 0 allocs/op — the job pool, the
// chunked job arena, the event pool and the aggregate-only accounting
// keep the whole submit→complete cycle off the heap. (A fresh 8 KiB
// arena chunk every 8192 job ids is the one amortised allocation;
// it rounds to zero at any benchtime.)
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
	// Warm the job pool, event pool, usage slots and the first arena
	// chunk before measuring.
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

// BenchmarkPolicyPassSaturated measures what the policy decisions cost
// a scheduling pass that can start nothing — the steady state of a
// saturated capped cluster: one schedulePart over a full 24-node
// partition (22 nodes already paired, two with primaries too wide to
// share) and a 160-job window under all three policies — 128 Deferrable
// jobs the signal holds, 16 compute-bound jobs with no memory-bound
// primary to start beside, 16 memory-bound jobs with two candidates and
// room beside neither. The alloc-check make target pins it at 0
// allocs/op; DESIGN §14 quotes its ns/op.
func BenchmarkPolicyPassSaturated(b *testing.B) {
	idle, deltas := testLadderWatts()
	sim := simclock.New()
	c, err := tryPolicyCluster(sim, 24,
		&PowerCapPolicy{CapW: 24 * (idle + 2*deltas[len(deltas)-1]), Mode: CapModeFreqCap},
		&CoSchedulePolicy{},
		&DeferralPolicy{Signal: func(time.Time) float64 { return 1 }, Threshold: 0.5, MaxDefer: 4 * time.Hour, Check: 10 * time.Minute})
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
	check := func() {
		tot := c.PolicyTotals()
		if len(p.pending) != 160 || p.freeN != 0 || tot.CoScheduled != 22 || tot.DeferredJobs != 128 {
			b.Fatalf("%d queued, %d nodes free, totals %+v; want 160 queued behind 24 busy nodes, 22 paired, 128 held",
				len(p.pending), p.freeN, tot)
		}
	}
	check()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.schedulePart(p)
	}
	b.StopTimer()
	check()
}
