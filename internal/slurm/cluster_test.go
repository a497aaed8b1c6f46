package slurm

import (
	"fmt"
	"math"
	"testing"
	"time"

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
	}
	for _, c := range cases {
		if _, err := NewCluster(sim, c.conf, c.opts...); err == nil {
			t.Errorf("%s: NewCluster succeeded, want error", c.name)
		}
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
// drops rows, and retires jobs without breaking dependencies.
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
	// A dependency on the retired job must still resolve.
	dep, err := c.Submit(JobDesc{Name: "b", BinaryPath: "/bin/app", TimeLimit: time.Hour, AfterOK: []int{first.ID}})
	if err != nil {
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
	_ = dep
}

// TestCancelPendingDoesNotRecycleQueuedRecord: in aggregate mode a
// cancelled job's record goes back to the pool, so it must leave its
// partition's pending window first — otherwise the next submission,
// handed the same record, is queued twice and overtakes every job
// between the two slots. Once for a plain queued job (the every-node-
// busy fast path never purges the window) and once for a job the
// deferral policy holds, whose policy state must not reach the
// record's next owner.
func TestCancelPendingDoesNotRecycleQueuedRecord(t *testing.T) {
	app := workload.Sleep("app", 10*time.Minute)
	desc := JobDesc{Name: "j", NumTasks: 4, TimeLimit: time.Hour, Shape: &app}

	t.Run("queued", func(t *testing.T) {
		sim := simclock.New()
		c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...), WithAggregateAccounting())
		if err != nil {
			t.Fatal(err)
		}
		var order []int
		c.OnCompletion(func(j *Job) {
			if j.State == StateCompleted {
				order = append(order, j.ID)
			}
		})
		submit := func() *Job {
			j, err := c.Submit(desc)
			if err != nil {
				t.Fatal(err)
			}
			return j
		}
		a, b, cc := submit(), submit(), submit()
		if a.State != StateRunning || b.State != StatePending || cc.State != StatePending {
			t.Fatalf("a, b, c = %s, %s, %s; want one running, two queued", a.State, b.State, cc.State)
		}
		if err := c.Cancel(b.ID); err != nil {
			t.Fatal(err)
		}
		d := submit() // may be handed b's record
		if got := ids(c.part.pending); fmt.Sprint(got) != "[3 4]" {
			t.Fatalf("pending window holds jobs %v after cancelling job 2 and submitting job 4, want [3 4]", got)
		}
		sim.RunFor(10 * time.Minute) // a ends: FIFO starts c, not d
		if cc.ID != 3 || cc.State != StateRunning || d.ID != 4 || d.State != StatePending {
			t.Fatalf("after job 1 ended: job %d %s, job %d %s; want job 3 RUNNING, job 4 PENDING", cc.ID, cc.State, d.ID, d.State)
		}
		sim.Run()
		if fmt.Sprint(order) != "[1 3 4]" {
			t.Fatalf("completion order %v, want [1 3 4]", order)
		}
	})

	t.Run("held", func(t *testing.T) {
		sim := simclock.New()
		high := true
		c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...), WithAggregateAccounting(),
			WithSchedPolicies(&DeferralPolicy{
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
		deferrable := desc
		deferrable.Deferrable = true
		b, err := c.Submit(deferrable)
		if err != nil {
			t.Fatal(err)
		}
		if b.Reason != reasonEnergyHold || !b.deferred || b.releaseTick == 0 {
			t.Fatalf("job 1 = %s (%q), deferred %v, release bound %d; want held with its bound cached", b.State, b.Reason, b.deferred, b.releaseTick)
		}
		if err := c.Cancel(b.ID); err != nil {
			t.Fatal(err)
		}
		if n := len(c.part.pending); n != 0 {
			t.Fatalf("%d records left in the pending window after cancelling its only job", n)
		}
		// The next submission is handed the cancelled job's record — zeroed:
		// not deferred, no release bound from another job's submit time.
		sim.RunFor(30 * time.Minute)
		high = false
		d, err := c.Submit(deferrable)
		if err != nil {
			t.Fatal(err)
		}
		if d != b {
			t.Fatal("the pooled record was not reused; the scenario no longer tests recycling")
		}
		if d.ID != 2 || d.State != StateRunning || d.deferred || d.releaseTick != d.SubmitTime.Add(2*time.Hour).UnixNano() {
			t.Fatalf("job %d = %s, deferred %v, release bound %d (submitted %v)", d.ID, d.State, d.deferred, d.releaseTick, d.SubmitTime)
		}
		if tot := c.PolicyTotals(); tot.DeferredJobs != 1 || tot.ForcedDispatches != 0 {
			t.Fatalf("totals = %+v, want one job deferred, none forced", tot)
		}
	})
}

// TestConstructionOptionsWiring checks WithFallbackWorkload /
// WithPolicy take effect at construction.
func TestConstructionOptionsWiring(t *testing.T) {
	sim := simclock.New()
	c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...),
		WithPolicy(DefaultMultifactor(64)),
		WithFallbackWorkload(workload.Sleep("fb", 2*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy().Name() != "multifactor" {
		t.Fatalf("policy = %q", c.Policy().Name())
	}
	job, err := c.Submit(JobDesc{Name: "x", BinaryPath: "/no/such", TimeLimit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Runtime() != 2*time.Minute {
		t.Fatalf("fallback runtime = %v, want 2m", done.Runtime())
	}
}

// TestJobTableGrowthMatchesMapOracle pins the arena's chunk-0 rule:
// jobChunkSize+1 submissions on a one-node controller take chunk 0
// from firstChunkLen(1) through every doubling to jobChunkSize and
// open chunk 1, with jobs retiring on the way. At every one of those
// boundaries Job, Squeue and the retired-state lookup must agree with
// a plain map of the live jobs.
func TestJobTableGrowthMatchesMapOracle(t *testing.T) {
	sim := simclock.New()
	c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...), WithAggregateAccounting())
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterWorkload("/bin/app", workload.Sleep("app", time.Minute))
	live := map[int]*Job{}
	c.OnCompletion(func(j *Job) { delete(live, j.ID) })

	check := func(when string) {
		t.Helper()
		for id := 0; id <= c.nextID+1; id++ {
			got, ok := c.Job(id)
			if want := live[id]; got != want || ok != (want != nil) {
				t.Fatalf("%s: Job(%d) = %p, %v; oracle %p", when, id, got, ok, want)
			}
			if _, isLive := live[id]; !isLive && id >= 1 && id < c.nextID {
				if st, ok := c.jobState(id); !ok || st != StateCompleted {
					t.Fatalf("%s: retired job %d resolves to %q, %v", when, id, st, ok)
				}
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

	boundaries := 0
	chunk0, chunks := 0, 0
	for i := 0; i <= jobChunkSize; i++ {
		job, err := c.Submit(JobDesc{Name: "j", BinaryPath: "/bin/app", TimeLimit: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		live[job.ID] = job
		if i%61 == 60 {
			sim.RunFor(3 * time.Minute) // three jobs finish and retire
		}
		if len(c.jobs[0]) != chunk0 || len(c.jobs) != chunks {
			chunk0, chunks = len(c.jobs[0]), len(c.jobs)
			boundaries++
			check(fmt.Sprintf("after job %d (chunk 0 = %d slots, %d chunks)", job.ID, chunk0, chunks))
		}
	}
	check("at the end")

	// 64 → 8192 is the first allocation plus seven doublings; chunk 1 is one more.
	if want := 1 + 7 + 1; boundaries != want || firstChunkLen(1) != 64 {
		t.Fatalf("%d growth boundaries from a %d-slot start, want %d from 64", boundaries, firstChunkLen(1), want)
	}
	if len(c.jobs) != 2 || len(c.jobs[0]) != jobChunkSize || len(c.jobs[1]) != jobChunkSize {
		t.Fatalf("table shape %d chunks, chunk 0 %d slots", len(c.jobs), len(c.jobs[0]))
	}
	if len(live) == jobChunkSize+1 || len(live) == 0 {
		t.Fatalf("%d jobs live at the end: nothing retired, or everything", len(live))
	}
	// A cluster large enough to fill a chunk gets it whole, in one allocation.
	for nodes, want := range map[int]int{1: 64, 2: 128, 24: 2048, 127: jobChunkSize, 128: jobChunkSize, 512: jobChunkSize} {
		if got := firstChunkLen(nodes); got != want {
			t.Errorf("firstChunkLen(%d) = %d, want %d", nodes, got, want)
		}
	}
}
