package slurm

import (
	"testing"
	"testing/quick"
	"time"

	"ecosched/internal/simclock"
)

// Randomised operation sequences must preserve the scheduler's
// invariants: exclusive node allocation, a job table and a queue that
// hold exactly the non-terminal jobs, and exactly one accounting row
// per terminal job. The test keeps the records Submit returned, as a
// submitter does: the table drops a job when it ends.
func TestSchedulerInvariantsUnderRandomOps(t *testing.T) {
	check := func(seed uint16, ops []uint8) bool {
		rng := simclock.NewRNG(uint64(seed))
		sim, c := newCluster(t, DefaultConf(), 2)
		var submitted []*Job

		for _, op := range ops {
			switch op % 3 {
			case 0: // submit a random HPCG configuration
				cores := 1 + rng.Intn(32)
				freqs := []int{1_500_000, 2_200_000, 2_500_000}
				desc := hpcgDesc(cores, freqs[rng.Intn(3)], 1+rng.Intn(2))
				desc.UserID = uint32(rng.Intn(3))
				job, err := c.Submit(desc)
				if err != nil {
					return false
				}
				submitted = append(submitted, job)
			case 1: // advance time
				sim.RunFor(time.Duration(1+rng.Intn(600)) * time.Second)
			case 2: // long advance: let things finish
				sim.RunFor(time.Duration(5+rng.Intn(30)) * time.Minute)
			}

			if !invariantsHold(t, c, submitted) {
				return false
			}
		}
		// Drain: everything terminal by the end.
		sim.Run()
		for _, j := range submitted {
			if !j.State.Terminal() {
				t.Logf("job %d stuck in %s (%s)", j.ID, j.State, j.Reason)
				return false
			}
		}
		return invariantsHold(t, c, submitted)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func invariantsHold(t *testing.T, c *Controller, submitted []*Job) bool {
	t.Helper()
	// Exclusive allocation: each node hosts at most one running job,
	// and every running job is on exactly one node.
	running := map[int]int{}
	for _, n := range c.Sinfo() {
		if n.JobID != 0 {
			running[n.JobID]++
		}
	}
	for id, count := range running {
		if count != 1 {
			t.Logf("job %d allocated on %d nodes", id, count)
			return false
		}
		j, ok := c.Job(id)
		if !ok || j.State != StateRunning {
			t.Logf("node hosts job %d in state %v", id, j)
			return false
		}
	}

	queue := map[int]bool{}
	for _, j := range c.Squeue() {
		queue[j.ID] = true
	}
	rows := map[int]int{}
	for _, r := range c.Accounting().Records() {
		rows[r.JobID]++
	}
	for _, j := range submitted {
		id := j.ID
		if got, ok := c.Job(id); ok != !j.State.Terminal() || (ok && got != j) {
			t.Logf("Job(%d) = %p, %v for a job in %s", id, got, ok, j.State)
			return false
		}
		if j.State.Terminal() {
			if queue[id] {
				t.Logf("terminal job %d still in squeue", id)
				return false
			}
			// Exactly one accounting record with sane bounds.
			rec, ok := c.Accounting().Record(id)
			if !ok || rows[id] != 1 {
				t.Logf("terminal job %d has %d accounting rows", id, rows[id])
				return false
			}
			if rec.State == StateCompleted {
				if rec.Runtime() <= 0 || rec.SystemKJ <= 0 || rec.CPUKJ > rec.SystemKJ {
					t.Logf("job %d accounting implausible: %+v", id, rec)
					return false
				}
			}
		} else if !queue[id] || rows[id] != 0 {
			t.Logf("live job %d: in squeue %v, %d accounting rows", id, queue[id], rows[id])
			return false
		}
	}
	return true
}

// Energy conservation across a random schedule: the node's total
// accumulated system energy must be at least the sum of the energies
// accounted to its jobs (idle gaps add more, never less).
func TestEnergyConservation(t *testing.T) {
	sim, c := newCluster(t, DefaultConf(), 1)
	node := c.Nodes()[0]
	node.ResetEnergy()
	rng := simclock.NewRNG(99)
	for i := 0; i < 5; i++ {
		cores := 8 + rng.Intn(25)
		job, err := c.Submit(hpcgDesc(cores, 2_200_000, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitFor(job.ID); err != nil {
			t.Fatal(err)
		}
		sim.RunFor(time.Duration(rng.Intn(300)) * time.Second) // idle gap
	}
	nodeSysJ, _ := node.EnergyJ()
	var jobsKJ float64
	for _, rec := range c.Accounting().Records() {
		jobsKJ += rec.SystemKJ
	}
	if nodeSysJ/1000 < jobsKJ {
		t.Fatalf("node accumulated %.1f kJ but jobs account for %.1f kJ", nodeSysJ/1000, jobsKJ)
	}
	// And the gap is only idle power, bounded by idle draw × elapsed.
	elapsed := sim.Now().Sub(simclock.Epoch).Seconds()
	if nodeSysJ/1000 > jobsKJ+0.20*elapsed { // idle system ≈ 130-150 W < 200 W bound
		t.Fatalf("energy gap too large: node %.1f kJ vs jobs %.1f kJ over %.0f s",
			nodeSysJ/1000, jobsKJ, elapsed)
	}
}
