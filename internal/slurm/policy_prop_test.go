package slurm

import (
	"fmt"
	"testing"
	"time"

	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// The deferral policy's one property that no cluster run checks: with
// capacity guaranteed, no deferrable job finishes past its deadline —
// the hold must release in time. The reference run (the root package's
// clustersim_reference_test.go) checks the policies' decisions
// themselves, cap, pairing and ledger included.

// propSeeds is how many random seeds the property runs.
const propSeeds = 24

// propSignal is a deterministic square-wave price signal: alternating
// one-hour expensive/cheap windows, phase-shifted by the seed.
func propSignal(start time.Time, seed uint64) DeferralSignal {
	phase := time.Duration(seed%7) * 10 * time.Minute
	return func(t time.Time) float64 {
		h := int(t.Add(phase).Sub(start) / time.Hour)
		if h%2 == 0 {
			return 1.0
		}
		return 0.1
	}
}

// TestDeferralNeverStarvesPastDeadline: with capacity
// guaranteed (one node per job, sleep runtimes within the time limit),
// a deferrable job with a deadline always completes by it — across
// random seeds, signals, and deferral parameters.
func TestDeferralNeverStarvesPastDeadline(t *testing.T) {
	for seed := uint64(1); seed <= propSeeds; seed++ {
		rng := simclock.NewRNG(seed + 1000)
		sim := simclock.New()
		const nJobs = 12
		c, err := tryPolicyCluster(sim, nJobs, EnergyPolicy{
			Signal:    propSignal(sim.Now(), seed),
			Threshold: 0.5,
			MaxDefer:  time.Duration(1+rng.Intn(6)) * time.Hour,
			Check:     time.Duration(5+rng.Intn(25)) * time.Minute,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		start := sim.Now()
		var submitted []*Job
		var at time.Duration
		for i := 0; i < nJobs; i++ {
			at += time.Duration(rng.Intn(1800)) * time.Second
			sim.RunUntilTick(start.Add(at).UnixNano())
			d := time.Duration(300+rng.Intn(1500)) * time.Second
			desc := JobDesc{
				Name:       fmt.Sprintf("dl-%d", i),
				NumTasks:   1 + rng.Intn(8),
				TimeLimit:  d + time.Duration(rng.Intn(600))*time.Second,
				Deferrable: true,
				Shape:      &workload.Shape{Kind: workload.ShapeSleep, Label: "dl", Duration: d},
			}
			// Deadline with real slack beyond the worst-case runtime, but
			// tight enough that an unbounded hold would blow through it.
			desc.Deadline = sim.Now().Add(desc.TimeLimit + time.Duration(10+rng.Intn(110))*time.Minute)
			j, err := c.Submit(desc)
			if err != nil {
				t.Fatalf("seed %d: submit: %v", seed, err)
			}
			submitted = append(submitted, j)
		}
		sim.Run()

		for _, j := range submitted {
			if j.State != StateCompleted {
				t.Fatalf("seed %d: job %d ended %s (%s)", seed, j.ID, j.State, j.Reason)
			}
			if j.EndTime.Time().After(j.Desc.Deadline) {
				t.Fatalf("seed %d: job %d finished %v, past its deadline %v (deferred past the release bound)",
					seed, j.ID, j.EndTime, j.Desc.Deadline)
			}
		}
	}
}
