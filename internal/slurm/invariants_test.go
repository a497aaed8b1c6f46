package slurm

import (
	"testing"
	"time"

	"ecosched/internal/simclock"
)

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
