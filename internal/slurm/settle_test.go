package slurm

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// TestSettledPrefixMatchesFullWalk is the settled prefix's differential
// test, with the full walk as its oracle: two controllers under cap +
// co-scheduling + deferral are driven by one random operator sequence —
// submissions (some deferrable, some with a dependency or a begin time),
// clock advances one event at a time, cancellations of pending and
// running jobs, drains and resumes, batched flushes — while the
// deferral signal crosses its threshold. One controller has its settled
// record cleared before everything that may run a pass, so every one of
// its passes walks the whole window. After every step the two must agree
// on squeue (id, state, reason), the accounting rows, the policy totals
// but for the two work counters that measure the walk, the armed wake,
// and the clock's queue.
func TestSettledPrefixMatchesFullWalk(t *testing.T) {
	idle, deltas := testLadderWatts()
	var fastVisits, fullVisits int64
	var sum PolicyTotals
	for seed := uint64(1); seed <= 40; seed++ {
		rng := simclock.NewRNG(seed + 11000)
		nodes := 2 + rng.Intn(4)
		// From a budget that refuses most placements to one that refuses
		// few, so fit refuses, freqcap pins and smaller jobs start past
		// refused ones.
		capW := float64(nodes) * (idle + deltas[len(deltas)-1]*(0.2+rng.Float64()))
		minute := func(lo, n int) time.Duration { return time.Duration(lo+rng.Intn(n)) * time.Minute }
		period, maxDefer, check := minute(15, 60), minute(20, 150), minute(5, 20)
		batched := seed%2 == 0
		build := func() (*simclock.Sim, *Controller) {
			sim := simclock.New()
			start := sim.Now()
			opts := []ClusterOption{
				WithNodes(clusterNodes(sim, nodes)...),
				WithSchedPolicies(
					&PowerCapPolicy{CapW: capW, Mode: CapModeFreqCap},
					&CoSchedulePolicy{},
					&DeferralPolicy{
						// A square wave: high for one period, low for the next.
						Signal: func(t time.Time) float64 {
							if t.Sub(start)/period%2 == 0 {
								return 1
							}
							return 0.1
						},
						Threshold: 0.5, MaxDefer: maxDefer, Check: check,
					}),
			}
			if batched {
				opts = append(opts, WithBatchedScheduling())
			}
			c, err := NewCluster(sim, DefaultConf(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			return sim, c
		}
		fastSim, fast := build()
		fullSim, full := build()
		walkAll := func() { full.part.settled.n = 0 }
		compare := func(step int, op string) {
			t.Helper()
			if msg := settleDiff(fast, full); msg != "" {
				t.Fatalf("seed %d step %d (%s) at %v: %s", seed, step, op, fastSim.Now(), msg)
			}
		}
		both := func(step int, op string, f func(c *Controller) error) {
			t.Helper()
			walkAll()
			errFast, errFull := f(fast), f(full)
			if (errFast == nil) != (errFull == nil) {
				t.Fatalf("seed %d step %d (%s): errors differ: %v / %v", seed, step, op, errFast, errFull)
			}
			compare(step, op)
		}
		var ids []int
		for step := 0; step < 250; step++ {
			switch op := rng.Intn(12); {
			case op < 5:
				desc := settleDesc(rng, fastSim.Now(), ids)
				both(step, "submit", func(c *Controller) error {
					j, err := c.Submit(desc)
					if err == nil && c == fast {
						ids = append(ids, j.ID)
					}
					return err
				})
			case op < 8:
				at := fastSim.Now().Add(time.Duration(1+rng.Intn(40)) * time.Minute)
				for fastSim.Now().Before(at) {
					walkAll()
					stepped := fastSim.Step()
					if fullSim.Step() != stepped {
						t.Fatalf("seed %d step %d: one clock ran out of events, the other did not", seed, step)
					}
					if !stepped {
						fastSim.RunUntil(at)
						fullSim.RunUntil(at)
					}
					compare(step, "advance")
				}
			case op < 10:
				if len(ids) > 0 {
					id := ids[rng.Intn(len(ids))]
					if j, ok := fast.Job(id); ok && !j.State.Terminal() {
						both(step, "cancel "+string(j.State), func(c *Controller) error { return c.Cancel(id) })
					}
				}
			case op < 11:
				n := fast.part.nodes[rng.Intn(nodes)]
				if n.drained {
					both(step, "resume", func(c *Controller) error { return c.ResumeNode(n.name) })
				} else {
					both(step, "drain", func(c *Controller) error { return c.DrainNode(n.name) })
				}
			default:
				both(step, "flush", func(c *Controller) error { c.Flush(); return nil })
			}
		}
		fastVisits += fast.PolicyTotals().QueueVisits
		fullVisits += full.PolicyTotals().QueueVisits
		tot := fast.PolicyTotals()
		sum.DeferredJobs += tot.DeferredJobs
		sum.ForcedDispatches += tot.ForcedDispatches
		sum.CoScheduled += tot.CoScheduled
		sum.CapDenials += tot.CapDenials
		sum.FreqCapped += tot.FreqCapped
	}
	if fastVisits >= fullVisits {
		t.Fatalf("the settled prefix saved nothing: %d queued-job visits, the full walk %d", fastVisits, fullVisits)
	}
	if sum.DeferredJobs == 0 || sum.ForcedDispatches == 0 || sum.CoScheduled == 0 || sum.CapDenials == 0 || sum.FreqCapped == 0 {
		t.Fatalf("a decision never happened (%+v): the comparison is vacuous there", sum)
	}
	t.Logf("%d queued-job visits against the full walk's %d; totals %+v", fastVisits, fullVisits, sum)
}

// settleDesc draws a submission on the minute grid, so that arrivals,
// completions, wakes, release bounds and signal flips share instants.
func settleDesc(rng *simclock.RNG, now time.Time, ids []int) JobDesc {
	d := time.Duration(1+rng.Intn(60)) * time.Minute
	profile := [...]string{"", workload.ProfileCompute, workload.ProfileMemory, workload.ProfileMemory}[rng.Intn(4)]
	desc := sleepDesc(1+rng.Intn(32), d, profile)
	if profile == workload.ProfileCompute && rng.Intn(3) == 0 {
		// A FLOP budget, so the cap's pinned rung changes the runtime.
		shape := workload.FixedWork("settle-work", 200+800*rng.Float64())
		shape.Profile = profile
		desc.Shape, desc.TimeLimit = &shape, 4*time.Hour
	}
	desc.Exclusive = rng.Intn(8) == 0
	if rng.Intn(3) == 0 {
		desc.Deferrable = true
		if rng.Intn(2) == 0 {
			desc.Deadline = now.Add(desc.TimeLimit + time.Duration(rng.Intn(180))*time.Minute)
		}
	}
	switch rng.Intn(16) {
	case 0:
		if len(ids) > 0 {
			desc.AfterOK = []int{ids[rng.Intn(len(ids))]}
		}
	case 1:
		desc.BeginTime = now.Add(time.Duration(1+rng.Intn(30)) * time.Minute)
	}
	return desc
}

// settleDiff describes the first difference between two controllers'
// observable state, or returns "".
func settleDiff(a, b *Controller) string {
	qa, qb := a.Squeue(), b.Squeue()
	if len(qa) != len(qb) {
		return "squeue lengths differ"
	}
	for i := range qa {
		if qa[i].ID != qb[i].ID || qa[i].State != qb[i].State || qa[i].Reason != qb[i].Reason {
			return fmt.Sprintf("squeue: job %d %s (%s), the full walk has job %d %s (%s)",
				qa[i].ID, qa[i].State, qa[i].Reason, qb[i].ID, qb[i].State, qb[i].Reason)
		}
	}
	if !reflect.DeepEqual(a.Accounting().Records(), b.Accounting().Records()) {
		return "accounting rows differ"
	}
	ta, tb := a.PolicyTotals(), b.PolicyTotals()
	ta.PlaceProbes, ta.QueueVisits, tb.PlaceProbes, tb.QueueVisits = 0, 0, 0, 0
	if ta != tb {
		return fmt.Sprintf("policy totals %+v, the full walk's %+v", ta, tb)
	}
	pa, pb := a.part, b.part
	if pa.wakeArmed != pb.wakeArmed || !pa.wakeAt.Equal(pb.wakeAt) {
		return fmt.Sprintf("wake armed %v at %v, the full walk's %v at %v", pa.wakeArmed, pa.wakeAt, pb.wakeArmed, pb.wakeAt)
	}
	if a.sim.Pending() != b.sim.Pending() || !a.sim.LastEventAt().Equal(b.sim.LastEventAt()) {
		return fmt.Sprintf("%d events pending, last at %v; the full walk's %d, last at %v",
			a.sim.Pending(), a.sim.LastEventAt(), b.sim.Pending(), b.sim.LastEventAt())
	}
	return ""
}

// TestSettledPrefixReleasesABeginTimeBeforeItsWake: a job kept for its
// begin time is never settled. Its wake is armed at that instant, but a
// pass can run there first — here an arrival after a cancelled job's
// stale completion event — and that pass must start the job whose time
// has come, not the arrival behind it.
func TestSettledPrefixReleasesABeginTimeBeforeItsWake(t *testing.T) {
	sim, c := newPolicyCluster(t, 1, &CoSchedulePolicy{})
	begin := sim.Now().Add(10 * time.Minute)
	first, err := c.Submit(sleepDesc(32, 10*time.Minute, "")) // its completion event is due at begin
	if err != nil {
		t.Fatal(err)
	}
	desc := sleepDesc(32, time.Hour, "")
	desc.BeginTime = begin // its wake is armed at begin, behind that completion
	waiting, err := c.Submit(desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(first.ID); err != nil { // the pass keeps waiting for its begin time
		t.Fatal(err)
	}
	if !sim.Step() || !sim.Now().Equal(begin) || waiting.State != StatePending { // the stale completion: no pass
		t.Fatalf("at %v: job %s (%s), want the stale completion at %v to leave it pending", sim.Now(), waiting.State, waiting.Reason, begin)
	}
	arrival, err := c.Submit(sleepDesc(32, time.Hour, ""))
	if err != nil {
		t.Fatal(err)
	}
	if waiting.State != StateRunning || arrival.State != StatePending {
		t.Fatalf("at its begin time the waiting job is %s (%s) and the arrival %s; want the waiting job started first",
			waiting.State, waiting.Reason, arrival.State)
	}
}
