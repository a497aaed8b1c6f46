package slurm

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// Property-based suite for the cluster energy policies: random seeded
// workloads against random budgets, with the policy invariants checked
// at every simulated instant (after each event fires and after each
// submission). The invariants:
//
//  1. A capped partition's modelled draw never exceeds its cap — not
//     at any step, and not in the recorded peak.
//  2. The incrementally-maintained draw always equals the draw
//     recomputed from scratch off the running jobs (no leaks across
//     start/finish/co-schedule paths).
//  3. A node never hosts a co-scheduled pair where either side is
//     Exclusive, profiles match, or task counts overflow the cores.
//  4. Under deferral with guaranteed capacity, no deferrable job ever
//     finishes past its deadline: the hold must release in time.
//
// Once every event has fired, the queue is empty, the draw is back at
// the idle floor, and no node is left claimed, paired or holding a
// hardware job.
//
// The suite runs the full grid under -race via `make chaos`
// (propSeeds × the policy-config table ≥ the twenty-seed floor the
// acceptance criteria set).
const propSeeds = 24

// propConfig is one policy configuration of the property grid. Caps
// are sized per node on top of the idle floor, so any node count keeps
// the budget above the attach-time floor check; headroomW is the
// per-node job allowance (≥ one max-frequency full-width placement
// keeps progress guaranteed cluster-wide).
type propConfig struct {
	name      string
	headroomW float64 // per-node watts above idle; 0 = uncapped
	mode      string
	cosched   bool
	deferral  bool
}

func propConfigs() []propConfig {
	_, deltas := testLadderWatts()
	maxDelta := deltas[len(deltas)-1]
	return []propConfig{
		{name: "cap-wait", headroomW: 1.2 * maxDelta, mode: CapModeWait},
		{name: "cap-freqcap", headroomW: 1.2 * maxDelta, mode: CapModeFreqCap},
		{name: "cosched", cosched: true},
		{name: "deferral", deferral: true},
		{name: "all", headroomW: 1.5 * maxDelta, mode: CapModeFreqCap, cosched: true, deferral: true},
	}
}

// propJob is one randomly drawn submission.
type propJob struct {
	at   time.Duration // offset from the sim start
	desc JobDesc
}

// drawWorkload samples a random workload: a mix of compute/memory
// profiled sleep and fixed-work jobs, random widths, some exclusive,
// some deferrable with deadlines, some frequency-pinned.
func drawWorkload(rng *simclock.RNG, n int, start time.Time) []propJob {
	ladder := hw.DefaultSpec().FrequenciesKHz
	jobs := make([]propJob, n)
	var at time.Duration
	for i := range jobs {
		at += time.Duration(rng.Intn(300)) * time.Second
		d := time.Duration(60+rng.Intn(1740)) * time.Second
		desc := JobDesc{
			Name:      fmt.Sprintf("prop-%d", i),
			NumTasks:  1 + rng.Intn(32),
			TimeLimit: 2 * d,
		}
		shape := workload.Sleep("prop-sleep", d)
		switch rng.Intn(3) {
		case 0:
			shape.Profile = workload.ProfileCompute
		case 1:
			shape.Profile = workload.ProfileMemory
		}
		if shape.Profile == workload.ProfileCompute && rng.Intn(4) == 0 {
			// A minority of compute jobs carry a FLOP budget instead, so
			// the frequency pin actually changes runtimes.
			shape = workload.FixedWork("prop-work", 500+1000*rng.Float64())
			shape.Profile = workload.ProfileCompute
			desc.TimeLimit = 4 * time.Hour
		}
		desc.Shape = &shape
		if rng.Intn(5) == 0 {
			desc.Exclusive = true
		}
		if rng.Intn(8) == 0 {
			f := ladder[rng.Intn(len(ladder))]
			desc.MaxFreqKHz, desc.MinFreqKHz = f, f
		}
		if rng.Intn(3) == 0 {
			desc.Deferrable = true
			slack := time.Duration(1+rng.Intn(4)) * time.Hour
			desc.Deadline = start.Add(at + desc.TimeLimit + slack)
		}
		jobs[i].at = at
		jobs[i].desc = desc
	}
	return jobs
}

// checkPolicyInvariants asserts invariants 1–3 over the controller's
// current state, and that the pairable-primary index place walks says
// what the nodes' state says.
func checkPolicyInvariants(t *testing.T, c *Controller) {
	t.Helper()
	checkPairableIndex(t, c)
	p := c.part
	if p.capW > 0 {
		if p.drawW > p.capW*(1+capSlack) {
			t.Fatalf("draw %.3f W exceeds cap %.3f W at %v", p.drawW, p.capW, c.sim.Now())
		}
		if p.peakDrawW > p.capW*(1+capSlack) {
			t.Fatalf("peak %.3f W exceeds cap %.3f W", p.peakDrawW, p.capW)
		}
	}
	// Recompute the draw from scratch: idle floor plus every running
	// job's attributed delta.
	want := 0.0
	for _, n := range p.nodes {
		want += n.idleDrawW
		if n.current != nil {
			want += n.current.drawDeltaW
		}
		if n.coJob != nil && n.coJob != n.current {
			want += n.coJob.drawDeltaW
		}
	}
	if math.Abs(want-p.drawW) > 1e-6 {
		t.Fatalf("draw drifted: incremental %.9f W, recomputed %.9f W at %v", p.drawW, want, c.sim.Now())
	}
	for _, n := range p.nodes {
		co := n.coJob
		if co == nil {
			continue
		}
		pri := n.current
		if pri == nil || pri == co {
			// The primary ended and promoted the secondary; the pair is
			// dissolved, nothing left to check.
			continue
		}
		if pri.Desc.Exclusive || co.Desc.Exclusive {
			t.Fatalf("node %q co-schedules an exclusive job (primary %d, secondary %d)",
				n.name, pri.ID, co.ID)
		}
		pp, cp := pri.shapeProfile(), co.shapeProfile()
		if pp == "" || cp == "" || pp == cp {
			t.Fatalf("node %q pairs profiles %q + %q", n.name, pp, cp)
		}
		if pri.Desc.NumTasks+co.Desc.NumTasks > n.spec.Cores {
			t.Fatalf("node %q oversubscribed: %d + %d tasks on %d cores",
				n.name, pri.Desc.NumTasks, co.Desc.NumTasks, n.spec.Cores)
		}
	}
}

// TestPolicyInvariantsRandomized is the main property: for every
// policy configuration and every seed, a random workload against a
// random budget never breaks the cap, the draw ledger, or the pairing
// rules — at any simulated instant.
func TestPolicyInvariantsRandomized(t *testing.T) {
	for _, cfg := range propConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for seed := uint64(1); seed <= propSeeds; seed++ {
				runPolicyProperty(t, cfg, seed)
			}
		})
	}
}

func runPolicyProperty(t *testing.T, cfg propConfig, seed uint64) {
	t.Helper()
	rng := simclock.NewRNG(seed)
	idle, _ := testLadderWatts()
	nodes := 3 + rng.Intn(4)
	sim := simclock.New()

	var pols []SchedPolicy
	if cfg.headroomW > 0 {
		// Random budget: at least one max-width placement per the config's
		// headroom floor, up to roomy. Always above the idle-floor attach
		// check by construction.
		capW := float64(nodes) * (idle + cfg.headroomW*(1+rng.Float64()))
		pols = append(pols, &PowerCapPolicy{CapW: capW, Mode: cfg.mode})
	}
	if cfg.cosched {
		pols = append(pols, &CoSchedulePolicy{InterferencePenalty: 1 + rng.Float64()/2})
	}
	if cfg.deferral {
		pols = append(pols, &DeferralPolicy{
			Signal:    propSignal(sim.Now(), seed),
			Threshold: 0.5,
			MaxDefer:  time.Duration(1+rng.Intn(3)) * time.Hour,
			Check:     time.Duration(5+rng.Intn(10)) * time.Minute,
		})
	}
	c, err := tryPolicyCluster(sim, nodes, pols...)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	// Every job reaches its completion hooks off its node — a primary,
	// a secondary, a promoted secondary — so aggregate mode may pool any
	// ended record.
	c.OnCompletion(func(j *Job) {
		if j.node != nil {
			t.Fatalf("seed %d: job %d ended %s still on node %q", seed, j.ID, j.State, j.node.name)
		}
	})

	start := sim.Now()
	jobs := drawWorkload(rng, 30+rng.Intn(30), start)
	for _, pj := range jobs {
		for at := start.Add(pj.at); sim.Now().Before(at); {
			if !sim.Step() {
				sim.RunUntil(at)
				break
			}
			checkPolicyInvariants(t, c)
		}
		if _, err := c.Submit(pj.desc); err != nil {
			t.Fatalf("seed %d: submit: %v", seed, err)
		}
		checkPolicyInvariants(t, c)
	}
	p := c.part
	for sim.Step() {
		checkPolicyInvariants(t, c)
	}

	tot := c.PolicyTotals()
	if tot.CapViolations != 0 {
		t.Fatalf("seed %d (%s): %d cap violations", seed, cfg.name, tot.CapViolations)
	}
	// Everything ran out: the draw is back at the idle floor and no job
	// is left pending (MaxDefer bounds every hold, caps free up as jobs
	// end, so the queue must empty).
	if len(p.pending) != 0 {
		t.Fatalf("seed %d (%s): %d jobs stranded", seed, cfg.name, len(p.pending))
	}
	if want := float64(nodes) * idle; math.Abs(p.drawW-want) > 1e-6 {
		t.Fatalf("seed %d (%s): residual draw %.9f W, want idle floor %.9f W",
			seed, cfg.name, p.drawW, want)
	}
	if p.busy != 0 || p.freeN != len(p.nodes) {
		t.Fatalf("seed %d (%s): ends with %d busy, %d of %d nodes free",
			seed, cfg.name, p.busy, p.freeN, len(p.nodes))
	}
	for _, n := range p.nodes {
		if n.current != nil || n.coJob != nil || n.hwJob != nil {
			t.Fatalf("seed %d (%s): node %q still holds current=%v coJob=%v hwJob=%v",
				seed, cfg.name, n.name, n.current, n.coJob, n.hwJob)
		}
	}
}

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

// TestDeferralNeverStarvesPastDeadline is invariant 4: with capacity
// guaranteed (one node per job, sleep runtimes within the time limit),
// a deferrable job with a deadline always completes by it — across
// random seeds, signals, and deferral parameters.
func TestDeferralNeverStarvesPastDeadline(t *testing.T) {
	for seed := uint64(1); seed <= propSeeds; seed++ {
		rng := simclock.NewRNG(seed + 1000)
		sim := simclock.New()
		const nJobs = 12
		c, err := tryPolicyCluster(sim, nJobs, &DeferralPolicy{
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
			sim.RunUntil(start.Add(at))
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
			if j.EndTime.After(j.Desc.Deadline) {
				t.Fatalf("seed %d: job %d finished %v, past its deadline %v (deferred past the release bound)",
					seed, j.ID, j.EndTime, j.Desc.Deadline)
			}
		}
	}
}
