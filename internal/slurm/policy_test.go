package slurm

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// The policy's three decisions, tested as values: a schedPolicy plus
// bare partition / nodeD / Job structs — no clock, no hardware, no
// controller. The cluster-level behaviour of the same decisions is
// energy_test.go's and the property suite's.

// bareNode is a node with a spec and a power model but no hardware
// behind it, added to the partition's pool and counted toward its draw
// ledger at its idle floor.
func bareNode(p *partition) *nodeD {
	n := &nodeD{spec: hw.DefaultSpec(), pm: NewPowerModel(perfmodel.Default())}
	n.idleDrawW = n.pm.IdleNodeW()
	n.part, n.idx = p, len(p.nodes)
	p.nodes = append(p.nodes, n)
	if len(p.nodes) > len(p.freeBits)*64 {
		p.freeBits = append(p.freeBits, 0)
	}
	p.drawW += n.idleDrawW
	return n
}

// pairingPolicy is a co-scheduling policy value over a hand-built
// partition, its pairable-primary index sized and every seated node's
// bit derived — what newSchedPolicy and charge do on a cluster.
func pairingPolicy(penalty float64, p *partition) *schedPolicy {
	pol := &schedPolicy{penalty: penalty}
	p.indexPairable()
	for _, n := range p.nodes {
		pol.reindex(n)
	}
	return pol
}

// runningOn seats a primary on the node as a started job would be:
// claimed, with a hardware job at the given frequency.
func runningOn(n *nodeD, desc JobDesc, freqKHz int) *Job {
	cfg := desc.Config()
	cfg.FreqKHz = freqKHz
	j := &Job{Desc: desc, State: StateRunning, node: n}
	n.current = j
	n.hwJob = &hw.Job{Config: cfg}
	return j
}

func TestAdmitFit(t *testing.T) {
	idle, deltas := testLadderWatts()
	ladder := hw.DefaultSpec().FrequenciesKHz
	top := ladder[len(ladder)-1]
	// secondRung admits a full-width job at every rung but the fastest.
	secondRung := idle + (deltas[len(deltas)-2]+deltas[len(deltas)-1])/2
	pinned := sleepDesc(32, time.Minute, "")
	pinned.MaxFreqKHz, pinned.MinFreqKHz = top, top

	cases := []struct {
		name    string
		freqCap bool
		capW    float64
		desc    JobDesc
		wantKHz int    // frequency request after fit; 0 = left unpinned
		wantWhy string // "" = go
	}{
		{name: "no budget: go", freqCap: true, capW: 0, desc: sleepDesc(32, time.Minute, "")},
		{name: "fits at the ladder top: go", freqCap: true, capW: idle + 2*deltas[len(deltas)-1], desc: sleepDesc(32, time.Minute, "")},
		{name: "freqcap pins the fastest fitting rung", freqCap: true, capW: secondRung, desc: sleepDesc(32, time.Minute, ""),
			wantKHz: ladder[len(ladder)-2]},
		{name: "freqcap honours an explicit --cpu-freq and waits", freqCap: true, capW: secondRung, desc: pinned,
			wantKHz: top, wantWhy: reasonPowerCap},
		{name: "freqcap with no fitting rung waits", freqCap: true, capW: idle + deltas[0]/2, desc: sleepDesc(32, time.Minute, ""),
			wantWhy: reasonPowerCap},
		{name: "wait mode never pins", capW: secondRung, desc: sleepDesc(32, time.Minute, ""), wantWhy: reasonPowerCap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &partition{capW: tc.capW}
			n := bareNode(p)
			pol := &schedPolicy{freqCap: tc.freqCap}
			job := &Job{Desc: tc.desc}
			if ok := pol.fit(job, n); ok != (tc.wantWhy == "") || job.Reason != tc.wantWhy {
				t.Fatalf("fit = %v with reason %q, want reason %q", ok, job.Reason, tc.wantWhy)
			}
			if job.Desc.MaxFreqKHz != tc.wantKHz || job.Desc.MinFreqKHz != tc.wantKHz {
				t.Fatalf("frequency request %d..%d kHz, want %d", job.Desc.MinFreqKHz, job.Desc.MaxFreqKHz, tc.wantKHz)
			}
			var denials, capped int64
			if tc.wantWhy != "" {
				denials = 1
			} else if tc.wantKHz != 0 {
				capped = 1
			}
			if pol.totals.CapDenials != denials || pol.totals.FreqCapped != capped {
				t.Fatalf("totals = %+v, want %d denials / %d freq-capped", pol.totals, denials, capped)
			}
			if p.drawW != idle {
				t.Fatalf("fit moved the ledger: %g W, want the %g W idle floor", p.drawW, idle)
			}
		})
	}
}

func TestAdmitHold(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	high := func(time.Time) float64 { return 1 }
	low := func(time.Time) float64 { return 0.5 } // at the threshold: favourable
	pol := func(sig DeferralSignal) *schedPolicy {
		return &schedPolicy{signal: sig, threshold: 0.5, maxDefer: 2 * time.Hour, check: 10 * time.Minute}
	}
	job := func(deadline time.Time) *Job {
		return &Job{SubmitTime: t0, Desc: JobDesc{Deferrable: true, TimeLimit: 30 * time.Minute, Deadline: deadline}}
	}

	cases := []struct {
		name     string
		signal   DeferralSignal
		deadline time.Time
		now      time.Time
		wantWake time.Time // zero = go
	}{
		{name: "favourable signal: go", signal: low, now: t0},
		{name: "held until the next check", signal: high, now: t0.Add(time.Hour), wantWake: t0.Add(70 * time.Minute)},
		{name: "held until submit+maxDefer when that is sooner", signal: high, now: t0.Add(115 * time.Minute), wantWake: t0.Add(2 * time.Hour)},
		{name: "held until deadline−timeLimit when that is sooner", signal: high, deadline: t0.Add(95 * time.Minute), now: t0.Add(time.Hour),
			wantWake: t0.Add(65 * time.Minute)},
		{name: "at the bound: go", signal: high, now: t0.Add(2 * time.Hour)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := job(tc.deadline)
			wake, held := pol(tc.signal).hold(j, tc.now, tc.now.UnixNano())
			if held != !tc.wantWake.IsZero() || !wake.Equal(tc.wantWake) {
				t.Fatalf("hold = %v, %v; want wake %v", wake, held, tc.wantWake)
			}
			if (j.Reason == reasonEnergyHold) != held {
				t.Fatalf("reason = %q with held = %v", j.Reason, held)
			}
		})
	}

	t.Run("a held job counts once, and its forced dispatch once", func(t *testing.T) {
		p, j := pol(high), job(time.Time{})
		for i := 0; i < 3; i++ { // three passes find it held
			if _, held := holdAt(p, j, t0.Add(time.Duration(i)*time.Minute)); !held {
				t.Fatalf("pass %d: not held", i)
			}
		}
		for i := 0; i < 3; i++ { // three more find it past its bound, still without a node
			if _, held := holdAt(p, j, t0.Add(2*time.Hour+time.Duration(i)*time.Minute)); held {
				t.Fatalf("forced pass %d: still held", i)
			}
		}
		if p.totals.DeferredJobs != 1 || p.totals.ForcedDispatches != 1 {
			t.Fatalf("totals = %+v, want 1 deferred / 1 forced", p.totals)
		}
		// A job the signal released was never forced.
		p, j = pol(high), job(time.Time{})
		holdAt(p, j, t0)
		p.signal = low
		holdAt(p, j, t0.Add(10*time.Minute))
		if p.totals.DeferredJobs != 1 || p.totals.ForcedDispatches != 0 {
			t.Fatalf("signal release: totals = %+v, want 1 deferred / 0 forced", p.totals)
		}
	})
}

// holdAt asks hold at an instant, deriving the tick the scheduling pass
// takes from the clock.
func holdAt(pol *schedPolicy, j *Job, now time.Time) (time.Time, bool) {
	return pol.hold(j, now, now.UnixNano())
}

func TestPlace(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const freq = 2_200_000
	compute := func(tasks int) JobDesc { return sleepDesc(tasks, 20*time.Minute, workload.ProfileCompute) }
	memory := func(tasks int) JobDesc { return sleepDesc(tasks, 10*time.Minute, workload.ProfileMemory) }

	// Each case seats something that must be skipped on the first node
	// and an acceptable compute-bound primary on the second and third:
	// place must return the second (first fit in slot order).
	skips := []struct {
		name string
		seat func(n *nodeD)
		job  JobDesc
	}{
		{name: "idle node (takeIdle's business)", seat: func(*nodeD) {}, job: memory(8)},
		{name: "exclusive primary", job: memory(8), seat: func(n *nodeD) {
			d := compute(8)
			d.Exclusive = true
			runningOn(n, d, freq)
		}},
		{name: "same-profile primary", job: memory(8), seat: func(n *nodeD) { runningOn(n, memory(8), freq) }},
		{name: "unprofiled primary", job: memory(8), seat: func(n *nodeD) { runningOn(n, sleepDesc(8, time.Hour, ""), freq) }},
		{name: "over the cores", job: memory(8), seat: func(n *nodeD) { runningOn(n, compute(30), freq) }},
		{name: "over the memory", seat: func(n *nodeD) {
			d := compute(8)
			d.MemoryMB = 200 * 1024
			runningOn(n, d, freq)
		}, job: func() JobDesc { d := memory(8); d.MemoryMB = 100 * 1024; return d }()},
		{name: "drained node", job: memory(8), seat: func(n *nodeD) { runningOn(n, compute(8), freq); n.drained = true }},
		{name: "already paired", job: memory(8), seat: func(n *nodeD) { runningOn(n, compute(8), freq); n.coJob = &Job{} }},
		{name: "promoted secondary as occupant", job: memory(8), seat: func(n *nodeD) {
			n.current = &Job{Desc: compute(8), coSecondary: true}
		}},
	}
	for _, tc := range skips {
		t.Run("skips "+tc.name, func(t *testing.T) {
			p := &partition{}
			first, second, third := bareNode(p), bareNode(p), bareNode(p)
			tc.seat(first)
			runningOn(second, compute(16), freq)
			runningOn(third, compute(16), freq)
			pol := pairingPolicy(1.5, p)
			job := &Job{Desc: tc.job}
			var pr pairing
			ok := pol.place(p, job, t0, &pr)
			if !ok || pr.node != second {
				t.Fatalf("place = %+v, %v; want the second node", pr, ok)
			}
			// The plan: the primary's clock, the stretched runtime, and
			// power deltas from the model.
			if pr.cfg.FreqKHz != freq || pr.cfg.Cores != tc.job.NumTasks {
				t.Fatalf("cfg = %+v", pr.cfg)
			}
			if pr.dur != 15*time.Minute {
				t.Fatalf("dur = %v, want 10m × 1.5", pr.dur)
			}
			if want := second.pm.PlacementDeltaW(pr.cfg); pr.sysW != want || pr.cpuW <= 0 || pr.cpuW >= pr.sysW {
				t.Fatalf("sysW = %g (want %g), cpuW = %g", pr.sysW, want, pr.cpuW)
			}
			if pol.totals.CoScheduled != 1 {
				t.Fatalf("CoScheduled = %d", pol.totals.CoScheduled)
			}
		})
	}

	// Refusals: a lone acceptable primary, and a job or a budget that
	// rules the pairing out.
	excl := memory(8)
	excl.Exclusive = true
	late := memory(8)
	late.Deadline = t0.Add(12 * time.Minute) // 10m fits alone, 10m × 1.5 does not
	refusals := []struct {
		name string
		job  JobDesc
		capW float64 // headroom over the partition's draw; 0 = uncapped
	}{
		{name: "exclusive job", job: excl},
		{name: "unprofiled job", job: sleepDesc(8, 10*time.Minute, "")},
		{name: "budget has no room for the secondary", job: memory(8), capW: 1},
		{name: "stretched runtime misses the deadline", job: late},
	}
	for _, tc := range refusals {
		t.Run("refuses: "+tc.name, func(t *testing.T) {
			p := &partition{}
			n := bareNode(p)
			runningOn(n, compute(16), freq)
			if tc.capW > 0 {
				p.capW = p.drawW + tc.capW
			}
			pol := pairingPolicy(1.5, p)
			if p.pairable[pairCompute][0] != 1 {
				t.Fatalf("the lone primary is not indexed: %b", p.pairable[pairCompute][0])
			}
			var pr pairing
			if pol.place(p, &Job{Desc: tc.job}, t0, &pr) || pr != (pairing{}) {
				t.Fatalf("place = %+v, want none", pr)
			}
			if pol.totals.CoScheduled != 0 {
				t.Fatalf("CoScheduled = %d on a refusal", pol.totals.CoScheduled)
			}
		})
	}
}

func TestChargeAndRelease(t *testing.T) {
	idle, deltas := testLadderWatts()
	ladder := hw.DefaultSpec().FrequenciesKHz
	// One node in a partition capped below the charge: the ledger moves,
	// the peak sticks, the overshoot counts.
	p := &partition{capW: idle + deltas[0]/2}
	n := bareNode(p)
	pol := &schedPolicy{}
	job := &Job{}
	cfg := perfmodel.Config{Cores: 32, FreqKHz: ladder[0], ThreadsPerCore: 1}

	pol.charge(job, n, cfg)
	if job.drawDeltaW != deltas[0] {
		t.Fatalf("drawDeltaW = %g, want %g", job.drawDeltaW, deltas[0])
	}
	if want := idle + deltas[0]; p.drawW != want || p.peakDrawW != want {
		t.Fatalf("after charge: draw %g / peak %g, want %g", p.drawW, p.peakDrawW, want)
	}
	if pol.totals.CapViolations != 1 {
		t.Fatalf("CapViolations = %d, want one", pol.totals.CapViolations)
	}

	pol.release(job, n)
	pol.release(job, n) // a second release has nothing left to return
	if math.Abs(p.drawW-idle) > 1e-9 {
		t.Fatalf("after release: draw %.12g, want the %.12g idle floor", p.drawW, idle)
	}
	if p.peakDrawW != idle+deltas[0] {
		t.Fatalf("release moved the peak to %g", p.peakDrawW)
	}
	if job.drawDeltaW != 0 {
		t.Fatalf("drawDeltaW = %g after release", job.drawDeltaW)
	}
}

// The mechanisms hold and place replaced, kept as oracles: hold
// re-deriving the release bound and re-reading the signal on every
// call, place scanning the partition's nodes.

// holdRederiving is hold as it was before the bound was cached on the
// job and the signal's verdict on the policy value.
func holdRederiving(pol *schedPolicy, job *Job, now time.Time) (wake time.Time, held bool) {
	latest := boundRederived(pol, job)
	if !now.Before(latest) {
		if job.deferred {
			job.deferred = false
			pol.totals.ForcedDispatches++
		}
		return time.Time{}, false
	}
	if pol.signal(now) <= pol.threshold {
		return time.Time{}, false
	}
	if !job.deferred {
		job.deferred = true
		pol.totals.DeferredJobs++
	}
	job.Reason = reasonEnergyHold
	wake = now.Add(pol.check)
	if wake.After(latest) {
		wake = latest
	}
	return wake, true
}

// boundRederived is the release bound as holdRederiving derives it on
// every call, written out apart from releaseBound so the cached tick is
// checked against something other than its own source.
func boundRederived(pol *schedPolicy, job *Job) time.Time {
	latest := job.SubmitTime.Add(pol.maxDefer)
	if d := job.Desc.Deadline; !d.IsZero() && d.Add(-job.Desc.TimeLimit).Before(latest) {
		latest = d.Add(-job.Desc.TimeLimit)
	}
	return latest
}

// placeScan is place as it was before the pairable-primary index: the
// first node in the partition's slot order (deterministic first-fit,
// like takeIdle) whose primary has the complementary profile and room
// left, and on which planBeside accepts the job.
func placeScan(pol *schedPolicy, p *partition, job *Job, now time.Time, pr *pairing) bool {
	prof := job.shapeProfile()
	if prof == "" || job.Desc.Exclusive {
		return false
	}
	want := workload.ProfileCompute
	if prof == workload.ProfileCompute {
		want = workload.ProfileMemory
	}
	for _, n := range p.nodes {
		pri := n.current
		if pri == nil || n.coJob != nil || n.drained || n.hwJob == nil {
			continue
		}
		if pri.Desc.Exclusive || pri.coSecondary || pri.shapeProfile() != want {
			continue
		}
		if pri.Desc.NumTasks+job.Desc.NumTasks > n.spec.Cores {
			continue
		}
		if job.Desc.ThreadsPerCPU > n.spec.ThreadsPerCore {
			continue
		}
		if job.Desc.MemoryMB > 0 && job.Desc.MemoryMB+pri.Desc.MemoryMB > n.spec.RAMGB*1024 {
			continue
		}
		if pol.planBeside(job, n, now, pr) {
			return true
		}
	}
	return false
}

// checkPairableIndex asserts that the pairable-primary index equals
// the predicate recomputed from each node's state — and that a policy
// that does not pair keeps none.
func checkPairableIndex(t *testing.T, c *Controller) {
	t.Helper()
	p := c.part
	if !c.pol.pairs() {
		if p.pairable[pairCompute] != nil || p.pairable[pairMemory] != nil {
			t.Fatal("a pairable index kept under a policy that does not pair")
		}
		return
	}
	for k, prof := range [...]string{pairCompute: workload.ProfileCompute, pairMemory: workload.ProfileMemory} {
		for slot, n := range p.nodes {
			pri := n.current
			want := pri != nil && n.hwJob != nil && n.coJob == nil && !n.drained &&
				!pri.Desc.Exclusive && !pri.coSecondary && pri.shapeProfile() == prof
			if got := p.pairable[k][slot>>6]>>uint(slot&63)&1 == 1; got != want {
				t.Fatalf("node %q: %s-primary bit = %v, state says %v (current %v, coJob %v, drained %v) at %v",
					n.name, prof, got, want, pri, n.coJob, n.drained, c.sim.Now())
			}
		}
		if len(p.pairable[k]) != len(p.freeBits) {
			t.Fatalf("index of %d words over %d free-bitmap words", len(p.pairable[k]), len(p.freeBits))
		}
	}
}

// TestPlaceIndexMatchesScan drives a cluster through random starts
// (idle and beside a primary), completions, cancellations of primaries
// and secondaries, drains and resumes, and after every step checks the
// index against the node state and place against the node scan it
// replaced, for a random job.
func TestPlaceIndexMatchesScan(t *testing.T) {
	idle, deltas := testLadderWatts()
	for seed := uint64(1); seed <= 12; seed++ {
		rng := simclock.NewRNG(seed + 9000)
		sim := simclock.New()
		// A budget that refuses some pairings, so planBeside's verdict is
		// part of what must agree.
		capW := 7 * (idle + deltas[len(deltas)-1]*(1.1+0.4*rng.Float64()))
		c, err := NewCluster(sim, DefaultConf(),
			WithNodes(clusterNodes(sim, 7)...),
			WithSchedPolicies(
				&PowerCapPolicy{CapW: capW, Mode: CapModeFreqCap},
				&CoSchedulePolicy{InterferencePenalty: 1 + rng.Float64()/2}))
		if err != nil {
			t.Fatal(err)
		}
		randomDesc := func() JobDesc {
			d := time.Duration(60+rng.Intn(1740)) * time.Second
			desc := sleepDesc(1+rng.Intn(24), d, [...]string{"", workload.ProfileCompute, workload.ProfileMemory}[rng.Intn(3)])
			desc.Exclusive = rng.Intn(6) == 0
			if rng.Intn(4) == 0 {
				desc.MemoryMB = (1 + rng.Intn(hw.DefaultSpec().RAMGB)) * 1024
			}
			if rng.Intn(8) == 0 {
				desc.Deadline = sim.Now().Add(desc.TimeLimit)
			}
			return desc
		}
		var submitted []*Job
		paired := 0
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				j, err := c.Submit(randomDesc())
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				submitted = append(submitted, j)
			case op < 7:
				sim.RunFor(time.Duration(1+rng.Intn(600)) * time.Second)
			default:
				if len(submitted) > 0 {
					operate(t, c, rng, submitted)
				}
			}
			checkPolicyInvariants(t, c) // the index against the node state among them
			probe := &Job{Desc: randomDesc()}
			var got, want pairing
			gotOK := c.pol.place(c.part, probe, sim.Now(), &got)
			wantOK := placeScan(c.pol, c.part, probe, sim.Now(), &want)
			if gotOK != wantOK || got != want {
				t.Fatalf("seed %d step %d: place = %+v, %v; the node scan says %+v, %v",
					seed, step, got, gotOK, want, wantOK)
			}
			if gotOK {
				paired++
			}
		}
		if paired == 0 || c.PolicyTotals().CoScheduled == 0 {
			t.Fatalf("seed %d: nothing ever paired; the comparison is vacuous", seed)
		}
	}
}

// countingSignal is an always-high deferral signal that counts its
// evaluations.
func countingSignal(reads *int) DeferralSignal {
	return func(time.Time) float64 { *reads++; return 1 }
}

// TestHoldReadsSignalOncePerInstant: the verdict is per instant and per
// policy value, not per job and not shared between controllers.
func TestHoldReadsSignalOncePerInstant(t *testing.T) {
	reads := 0
	lane := func() (*simclock.Sim, *Controller) {
		return newPolicyCluster(t, 1, &DeferralPolicy{
			Signal: countingSignal(&reads), Threshold: 0.5, MaxDefer: 6 * time.Hour, Check: 10 * time.Minute,
		})
	}
	sim, c := lane()
	const held = 8
	for i := 0; i < held; i++ {
		desc := sleepDesc(4, 30*time.Minute, "")
		desc.Deferrable = true
		j, err := c.Submit(desc) // each submission is a pass over every job queued so far
		if err != nil {
			t.Fatal(err)
		}
		if j.Reason != reasonEnergyHold {
			t.Fatalf("job %d = %s (%q), want held", j.ID, j.State, j.Reason)
		}
	}
	if reads != 1 {
		t.Fatalf("%d passes over up to %d held jobs at one instant read the signal %d times, want once", held, held, reads)
	}
	c.schedulePart(c.part)
	if reads != 1 {
		t.Fatalf("a second pass at the same instant read the signal again (%d reads)", reads)
	}
	sim.RunFor(10 * time.Minute) // the armed wake: one pass over all of them, one instant later
	if reads != 2 {
		t.Fatalf("the pass at the next check instant made %d reads in all, want 2", reads)
	}
	if got := c.PolicyTotals().SignalReads; got != 2 {
		t.Fatalf("SignalReads = %d, want 2", got)
	}

	// A second controller over the same signal, at an instant the first
	// has a verdict for, asks for its own.
	_, other := lane()
	desc := sleepDesc(4, 30*time.Minute, "")
	desc.Deferrable = true
	if _, err := other.Submit(desc); err != nil {
		t.Fatal(err)
	}
	if reads != 3 || other.PolicyTotals().SignalReads != 1 || c.PolicyTotals().SignalReads != 2 {
		t.Fatalf("two controllers: %d reads in all, %d + %d counted; want 3 = 2 + 1",
			reads, c.PolicyTotals().SignalReads, other.PolicyTotals().SignalReads)
	}
}

// TestHoldMatchesRederivation: over random jobs — no deadline, a
// deadline tighter than max defer, a looser one — asked at random
// non-decreasing instants under a signal that flips, hold with its
// cached bound and memoised verdict answers as the re-deriving one does.
func TestHoldMatchesRederivation(t *testing.T) {
	t0 := simclock.Epoch
	for seed := uint64(1); seed <= propSeeds; seed++ {
		rng := simclock.NewRNG(seed + 7000)
		mk := func() *schedPolicy {
			return &schedPolicy{signal: propSignal(t0, seed), threshold: 0.5,
				maxDefer: time.Duration(1+rng.Intn(4)) * time.Hour, check: time.Duration(5+rng.Intn(20)) * time.Minute}
		}
		pol := mk()
		oracle := *pol
		type pair struct{ got, want *Job }
		var jobs []pair
		for i := 0; i < 40; i++ {
			j := Job{ID: i + 1, SubmitTime: t0.Add(time.Duration(rng.Intn(7200)) * time.Second)}
			j.Desc = JobDesc{Deferrable: true, TimeLimit: time.Duration(10+rng.Intn(110)) * time.Minute}
			switch i % 3 {
			case 1: // tighter than max defer
				j.Desc.Deadline = j.SubmitTime.Add(j.Desc.TimeLimit + time.Duration(rng.Intn(int(pol.maxDefer/time.Second)))*time.Second)
			case 2: // looser
				j.Desc.Deadline = j.SubmitTime.Add(j.Desc.TimeLimit + pol.maxDefer + time.Duration(1+rng.Intn(7200))*time.Second)
			}
			k := j
			jobs = append(jobs, pair{&j, &k})
		}
		now := t0
		for step := 0; step < 300; step++ {
			if rng.Intn(3) > 0 { // several asks share an instant, as in a pass
				now = now.Add(time.Duration(rng.Intn(900)) * time.Second)
			}
			pr := jobs[rng.Intn(len(jobs))]
			if now.Before(pr.got.SubmitTime) {
				continue
			}
			gotWake, gotHeld := holdAt(pol, pr.got, now)
			wantWake, wantHeld := holdRederiving(&oracle, pr.want, now)
			if gotHeld != wantHeld || !gotWake.Equal(wantWake) {
				t.Fatalf("seed %d job %d at %v: hold = %v, %v; re-derived %v, %v", seed, pr.got.ID, now, gotWake, gotHeld, wantWake, wantHeld)
			}
			if pr.got.deferred != pr.want.deferred || pr.got.Reason != pr.want.Reason {
				t.Fatalf("seed %d job %d: deferred %v reason %q, re-derived %v %q",
					seed, pr.got.ID, pr.got.deferred, pr.got.Reason, pr.want.deferred, pr.want.Reason)
			}
			if bound := boundRederived(&oracle, pr.want).UnixNano(); pr.got.releaseTick != bound {
				t.Fatalf("seed %d job %d: cached release bound %d, recomputed %d", seed, pr.got.ID, pr.got.releaseTick, bound)
			}
		}
		if pol.totals.DeferredJobs != oracle.totals.DeferredJobs || pol.totals.ForcedDispatches != oracle.totals.ForcedDispatches {
			t.Fatalf("seed %d: totals %+v, re-derived %+v", seed, pol.totals, oracle.totals)
		}
		if pol.totals.DeferredJobs == 0 || pol.totals.ForcedDispatches == 0 {
			t.Fatalf("seed %d: nothing held or nothing forced (%+v); the comparison is vacuous", seed, pol.totals)
		}
	}
}

// TestHoldReleasesAtOnceOnADeadlineOutOfReach: a deadline that left no
// room for the time limit even at submission — or one so far in the
// past that its tick would wrap — releases the job the first time hold
// sees it, as the re-deriving hold did.
func TestHoldReleasesAtOnceOnADeadlineOutOfReach(t *testing.T) {
	t0 := simclock.Epoch
	for _, deadline := range []time.Time{t0.Add(time.Minute), time.Date(1, 1, 2, 0, 0, 0, 0, time.UTC)} {
		pol := &schedPolicy{signal: func(time.Time) float64 { return 1 }, threshold: 0.5, maxDefer: time.Hour, check: time.Minute}
		j := &Job{SubmitTime: t0, Desc: JobDesc{Deferrable: true, TimeLimit: time.Hour, Deadline: deadline}}
		if wake, held := holdAt(pol, j, t0); held {
			t.Fatalf("deadline %v: held until %v", deadline, wake)
		}
	}
}

// TestJobSize pins the record's size: one Job per submission is the
// cluster simulator's largest per-submission allocation, and
// cluster-nopolicy's alloc_bytes_per_op bound (2 % of 47.65 B) is less
// than one more 8-byte word per job would spend. A new field goes into
// the padding beside userSlot and the flags, or pays for itself. (552
// bytes allocate from the 576-byte size class, as 560 did.)
func TestJobSize(t *testing.T) {
	if got := unsafe.Sizeof(Job{}); got != 552 {
		t.Fatalf("unsafe.Sizeof(Job{}) = %d, want 552: a word per job is ~0.9 B per submission on the 1,024-node workload, "+
			"most of its 0.95 B/op regression bound — pack the field into existing padding or shrink another", got)
	}
}
