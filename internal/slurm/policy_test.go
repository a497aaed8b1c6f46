package slurm

import (
	"math"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/workload"
)

// The policy's three decisions, tested as values: a schedPolicy plus
// bare partition / nodeD / Job structs — no clock, no hardware, no
// controller. The cluster-level behaviour of the same decisions is
// energy_test.go's and the property suite's.

// bareNode is a node with a spec and a power model but no hardware
// behind it, counted toward the given partitions' draw ledgers at its
// idle floor.
func bareNode(parts ...*partition) *nodeD {
	n := &nodeD{spec: hw.DefaultSpec(), pm: NewPowerModel(perfmodel.Default())}
	n.idleDrawW = n.pm.IdleNodeW()
	for _, p := range parts {
		n.parts = append(n.parts, p)
		p.nodes = append(p.nodes, n)
		p.drawW += n.idleDrawW
	}
	return n
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
			wake, held := pol(tc.signal).hold(j, tc.now)
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
			if _, held := p.hold(j, t0.Add(time.Duration(i)*time.Minute)); !held {
				t.Fatalf("pass %d: not held", i)
			}
		}
		for i := 0; i < 3; i++ { // three more find it past its bound, still without a node
			if _, held := p.hold(j, t0.Add(2*time.Hour+time.Duration(i)*time.Minute)); held {
				t.Fatalf("forced pass %d: still held", i)
			}
		}
		if p.totals.DeferredJobs != 1 || p.totals.ForcedDispatches != 1 {
			t.Fatalf("totals = %+v, want 1 deferred / 1 forced", p.totals)
		}
		// A job the signal released was never forced.
		p, j = pol(high), job(time.Time{})
		p.hold(j, t0)
		p.signal = low
		p.hold(j, t0.Add(10*time.Minute))
		if p.totals.DeferredJobs != 1 || p.totals.ForcedDispatches != 0 {
			t.Fatalf("signal release: totals = %+v, want 1 deferred / 0 forced", p.totals)
		}
	})
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
			pol := &schedPolicy{penalty: 1.5}
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
			pol := &schedPolicy{penalty: 1.5}
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
	// One node shared by two partitions, one of them capped below the
	// charge: both ledgers move, the peak sticks, the overshoot counts.
	a, b := &partition{}, &partition{capW: idle + deltas[0]/2}
	n := bareNode(a, b)
	pol := &schedPolicy{}
	job := &Job{}
	cfg := perfmodel.Config{Cores: 32, FreqKHz: ladder[0], ThreadsPerCore: 1}

	pol.charge(job, n, cfg)
	if job.drawDeltaW != deltas[0] {
		t.Fatalf("drawDeltaW = %g, want %g", job.drawDeltaW, deltas[0])
	}
	for _, p := range []*partition{a, b} {
		if want := idle + deltas[0]; p.drawW != want || p.peakDrawW != want {
			t.Fatalf("after charge: draw %g / peak %g, want %g", p.drawW, p.peakDrawW, want)
		}
	}
	if pol.totals.CapViolations != 1 {
		t.Fatalf("CapViolations = %d, want the capped partition's one", pol.totals.CapViolations)
	}

	pol.release(job, n)
	pol.release(job, n) // a second release has nothing left to return
	for _, p := range []*partition{a, b} {
		if math.Abs(p.drawW-idle) > 1e-9 {
			t.Fatalf("after release: draw %.12g, want the %.12g idle floor", p.drawW, idle)
		}
		if p.peakDrawW != idle+deltas[0] {
			t.Fatalf("release moved the peak to %g", p.peakDrawW)
		}
	}
	if job.drawDeltaW != 0 {
		t.Fatalf("drawDeltaW = %g after release", job.drawDeltaW)
	}
}
