package slurm

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// TestSettledPrefixMatchesFullWalk is the settled prefix's differential
// test, with the full walk as its oracle: two controllers under cap +
// co-scheduling + deferral are driven by one random operator sequence —
// submissions (some deferrable), clock advances one event at a time
// and batched flushes, interleaved at random — while the
// deferral signal crosses its threshold. One node has half the cores,
// so a job can be kept for no node while a node is free. One controller
// has its settled record cleared before everything that may run a pass,
// so every one of its passes walks the whole window. After every step
// the two must agree on squeue (id, state, reason), the accounting rows,
// the policy totals but for the two work counters that measure the
// walk, the armed wake, the clock's queue, and — when the full walk's
// last pass left a record — the record's length, per-kind counts,
// release bound and dense kinds; each controller's dense kinds and ticks
// must also match its jobs (recordDiff). Every verdict kind a pass
// may skip on a moved epoch or an unclean record (the skips
// schedPolicy.skips counts) must be skipped somewhere in the 40 seeds,
// and fit's refusals never: a mask that skipped one there fails the
// comparison itself. Some pass by kind must skip a kind after a start
// that it asked before it, and some must recompute the release bound
// because a record job it started held it (rebound).
func TestSettledPrefixMatchesFullWalk(t *testing.T) {
	var fastVisits, fullVisits, widened, rebounds int64
	var sum PolicyTotals
	var skips [verdictKinds]int64
	for seed := uint64(1); seed <= 40; seed++ {
		rng := simclock.NewRNG(seed + 11000)
		h := newSettleHarness(t, rng)
		for step := 0; step < 250; step++ {
			h.step(t, rng, fmt.Sprintf("seed %d step %d", seed, step))
		}
		fastVisits += h.fast.PolicyTotals().QueueVisits
		fullVisits += h.full.PolicyTotals().QueueVisits
		tot := h.fast.PolicyTotals()
		sum.DeferredJobs += tot.DeferredJobs
		sum.ForcedDispatches += tot.ForcedDispatches
		sum.CoScheduled += tot.CoScheduled
		sum.CapDenials += tot.CapDenials
		sum.FreqCapped += tot.FreqCapped
		for k, n := range h.fast.pol.skips {
			skips[k] += n
		}
		widened += h.fast.pol.widened
		rebounds += h.fast.pol.rebounds
	}
	if fastVisits >= fullVisits {
		t.Fatalf("the settled prefix saved nothing: %d queued-job visits, the full walk %d", fastVisits, fullVisits)
	}
	if sum.DeferredJobs == 0 || sum.ForcedDispatches == 0 || sum.CoScheduled == 0 || sum.CapDenials == 0 || sum.FreqCapped == 0 {
		t.Fatalf("a decision never happened (%+v): the comparison is vacuous there", sum)
	}
	names := [verdictKinds]string{"held", "fit-refused", "no-node", "compute", "memory"}
	for k, n := range skips {
		if (n == 0) != (verdict(k) == keptFit) {
			t.Errorf("%s jobs skipped %d times on a moved epoch; want fit refusals never skipped, every other kind somewhere", names[k], n)
		}
	}
	if widened == 0 || rebounds == 0 {
		t.Errorf("%d starts widened a pass's mask, %d passes recomputed the release bound: want both somewhere", widened, rebounds)
	}
	t.Logf("%d queued-job visits against the full walk's %d; skips per kind %v, %d widened masks, %d recomputed bounds; totals %+v",
		fastVisits, fullVisits, skips, widened, rebounds, sum)
}

// FuzzSettledPrefix drives the differential test's controller pair
// from the fuzzer's bytes: the cluster, then one operator a step —
// submit (profile, exclusive, deferrable, deadline), advance, flush —
// comparing the two controllers after each.
func FuzzSettledPrefix(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 200, 0, 40, 5, 1, 0, 3, 1, 0, 0, 0, 0, 0, 9, 30, 6, 12, 7, 0, 11, 5, 4, 0, 3, 2, 1, 0, 0, 0, 0, 6, 3, 7, 4, 8, 8, 10, 2})
	for seed := uint64(1); seed <= 4; seed++ {
		rng := simclock.NewRNG(seed)
		data := make([]byte, 400)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzSettle(t, data) })
}

// fuzzSettle runs FuzzSettledPrefix's body on one input.
func fuzzSettle(tb testing.TB, data []byte) *settleHarness {
	in := &fuzzChoices{data: data}
	h := newSettleHarness(tb, in)
	for step := 0; step < 300 && in.i < len(in.data); step++ {
		h.step(tb, in, fmt.Sprintf("step %d", step))
	}
	return h
}

// TestSettledPrefixCorpusWidensAndRebounds replays the corpus entry
// named widen-rebound, which must keep reaching a pass by kind that
// skips a kind after a start that it asked before it, and one that
// recomputes the release bound because a record job it started held it.
func TestSettledPrefixCorpusWidensAndRebounds(t *testing.T) {
	if h := replayCorpusEntry(t, "widen-rebound"); h.fast.pol.widened == 0 || h.fast.pol.rebounds == 0 {
		t.Fatalf("the widen-rebound corpus entry widens %d masks and recomputes %d bounds, want both",
			h.fast.pol.widened, h.fast.pol.rebounds)
	}
}

// replayCorpusEntry runs FuzzSettledPrefix's body on its committed
// corpus entry of that name.
func replayCorpusEntry(t *testing.T, name string) *settleHarness {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSettledPrefix", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("corpus entry %q is not one []byte value", raw)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return fuzzSettle(t, []byte(data))
}

// choices is where the harness draws its decisions from: a seeded
// simclock.RNG in the test, the fuzzer's bytes in the fuzz target.
type choices interface {
	Intn(n int) int
	Float64() float64
}

// fuzzChoices reads one byte a decision; past the end, every decision
// is 0.
type fuzzChoices struct {
	data []byte
	i    int
}

func (f *fuzzChoices) next() int {
	if f.i >= len(f.data) {
		return 0
	}
	f.i++
	return int(f.data[f.i-1])
}

func (f *fuzzChoices) Intn(n int) int   { return f.next() % n }
func (f *fuzzChoices) Float64() float64 { return float64(f.next()) / 256 }

// settleHarness is the differential pair: fast keeps its settled record,
// full has it cleared before every call that may run a pass.
type settleHarness struct {
	fastSim, fullSim *simclock.Sim
	fast, full       *Controller
}

// newSettleHarness draws a cluster — two to five nodes, the last with
// half the cores; a freqcap budget from one that refuses most
// placements to one that refuses few, so fit refuses, freqcap pins and
// smaller jobs start past refused ones; a square-wave deferral signal;
// batched scheduling or not — and builds it twice.
func newSettleHarness(tb testing.TB, ch choices) *settleHarness {
	idle, deltas := testLadderWatts()
	nodes := 2 + ch.Intn(4)
	capW := float64(nodes) * (idle + deltas[len(deltas)-1]*(0.2+ch.Float64()))
	minute := func(lo, n int) time.Duration { return time.Duration(lo+ch.Intn(n)) * time.Minute }
	period, maxDefer, check := minute(15, 60), minute(20, 150), minute(5, 20)
	batched := ch.Intn(2) == 0
	build := func() (*simclock.Sim, *Controller) {
		sim := simclock.New()
		start := sim.Now()
		hwNodes := clusterNodes(sim, nodes)
		spec := hwNodes[nodes-1].Spec()
		spec.Cores /= 2
		hwNodes[nodes-1] = hw.NewNode(sim, spec, perfmodel.Default(), uint64(nodes))
		opts := []ClusterOption{
			WithNodes(hwNodes...),
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
			tb.Fatal(err)
		}
		return sim, c
	}
	h := &settleHarness{}
	h.fastSim, h.fast = build()
	h.fullSim, h.full = build()
	return h
}

// step draws one operator, applies it to both controllers and compares
// them after it (after every event, for an advance).
func (h *settleHarness) step(tb testing.TB, ch choices, at string) {
	tb.Helper()
	walkAll := func() { h.full.part.settled.n = 0 }
	compare := func(op string) {
		tb.Helper()
		if msg := settleDiff(h.fast, h.full); msg != "" {
			tb.Fatalf("%s (%s) at %v: %s", at, op, h.fastSim.Now(), msg)
		}
	}
	both := func(op string, f func(c *Controller) error) {
		tb.Helper()
		walkAll()
		errFast, errFull := f(h.fast), f(h.full)
		if (errFast == nil) != (errFull == nil) {
			tb.Fatalf("%s (%s): errors differ: %v / %v", at, op, errFast, errFull)
		}
		compare(op)
	}
	switch op := ch.Intn(9); {
	case op < 5:
		desc := settleDesc(ch, h.fastSim.Now())
		both("submit", func(c *Controller) error {
			_, err := c.Submit(desc)
			return err
		})
	case op < 8:
		until := h.fastSim.Now().Add(time.Duration(1+ch.Intn(40)) * time.Minute)
		for h.fastSim.Now().Before(until) {
			walkAll()
			stepped := h.fastSim.Step()
			if h.fullSim.Step() != stepped {
				tb.Fatalf("%s: one clock ran out of events, the other did not", at)
			}
			if !stepped {
				h.fastSim.RunUntil(until)
				h.fullSim.RunUntil(until)
			}
			compare("advance")
		}
	default:
		both("flush", func(c *Controller) error { c.Flush(); return nil })
	}
}

// settleDesc draws a submission on the minute grid, so that arrivals,
// completions, wakes, release bounds and signal flips share instants.
func settleDesc(ch choices, now time.Time) JobDesc {
	d := time.Duration(1+ch.Intn(60)) * time.Minute
	profile := [...]string{"", workload.ProfileCompute, workload.ProfileMemory, workload.ProfileMemory}[ch.Intn(4)]
	desc := sleepDesc(1+ch.Intn(32), d, profile)
	if profile == workload.ProfileCompute && ch.Intn(3) == 0 {
		// A FLOP budget, so the cap's pinned rung changes the runtime.
		shape := workload.FixedWork("settle-work", 200+800*ch.Float64())
		shape.Profile = profile
		desc.Shape, desc.TimeLimit = &shape, 4*time.Hour
	}
	desc.Exclusive = ch.Intn(8) == 0
	if ch.Intn(3) == 0 {
		desc.Deferrable = true
		if ch.Intn(2) == 0 {
			desc.Deadline = now.Add(desc.TimeLimit + time.Duration(ch.Intn(180))*time.Minute)
		}
	}
	return desc
}

// recordDiff describes the first way the controller's settled record
// disagrees with its jobs, or returns "": pending[:n] each carry the
// kind that kept them — held jobs are held deferrable ones, fit
// refusals wait on the cap, the rest are of refusedKind — and their
// release ticks, math.MaxInt64 for a job hold never bounds; the
// per-kind counts are the kinds'.
func recordDiff(c *Controller) string {
	p := c.part
	s := &p.settled
	if s.n == 0 {
		return "" // no record: its counts are the last one's
	}
	var kinds [verdictKinds]int
	for i, job := range p.pending[:s.n] {
		k, rel := verdict(s.kind[i]), int64(math.MaxInt64)
		if c.pol.holds() && job.Desc.Deferrable {
			rel = job.releaseTick
		}
		var ok bool
		switch k {
		case keptHeld:
			ok = job.Desc.Deferrable && job.Reason == reasonEnergyHold
		case keptFit:
			ok = job.Reason == reasonPowerCap
		default:
			ok = k < verdictKinds && k == refusedKind(job) && job.Reason == "Resources"
		}
		if !ok || s.rel[i] != rel {
			return fmt.Sprintf("record job %d (%s, %s) has kind %d and tick %d; its tick is %d", i, job, job.Reason, k, s.rel[i], rel)
		}
		kinds[k]++
	}
	if kinds != s.kinds {
		return fmt.Sprintf("record counts %v, its kinds %v", s.kinds, kinds)
	}
	return ""
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
	if sa, sb := pa.settled, pb.settled; sb.n > 0 && (sa.n != sb.n || sa.kinds != sb.kinds || sa.release != sb.release ||
		!bytes.Equal(sa.kind[:sa.n], sb.kind[:sb.n])) {
		return fmt.Sprintf("settled record of %d jobs %v, release %d, kinds %v; the full walk's %d jobs %v, release %d, kinds %v",
			sa.n, sa.kinds, sa.release, sa.kind[:sa.n], sb.n, sb.kinds, sb.release, sb.kind[:sb.n])
	}
	if msg := recordDiff(a); msg != "" {
		return msg
	}
	if msg := recordDiff(b); msg != "" {
		return "the full walk's " + msg
	}
	if a.sim.Pending() != b.sim.Pending() || !a.sim.LastEventAt().Equal(b.sim.LastEventAt()) {
		return fmt.Sprintf("%d events pending, last at %v; the full walk's %d, last at %v",
			a.sim.Pending(), a.sim.LastEventAt(), b.sim.Pending(), b.sim.LastEventAt())
	}
	return ""
}
