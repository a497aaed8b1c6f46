package simclock

import (
	"fmt"
	"testing"
	"time"
)

// --- reference model -------------------------------------------------
//
// refSim is a deliberately naive event queue — an unsorted slice with
// linear minimum scans — implementing the same semantics as Sim:
// (time, scheduling-order) execution, lazy cancellation, RunUntil
// advancing to the boundary, RunBefore stopping strictly short of it.
// The differential fuzz test drives both through identical operation
// sequences and requires identical execution traces.

type refEvent struct {
	at   time.Duration // offset from start
	seq  uint64
	id   uint64
	fn   func()
	dead bool
}

type refSim struct {
	now time.Duration
	seq uint64
	ids uint64
	evs []*refEvent
}

func (r *refSim) schedule(d time.Duration, fn func()) uint64 {
	r.ids++
	r.evs = append(r.evs, &refEvent{at: r.now + d, seq: r.seq, id: r.ids, fn: fn})
	r.seq++
	return r.ids
}

func (r *refSim) cancel(id uint64) bool {
	for _, ev := range r.evs {
		if ev.id == id && !ev.dead {
			ev.dead = true
			return true
		}
	}
	return false
}

func (r *refSim) min() *refEvent {
	var best *refEvent
	for _, ev := range r.evs {
		if ev.dead {
			continue
		}
		if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
			best = ev
		}
	}
	return best
}

func (r *refSim) remove(target *refEvent) {
	for i, ev := range r.evs {
		if ev == target {
			r.evs = append(r.evs[:i], r.evs[i+1:]...)
			return
		}
	}
}

func (r *refSim) step() bool {
	ev := r.min()
	if ev == nil {
		return false
	}
	r.remove(ev)
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refSim) runUntil(t time.Duration) {
	for {
		ev := r.min()
		if ev == nil || ev.at > t {
			break
		}
		r.step()
	}
	r.now = t
}

func (r *refSim) runBefore(t time.Duration) {
	for {
		ev := r.min()
		if ev == nil || ev.at >= t {
			return
		}
		r.step()
	}
}

func (r *refSim) pending() int {
	n := 0
	for _, ev := range r.evs {
		if !ev.dead {
			n++
		}
	}
	return n
}

// --- differential driver ---------------------------------------------

// queueOps is the common surface the fuzz driver exercises on both
// implementations. Durations are relative so the two logs compare on
// offsets, not absolute instants.
type queueOps interface {
	Schedule(d time.Duration, fn func()) uint64
	Cancel(id uint64) bool
	Step() bool
	RunUntil(d time.Duration) // absolute offset from start
	RunBefore(d time.Duration)
	NowOffset() time.Duration
	Pending() int
}

type simUnderTest struct {
	s     *Sim
	start time.Time
}

func (u *simUnderTest) Schedule(d time.Duration, fn func()) uint64 {
	return uint64(u.s.After(d, fn))
}
func (u *simUnderTest) Cancel(id uint64) bool { return u.s.Cancel(EventID(id)) }
func (u *simUnderTest) Step() bool            { return u.s.Step() }
func (u *simUnderTest) RunUntil(d time.Duration) {
	if t := u.start.Add(d); !t.Before(u.s.Now()) {
		u.s.RunUntil(t)
	}
}
func (u *simUnderTest) RunBefore(d time.Duration) { u.s.RunBefore(u.start.Add(d)) }
func (u *simUnderTest) NowOffset() time.Duration  { return u.s.Now().Sub(u.start) }
func (u *simUnderTest) Pending() int              { return u.s.Pending() }

type refUnderTest struct{ r *refSim }

func (u *refUnderTest) Schedule(d time.Duration, fn func()) uint64 { return u.r.schedule(d, fn) }
func (u *refUnderTest) Cancel(id uint64) bool                      { return u.r.cancel(id) }
func (u *refUnderTest) Step() bool                                 { return u.r.step() }
func (u *refUnderTest) RunUntil(d time.Duration) {
	if d >= u.r.now {
		u.r.runUntil(d)
	}
}
func (u *refUnderTest) RunBefore(d time.Duration) { u.r.runBefore(d) }
func (u *refUnderTest) NowOffset() time.Duration  { return u.r.now }
func (u *refUnderTest) Pending() int              { return u.r.pending() }

// opDurations mixes magnitudes so schedules land in the current
// bucket, across the near band, in the far band, and — repeatedly — at
// the exact same instant (index 0), exercising FIFO tie-breaking.
var opDurations = []time.Duration{
	0, 0, time.Nanosecond, 500 * time.Nanosecond,
	time.Microsecond, 900 * time.Microsecond,
	50 * time.Millisecond, time.Second,
	10 * time.Minute, 7 * time.Hour, 40 * 24 * time.Hour,
}

// interpret runs one fuzz input against an implementation, returning
// the execution trace: one entry per fired event plus periodic clock
// and queue-depth observations.
func interpret(data []byte, q queueOps) []string {
	var log []string
	fire := func(tag int, child time.Duration) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %d @%d", tag, q.NowOffset()))
			if child > 0 {
				// Events scheduled from within callbacks (the controller's
				// completion → reschedule pattern).
				q.Schedule(child, func() {
					log = append(log, fmt.Sprintf("child %d @%d", tag, q.NowOffset()))
				})
			}
		}
	}
	var ids []uint64
	for i := 0; i+1 < len(data); i += 2 {
		op, val := data[i], int(data[i+1])
		switch op % 6 {
		case 0, 1: // schedule (weighted: most common operation)
			d := opDurations[val%len(opDurations)]
			var child time.Duration
			if val%5 == 0 {
				child = opDurations[(val/3)%len(opDurations)]
			}
			ids = append(ids, q.Schedule(d, fire(i, child)))
		case 2: // cancel a previously issued id (possibly already fired)
			if len(ids) > 0 {
				got := q.Cancel(ids[val%len(ids)])
				log = append(log, fmt.Sprintf("cancel %v", got))
			}
		case 3:
			log = append(log, fmt.Sprintf("step %v @%d", q.Step(), q.NowOffset()))
		case 4:
			q.RunUntil(q.NowOffset() + opDurations[val%len(opDurations)])
			log = append(log, fmt.Sprintf("until @%d pend %d", q.NowOffset(), q.Pending()))
		case 5:
			q.RunBefore(q.NowOffset() + opDurations[val%len(opDurations)])
			log = append(log, fmt.Sprintf("before @%d pend %d", q.NowOffset(), q.Pending()))
		}
	}
	for q.Step() {
	}
	log = append(log, fmt.Sprintf("done @%d pend %d", q.NowOffset(), q.Pending()))
	return log
}

// FuzzEventQueueDifferential drives the calendar queue and the
// reference queue through the same randomized schedule / cancel /
// step / window interleavings and requires byte-identical execution
// traces — the same events, in the same order, at the same instants,
// including same-instant FIFO ties and cancellations collected from
// the pool.
func FuzzEventQueueDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 6, 2, 3, 0})
	f.Add([]byte{0, 10, 0, 10, 0, 10, 2, 1, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{0, 8, 0, 9, 4, 7, 0, 5, 5, 6, 2, 0, 3, 0})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 2, 2, 2, 3, 0, 0, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip("bounded schedule length")
		}
		got := interpret(data, &simUnderTest{s: New(), start: Epoch})
		want := interpret(data, &refUnderTest{r: &refSim{}})
		if len(got) != len(want) {
			t.Fatalf("trace length diverged: calendar %d entries, reference %d\ncalendar: %v\nreference: %v",
				len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trace diverged at entry %d: calendar %q, reference %q", i, got[i], want[i])
			}
		}
	})
}

// --- new-surface unit tests ------------------------------------------

func TestRunBeforeExcludesBoundary(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.After(d, func() { fired = append(fired, d) })
	}
	s.RunBefore(Epoch.Add(2 * time.Second))
	if len(fired) != 1 || fired[0] != time.Second {
		t.Fatalf("RunBefore ran %v, want just 1s", fired)
	}
	// The clock rests at the last executed event, not the barrier.
	if got := s.Now().Sub(Epoch); got != time.Second {
		t.Fatalf("now = Epoch+%v, want Epoch+1s", got)
	}
	// A barrier at or before now is a no-op.
	s.RunBefore(Epoch)
	if len(fired) != 1 {
		t.Fatalf("RunBefore(past) fired events: %v", fired)
	}
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestLastEventAt(t *testing.T) {
	s := New()
	if !s.LastEventAt().Equal(Epoch) {
		t.Fatalf("LastEventAt before any event = %v, want start", s.LastEventAt())
	}
	s.After(3*time.Second, func() {})
	s.Run()
	s.RunUntil(Epoch.Add(time.Hour)) // advances Now, not LastEventAt
	if got := s.LastEventAt().Sub(Epoch); got != 3*time.Second {
		t.Fatalf("LastEventAt = Epoch+%v, want Epoch+3s", got)
	}
	if got := s.Now().Sub(Epoch); got != time.Hour {
		t.Fatalf("Now = Epoch+%v, want Epoch+1h", got)
	}
}

// TestCancelledEventPoolReuse covers the pooled-record lifecycle: a
// cancelled event's record is collected lazily and recycled into later
// schedules without resurrecting the cancelled callback. Runs under
// -race in the chaos suite.
func TestCancelledEventPoolReuse(t *testing.T) {
	s := New()
	var cancelled, kept int
	var ids []EventID
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			ids = append(ids, s.After(time.Duration(i+1)*time.Millisecond, func() { cancelled++ }))
		}
		for _, id := range ids {
			s.Cancel(id)
		}
		ids = ids[:0]
		// Records from the cancelled batch are reused here; the old
		// callbacks must not leak through.
		for i := 0; i < 20; i++ {
			s.After(time.Duration(i+1)*time.Millisecond, func() { kept++ })
		}
		s.RunFor(time.Second)
	}
	if cancelled != 0 {
		t.Fatalf("%d cancelled callbacks ran", cancelled)
	}
	if kept != 50*20 {
		t.Fatalf("kept = %d, want %d", kept, 50*20)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after drain", s.Pending())
	}
}

func TestFarBandRebuild(t *testing.T) {
	// Schedule a spread far beyond the initial near band so pops force
	// far-band rebuilds, including a very distant outlier.
	s := New()
	var fired []time.Duration
	spread := []time.Duration{
		time.Millisecond, 8 * time.Minute, 9 * time.Minute, // near band (≈9 min wide initially)
		30 * time.Minute, time.Hour, 26 * time.Hour, // far band
		365 * 24 * time.Hour, // outlier stretching the rebuild width
	}
	for i := len(spread) - 1; i >= 0; i-- {
		d := spread[i]
		s.After(d, func() { fired = append(fired, d) })
	}
	s.Run()
	if len(fired) != len(spread) {
		t.Fatalf("fired %d events, want %d", len(fired), len(spread))
	}
	for i := range spread {
		if fired[i] != spread[i] {
			t.Fatalf("out of order: fired %v", fired)
		}
	}
}

// TestFreshSimFirstEventPerBucketDoesNotAllocate pins the inline bucket
// slots: on a fresh Sim, one event into each of the 256 buckets and a
// full drain allocate nothing beyond the event records (pre-filled into
// the pool here, so the expected count is exactly zero). A provisioned
// sweep node lives for one configuration, so its ticker meets every
// bucket for the first time.
func TestFreshSimFirstEventPerBucketDoesNotAllocate(t *testing.T) {
	const runs = 10
	sims := make([]*Sim, runs+1) // AllocsPerRun adds one warm-up call
	for i := range sims {
		s := New()
		for j := 0; j < nbuckets; j++ {
			s.free = append(s.free, &event{})
		}
		sims[i] = s
	}
	act := &benchAction{}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := sims[next]
		next++
		for b := 0; b < nbuckets; b++ {
			s.AtAction(Epoch.Add(time.Duration(int64(b)*defaultWidth)), act, uint64(b))
		}
		for b := range s.q.buckets {
			if len(s.q.buckets[b]) != 1 {
				t.Fatalf("bucket %d holds %d events, want one each", b, len(s.q.buckets[b]))
			}
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("first event per bucket on a fresh Sim allocates %.0f times, want 0", allocs)
	}
	if want := (runs + 1) * nbuckets; act.fired != want {
		t.Fatalf("fired %d events, want %d", act.fired, want)
	}
}

// TestBucketSlotOutgrownMatchesOracle drives the differential driver
// with buckets that hold several events at once — the inline slot is
// outgrown onto the heap, drained, and the grown backing reused — and
// requires the reference queue's trace.
func TestBucketSlotOutgrownMatchesOracle(t *testing.T) {
	// opDurations[7] = 1 s, [6] = 50 ms, [0] = same instant: all land in
	// the first ≈2.1 s bucket of a fresh band.
	data := []byte{
		0, 7, 0, 7, 0, 6, 0, 0, 0, 7, // five events, one bucket; 0,0 spawns a child
		2, 1, // cancel one of the 1 s events while it sits mid-heap
		3, 0, 3, 0, // pop two
		0, 6, 0, 7, // refill the grown bucket
		4, 7, // run 1 s on
		0, 0, 0, 0, 0, 5, // same-instant ties after a drain
	}
	s := New()
	got := interpret(data, &simUnderTest{s: s, start: Epoch})
	outgrown := false
	for _, b := range s.q.buckets {
		outgrown = outgrown || cap(b) > 1
	}
	if !outgrown {
		t.Fatal("no bucket outgrew its inline slot")
	}
	want := interpret(data, &refUnderTest{r: &refSim{}})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("trace diverged:\ncalendar:  %v\nreference: %v", got, want)
	}
}

// --- benchmarks -------------------------------------------------------

type benchAction struct{ fired int }

func (a *benchAction) Fire(uint64) { a.fired++ }

// BenchmarkSimSchedule measures the steady-state schedule+pop cycle on
// the Action fast path with a standing population of ~1k events (the
// cluster simulator's working set: one completion per busy node). The
// alloc-check make target pins it at 0 allocs/op — the event pool and
// the closure-free Action path make the hot loop allocation-free.
func BenchmarkSimSchedule(b *testing.B) {
	s := New()
	act := &benchAction{}
	// Warm the pool to the standing population before measuring.
	for i := 0; i < 1024; i++ {
		s.AfterAction(time.Duration(1+(i*7919)%100000)*time.Microsecond, act, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterAction(time.Duration(1+(i*7919)%100000)*time.Microsecond, act, uint64(i))
		s.Step()
	}
	b.StopTimer()
	if act.fired != b.N {
		b.Fatalf("fired %d, want %d", act.fired, b.N)
	}
}

// BenchmarkSimScheduleClosure is the closure (At/After) path for
// comparison: one closure allocation per event is expected.
func BenchmarkSimScheduleClosure(b *testing.B) {
	s := New()
	n := 0
	for i := 0; i < 1024; i++ {
		s.After(time.Duration(1+(i*7919)%100000)*time.Microsecond, func() { n++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(1+(i*7919)%100000)*time.Microsecond, func() { n++ })
		s.Step()
	}
}
