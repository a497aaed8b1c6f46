// Package simclock provides a deterministic discrete-event simulated
// clock. Every substrate in ecosched (hardware, IPMI sampling, the
// Slurm controller, Chronus benchmarking) advances on the same
// simulated timeline, so a "20-minute" HPCG run completes in
// microseconds of wall time and every experiment is reproducible.
//
// The zero value is not usable; create a simulator with New. An event
// is an Action fired with a caller-chosen argument at an absolute or
// relative simulated time; events execute in time order, and events
// scheduled for the same instant run in scheduling order (FIFO), which
// keeps the simulation deterministic. An event cannot be cancelled: a
// scheduler whose event may go stale (a superseded wake, a stopped
// sampler's tick) checks its own state in Fire and does nothing.
//
// An action may also move the clock forward itself, without an event:
// Horizon says how far it may go — below the next pending event and
// within the bound of the run call that fired it — and SkipToTick goes
// there. Nothing else can happen in between, so a periodic scheduler
// (the IPMI sampler) takes every period up to the horizon in one Fire
// and arms one event for the first period it could not reach.
//
// # Event queue
//
// The pending-event set is a two-tier calendar queue (a ladder queue
// with one rung): a near-horizon band of fixed-width time buckets —
// schedule and pop are O(1) amortized while traffic stays inside the
// band — and an unsorted far band for events beyond it. When the near
// band drains, the far band is re-bucketed with a width re-derived
// from its actual span, so the structure adapts to whatever event
// horizon the workload produces. The clock, and every event key, is an
// int64 nanosecond tick: comparing two is one integer compare, and a
// time.Time is built only when Now or LastEventAt asks for one.
//
// Event records are pooled on a free list and recycled after they
// fire, so a steady-state simulation allocates nothing per event. The
// pool has one invariant: once an event is released back to the free
// list it must not be touched again — its fields are copied out before
// release, and the Action fires from the copies, so Fire is free to
// schedule (and thereby reuse) events. release zeroes the record, so a
// read after it sees a nil Action and tick 0 and fails at once.
package simclock

import (
	"fmt"
	"math"
	"time"
)

// Epoch is the default simulated start time. It is an arbitrary fixed
// instant so that runs are reproducible and timestamps in saved
// benchmarks are stable across test runs.
var Epoch = time.Date(2023, time.May, 10, 3, 0, 0, 0, time.UTC)

// Tick is a simulated instant as a record keeps it: nanoseconds since
// the Unix epoch, in UTC — the clock's own form (Sim.NowTick). The zero
// Tick means none (no deadline, never started): a clock starts after
// the Unix epoch (Reset refuses one that does not) and only moves
// forward, so no run reaches it.
type Tick int64

// UnixNano returns the instant as nanoseconds since the Unix epoch.
func (t Tick) UnixNano() int64 { return int64(t) }

// IsZero reports whether t is the zero Tick, which means none.
func (t Tick) IsZero() bool { return t == 0 }

// Time returns the instant as a UTC time.Time, and the zero Tick as the
// zero time.Time.
func (t Tick) Time() time.Time {
	if t == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(t)).UTC()
}

// Calendar-queue shape. 256 buckets keeps the whole bucket array
// (256 slice headers plus one inline slot each ≈ 8 KB) cache-resident;
// the width floor stops a degenerate rebuild (two events a nanosecond
// apart) from producing a band too narrow to absorb follow-up
// scheduling.
const (
	nbuckets     = 256
	minWidth     = int64(1 << 10) // 1.024 µs
	defaultWidth = int64(1 << 31) // ≈ 2.1 s per bucket, ≈ 9 min band
)

// Action is the event callback: a pre-allocated handler object
// invoked with a caller-chosen argument. Schedulers implement Action
// on a long-lived object — the Slurm controller's running job (its
// completion) and wake, the IPMI sampler's tick — and may pass a
// generation as arg, so scheduling an event allocates nothing.
type Action interface {
	Fire(arg uint64)
}

// event is one pending queue entry. Events are pooled: the struct is
// recycled after it fires, so no caller may retain a reference past
// Step.
type event struct {
	tick int64  // the event's instant, the comparison key
	seq  uint64 // tie-breaker for same-instant events
	act  Action
	arg  uint64
}

// less orders events by (tick, seq): time order, FIFO within an
// instant.
func (ev *event) less(other *event) bool {
	return ev.tick < other.tick || (ev.tick == other.tick && ev.seq < other.seq)
}

// bucket is a min-heap of events ordered by less. Heaps are hand-rolled
// rather than container/heap so push/pop stay free of interface calls.
type bucket []*event

func (b *bucket) push(ev *event) {
	s := append(*b, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].less(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*b = s
}

func (b *bucket) pop() *event {
	s := *b
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && s[r].less(s[l]) {
			l = r
		}
		if !s[l].less(s[i]) {
			break
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
	*b = s
	return top
}

// calQueue is the two-tier calendar queue: nbuckets fixed-width near
// buckets covering [base, top), each a small (tick, seq) min-heap, and
// an unsorted far band for everything at or beyond top.
type calQueue struct {
	buckets [nbuckets]bucket
	// slots is each bucket's first backing array, carved from the Sim:
	// a cluster lane's completions spread over the whole band, so a
	// bucket's first event must not cost an allocation. A bucket that
	// holds two events at once outgrows its slot onto the heap.
	slots  [nbuckets][1]*event
	n      int   // events in the near band
	base   int64 // tick at the start of bucket 0
	width  int64 // bucket width, ns
	top    int64 // base + nbuckets*width, exclusive near bound
	cur    int   // lowest possibly-nonempty bucket
	far    []*event
	farMin int64
	farMax int64
}

// Sim is a discrete-event simulator: a virtual clock plus an ordered
// queue of pending events. Sim is not safe for concurrent use; the
// simulation is single-threaded by design (determinism). Parallelism
// lives above it — the cluster simulator runs one Sim per partition
// lane, the benchmark sweep one per provisioned stack — never in one
// event loop.
type Sim struct {
	nowTick   int64  // the clock
	lastEvent int64  // tick of the last executed event
	seq       uint64 // tie-breaker for same-instant events
	pending   int
	// limit is the latest tick the running call lets an action skip the
	// clock to (Horizon): t under RunUntilTick(t), t−1 under RunBeforeTick(t),
	// unbounded under Step and Run.
	limit int64
	q     calQueue
	free  []*event // event pool
}

// unbounded is the limit of Step and Run: only the next pending event
// bounds a skip.
const unbounded = math.MaxInt64

// New returns a simulator whose clock starts at Epoch.
func New() *Sim { return NewAt(Epoch) }

// NewAt returns a simulator whose clock starts at the given instant,
// which must lie after the Unix epoch (see Tick).
func NewAt(start time.Time) *Sim {
	s := &Sim{}
	for i := range s.q.buckets {
		s.q.buckets[i] = s.q.slots[i][:0]
	}
	s.Reset(start)
	return s
}

// Reset returns the simulator to the state NewAt(start) gives: its
// pending events are dropped unfired and their records go back to the
// pool, whose capacity, like the buckets', is kept for the next run. A
// sweep builds one node stack per configuration, each on a Sim of about
// 9 KB, so it hands its Sims on rather than building one per stack.
// A start at or before the Unix epoch panics: no clock instant may be
// the zero Tick.
func (s *Sim) Reset(start time.Time) {
	tick := start.UnixNano()
	if tick <= 0 {
		panic(fmt.Sprintf("simclock: start %v is not after the Unix epoch", start))
	}
	q := &s.q
	for i := range q.buckets {
		for _, ev := range q.buckets[i] {
			s.release(ev)
		}
		clear(q.buckets[i])
		q.buckets[i] = q.buckets[i][:0]
	}
	for _, ev := range q.far {
		s.release(ev)
	}
	clear(q.far)
	q.far = q.far[:0]
	q.n, q.cur, q.farMin, q.farMax = 0, 0, 0, 0
	q.width = defaultWidth
	q.base = tick
	q.top = q.base + nbuckets*q.width
	s.nowTick, s.lastEvent = tick, tick
	s.seq, s.pending, s.limit = 0, 0, unbounded
}

// Now returns the current simulated time, in UTC.
func (s *Sim) Now() time.Time { return Tick(s.nowTick).Time() }

// NowTick returns the current simulated time as nanoseconds since the
// Unix epoch, the clock's own form: Now builds a time.Time from it.
func (s *Sim) NowTick() int64 { return s.nowTick }

// LastEventAt returns the instant of the most recently executed event,
// or the start time if none has run. The cluster simulator uses it to
// find the true makespan end across partition lanes: RunUntilTick
// advances the clock past the last event, but energy should integrate exactly to the
// moment the last lane went quiet.
func (s *Sim) LastEventAt() time.Time { return Tick(s.lastEvent).Time() }

// alloc takes an event record off the free list, or makes one.
func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// release returns an event record to the free list. The record is
// zeroed first so the pool retains no Action references, and so a
// caller that reads a field after this call gets a nil Action and
// tick 0, not a plausible stale value: copy out first.
func (s *Sim) release(ev *event) {
	*ev = event{}
	s.free = append(s.free, ev)
}

// push places an event in its calendar bucket or the far band.
func (s *Sim) push(ev *event) {
	q := &s.q
	if q.n == 0 && len(q.far) == 0 {
		// Empty queue: re-anchor the near band at this event so a long
		// quiet gap doesn't strand new traffic in the far band.
		q.base = ev.tick
		q.top = ev.tick + nbuckets*q.width
		q.cur = 0
	}
	if ev.tick >= q.top {
		q.farPush(ev)
		return
	}
	idx := int((ev.tick - q.base) / q.width)
	if idx < 0 {
		// Below the band start (the band was re-anchored above a
		// same-instant event, or rebuilt past a clamped insert): bucket 0
		// absorbs it; the in-bucket heap keeps (tick, seq) order even for
		// keys outside the bucket's nominal range.
		idx = 0
	}
	if idx < q.cur {
		// Buckets below cur are empty (cur only advances past drained
		// ones), so rewinding is safe and keeps pop order global-minimum.
		q.cur = idx
	}
	q.buckets[idx].push(ev)
	q.n++
}

func (q *calQueue) farPush(ev *event) {
	if len(q.far) == 0 {
		q.farMin, q.farMax = ev.tick, ev.tick
	} else {
		if ev.tick < q.farMin {
			q.farMin = ev.tick
		}
		if ev.tick > q.farMax {
			q.farMax = ev.tick
		}
	}
	q.far = append(q.far, ev)
}

// rebuild re-anchors the near band over the far band's span and
// re-buckets it. Called only when the near band is empty. Events past
// the new top (possible only under the width floor) stay in the far
// band, with progress guaranteed because the event at farMin always
// lands in a bucket.
func (s *Sim) rebuild() {
	q := &s.q
	w := (q.farMax-q.farMin)/nbuckets + 1
	if w < minWidth {
		w = minWidth
	}
	q.base = q.farMin
	q.width = w
	q.top = q.farMin + nbuckets*w
	q.cur = 0
	far := q.far
	q.far = q.far[:0] // in-place filter: write index never passes read index
	for _, ev := range far {
		if ev.tick >= q.top {
			q.farPush(ev)
		} else {
			idx := int((ev.tick - q.base) / q.width)
			q.buckets[idx].push(ev)
			q.n++
		}
	}
}

// settle positions cur on the bucket holding the global-minimum event,
// rebuilding the near band from the far band when it has drained. It
// reports false when no event remains.
func (s *Sim) settle() bool {
	q := &s.q
	if q.n == 0 {
		if len(q.far) == 0 {
			return false
		}
		s.rebuild()
	}
	for len(q.buckets[q.cur]) == 0 {
		q.cur++
	}
	return true
}

// AtTick schedules act.Fire(arg) at the absolute simulated tick t.
// Scheduling allocates nothing once the event pool is warm. The event
// cannot be cancelled, so a caller whose event may go stale guards in
// Fire (the controller's wake checks its instant, the sampler its
// generation). Scheduling in the past panics: an event before now would
// silently reorder the timeline, which is always a bug in the caller.
func (s *Sim) AtTick(t int64, act Action, arg uint64) {
	if act == nil {
		panic("simclock: nil event action")
	}
	if t < s.nowTick {
		panic(fmt.Sprintf("simclock: scheduling event at tick %d before now %d", t, s.nowTick))
	}
	ev := s.alloc()
	ev.tick = t
	ev.seq = s.seq
	ev.act = act
	ev.arg = arg
	s.seq++
	s.pending++
	s.push(ev)
}

// AfterAction schedules act.Fire(arg) to run d from now. A negative
// duration, or one that ends past the clock's last instant, panics.
func (s *Sim) AfterAction(d time.Duration, act Action, arg uint64) {
	s.AtTick(s.nowTick+int64(d), act, arg)
}

// Pending reports how many events are scheduled and have not fired.
func (s *Sim) Pending() int { return s.pending }

// stepSettled pops and fires the event settle just reported: the
// global minimum at buckets[cur][0]. Callers must have called settle
// (and received true) with no queue mutation in between.
func (s *Sim) stepSettled() {
	q := &s.q
	ev := q.buckets[q.cur].pop()
	q.n--
	// Copy out and release before firing: Fire may schedule new events,
	// which may legitimately reuse this very record.
	tick, act, arg := ev.tick, ev.act, ev.arg
	s.release(ev)
	s.pending--
	s.nowTick = tick
	s.lastEvent = tick
	act.Fire(arg)
}

// Step runs the single earliest pending event, advancing the clock to
// its deadline. It reports whether an event ran. The action it fires
// may leave the clock anywhere before the next pending event (see
// Horizon), so a caller of Step reads the state the event changed, not
// the instant it left.
func (s *Sim) Step() bool {
	if !s.settle() {
		return false
	}
	s.limit = unbounded
	s.stepSettled()
	return true
}

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	s.limit = unbounded
	for s.settle() {
		s.stepSettled()
	}
}

// RunUntilTick executes events with deadlines at or before tick t, then
// advances the clock to exactly t. Events scheduled during execution
// are honored if they also fall at or before t.
func (s *Sim) RunUntilTick(t int64) {
	if t < s.nowTick {
		panic(fmt.Sprintf("simclock: RunUntilTick(%d) is before now %d", t, s.nowTick))
	}
	s.limit = t
	for s.settle() && s.q.buckets[s.q.cur][0].tick <= t {
		s.stepSettled()
	}
	s.nowTick = t
}

// RunBeforeTick executes events with deadlines strictly before tick t,
// leaving the clock at the last event executed, or where that event's
// action skipped it (or unchanged if none ran). It is the windowed
// variant the parallel partition lanes use: a lane drains its band up
// to a barrier instant without claiming to have reached it, so an event
// at exactly the barrier still runs — in the next window, identically
// at any lane count. A t at or before now is a no-op.
func (s *Sim) RunBeforeTick(t int64) {
	s.limit = t - 1
	for s.settle() && s.q.buckets[s.q.cur][0].tick < t {
		s.stepSettled()
	}
}

// Horizon returns the latest tick the action firing now may move the
// clock to with SkipToTick: below the next pending event, and within
// the bound of the call that fired it — up to t under RunUntilTick(t),
// below t under RunBeforeTick(t), and under Step and Run just below the
// next pending event, or nowhere when no other event is pending. An
// event at the horizon's next tick was armed before anything the
// skipping action arms, so it still fires first. Outside an action's
// Fire the result means nothing.
func (s *Sim) Horizon() int64 {
	h := s.limit
	if s.settle() {
		h = min(h, s.q.buckets[s.q.cur][0].tick-1)
	} else if h == unbounded {
		return s.nowTick
	}
	return h
}

// SkipToTick moves the clock forward to tick t, firing nothing;
// LastEventAt still reports the last event. t must not lie past
// Horizon; one before now panics.
func (s *Sim) SkipToTick(t int64) {
	if t < s.nowTick {
		panic(fmt.Sprintf("simclock: skipping to tick %d before now %d", t, s.nowTick))
	}
	s.nowTick = t
}

// RunFor advances the simulation by d. See RunUntilTick.
func (s *Sim) RunFor(d time.Duration) { s.RunUntilTick(s.nowTick + int64(d)) }
