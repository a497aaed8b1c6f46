// Package simclock provides a deterministic discrete-event simulated
// clock. Every substrate in ecosched (hardware, IPMI sampling, the
// Slurm controller, Chronus benchmarking) advances on the same
// simulated timeline, so a "20-minute" HPCG run completes in
// microseconds of wall time and every experiment is reproducible.
//
// The zero value is not usable; create a simulator with New. Events are
// callbacks scheduled at absolute or relative simulated times and are
// executed in time order. Events scheduled for the same instant run in
// scheduling order (FIFO), which keeps the simulation deterministic.
//
// # Event queue
//
// The pending-event set is a two-tier calendar queue (a ladder queue
// with one rung): a near-horizon band of fixed-width time buckets —
// schedule and pop are O(1) amortized while traffic stays inside the
// band — and an unsorted far band for events beyond it. When the near
// band drains, the far band is re-bucketed with a width re-derived
// from its actual span, so the structure adapts to whatever event
// horizon the workload produces. Keys are int64 nanosecond ticks, not
// time.Time values: tick comparison is one integer compare instead of
// wall/monotonic unpacking, which dominated the old heap's cost.
//
// Event records are pooled on a free list and recycled after they
// fire, so a steady-state simulation allocates nothing per event. The
// pool has one invariant, enforced by the ecolint eventpool analyzer:
// once an event is released back to the free list it must not be
// touched again — its fields are copied out before release, and the
// callback runs from the copies, so callbacks are free to schedule
// (and thereby reuse) events.
package simclock

import (
	"fmt"
	"time"
)

// Epoch is the default simulated start time. It is an arbitrary fixed
// instant so that runs are reproducible and timestamps in saved
// benchmarks are stable across test runs.
var Epoch = time.Date(2023, time.May, 10, 3, 0, 0, 0, time.UTC)

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

// Action is the allocation-free event callback: a pre-allocated
// handler object invoked with a caller-chosen argument. Hot schedulers
// (the Slurm controller's job-completion and scheduling-flush events)
// implement Action once on a long-lived struct and pass job ids as
// arg, where a closure per event would allocate and capture.
type Action interface {
	Fire(arg uint64)
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID uint64

// event is one pending queue entry. Events are pooled: the struct is
// recycled after it fires or its cancellation is collected, so no
// caller may retain a reference past Step.
type event struct {
	at   time.Time // the caller's instant, preserved exactly
	tick int64     // at.UnixNano(), the comparison key
	seq  uint64    // tie-breaker for same-instant events
	id   EventID   // 0 for fast-path (uncancellable) events
	fn   func()    // exactly one of fn/act is set
	act  Action
	arg  uint64
	dead bool // cancelled; collected lazily on pop
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
	// a sampling ticker walks the band one event per bucket, so a
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
// lane — or inside leaf computations such as the HPCG solver, never in
// one event loop.
type Sim struct {
	now       time.Time
	nowTick   int64     // now.UnixNano(), maintained alongside now
	lastEvent time.Time // instant of the last executed event
	seq       uint64    // tie-breaker for same-instant events
	nextID    EventID
	pending   int
	q         calQueue
	live      map[EventID]*event // cancellable events by id
	free      []*event           // event pool
}

// New returns a simulator whose clock starts at Epoch.
func New() *Sim { return NewAt(Epoch) }

// NewAt returns a simulator whose clock starts at the given instant.
func NewAt(start time.Time) *Sim {
	s := &Sim{now: start, nowTick: start.UnixNano(), lastEvent: start, nextID: 1, live: make(map[EventID]*event)}
	s.q.width = defaultWidth
	s.q.base = start.UnixNano()
	s.q.top = s.q.base + nbuckets*s.q.width
	for i := range s.q.buckets {
		s.q.buckets[i] = s.q.slots[i][:0]
	}
	return s
}

// Now returns the current simulated time.
func (s *Sim) Now() time.Time { return s.now }

// NowTick returns the current simulated time as nanoseconds since the
// Unix epoch — Now().UnixNano() without the wall-clock decode. Hot
// integrators (the hardware power model) difference ticks instead of
// time.Time values.
func (s *Sim) NowTick() int64 { return s.nowTick }

// LastEventAt returns the instant of the most recently executed event,
// or the start time if none has run. The cluster simulator uses it to
// find the true makespan end across partition lanes: RunUntil advances
// Now past the last event, but energy should integrate exactly to the
// moment the last lane went quiet.
func (s *Sim) LastEventAt() time.Time { return s.lastEvent }

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
// zeroed first so the pool retains no callback or Action references.
// Callers must copy out any field they still need before calling this
// (the eventpool lint rule rejects uses after the release call).
func (s *Sim) release(ev *event) {
	*ev = event{}
	s.free = append(s.free, ev)
}

// schedule allocates, keys and enqueues an event at t, panicking on
// past instants — scheduling before Now would silently reorder the
// timeline, which is always a bug in the caller.
func (s *Sim) schedule(t time.Time) *event {
	if t.Before(s.now) {
		panic(fmt.Sprintf("simclock: scheduling event at %v before now %v", t, s.now))
	}
	ev := s.alloc()
	ev.at = t
	ev.tick = t.UnixNano()
	ev.seq = s.seq
	s.seq++
	s.pending++
	s.push(ev)
	return ev
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
// re-buckets it. Called only when the near band is empty. Dead events
// are collected here; live ones past the new top (possible only under
// the width floor) stay in the far band, with progress guaranteed
// because the event at farMin always lands in a bucket.
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
		switch {
		case ev.dead:
			s.release(ev)
		case ev.tick >= q.top:
			q.farPush(ev)
		default:
			idx := int((ev.tick - q.base) / q.width)
			q.buckets[idx].push(ev)
			q.n++
		}
	}
}

// settle positions cur on the bucket holding the live global-minimum
// event, rebuilding from the far band and collecting dead events as
// needed. It reports false when no live event remains.
func (s *Sim) settle() bool {
	q := &s.q
	for {
		if q.n == 0 {
			if len(q.far) == 0 {
				return false
			}
			s.rebuild()
			continue
		}
		for len(q.buckets[q.cur]) == 0 {
			q.cur++
		}
		b := &q.buckets[q.cur]
		if top := (*b)[0]; top.dead {
			s.release(b.pop())
			q.n--
			continue
		}
		return true
	}
}

// At schedules fn to run at the absolute simulated time t. Scheduling
// in the past (before Now) panics.
func (s *Sim) At(t time.Time, fn func()) EventID {
	if fn == nil {
		panic("simclock: nil event func")
	}
	ev := s.schedule(t)
	ev.fn = fn
	ev.id = s.nextID
	s.nextID++
	s.live[ev.id] = ev
	return ev.id
}

// After schedules fn to run d from now. Negative durations panic.
func (s *Sim) After(d time.Duration, fn func()) EventID {
	return s.At(s.now.Add(d), fn)
}

// AtAction schedules act.Fire(arg) at the absolute simulated time t.
// This is the allocation-free fast path: no closure, no cancellation
// id — the event cannot be cancelled, so callers guard staleness in
// Fire (the controller checks the job's state). Scheduling in the past
// panics, as with At.
func (s *Sim) AtAction(t time.Time, act Action, arg uint64) {
	if act == nil {
		panic("simclock: nil event action")
	}
	ev := s.schedule(t)
	ev.act = act
	ev.arg = arg
}

// AfterAction schedules act.Fire(arg) to run d from now — After's
// allocation-free counterpart. Negative durations panic.
func (s *Sim) AfterAction(d time.Duration, act Action, arg uint64) {
	s.AtAction(s.now.Add(d), act, arg)
}

// Cancel removes a pending event. It reports whether the event was
// still pending (false if it already ran, was cancelled, or never
// existed). The queue entry is collected lazily when it surfaces.
func (s *Sim) Cancel(id EventID) bool {
	ev, ok := s.live[id]
	if !ok {
		return false
	}
	delete(s.live, id)
	ev.dead = true
	ev.fn = nil // drop the callback now; the record pops later
	s.pending--
	return true
}

// Pending reports how many events are scheduled and not cancelled.
func (s *Sim) Pending() int { return s.pending }

// stepSettled pops and fires the event settle just reported: the live
// global minimum at buckets[cur][0]. Callers must have called settle
// (and received true) with no queue mutation in between.
func (s *Sim) stepSettled() {
	q := &s.q
	ev := q.buckets[q.cur].pop()
	q.n--
	if ev.id != 0 {
		delete(s.live, ev.id)
	}
	// Copy out and release before firing: the callback may schedule new
	// events, which may legitimately reuse this very record.
	at, tick, fn, act, arg := ev.at, ev.tick, ev.fn, ev.act, ev.arg
	s.release(ev)
	s.pending--
	s.now = at
	s.nowTick = tick
	s.lastEvent = at
	if fn != nil {
		fn()
	} else {
		act.Fire(arg)
	}
}

// Step runs the single earliest pending event, advancing the clock to
// its deadline. It reports whether an event ran.
func (s *Sim) Step() bool {
	if !s.settle() {
		return false
	}
	s.stepSettled()
	return true
}

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	for s.settle() {
		s.stepSettled()
	}
}

// RunUntil executes events with deadlines at or before t, then advances
// the clock to exactly t. Events scheduled during execution are honored
// if they also fall at or before t.
func (s *Sim) RunUntil(t time.Time) {
	if t.Before(s.now) {
		panic(fmt.Sprintf("simclock: RunUntil(%v) is before now %v", t, s.now))
	}
	tick := t.UnixNano()
	for s.settle() && s.q.buckets[s.q.cur][0].tick <= tick {
		s.stepSettled()
	}
	s.now = t
	s.nowTick = tick
}

// RunBefore executes events with deadlines strictly before t, leaving
// the clock at the last event executed (or unchanged if none ran). It
// is the windowed variant the parallel partition lanes use: a lane
// drains its band up to a barrier instant without claiming to have
// reached it, so an event at exactly the barrier still runs — in the
// next window, identically at any lane count. A t at or before Now is
// a no-op.
func (s *Sim) RunBefore(t time.Time) {
	tick := t.UnixNano()
	for s.settle() && s.q.buckets[s.q.cur][0].tick < tick {
		s.stepSettled()
	}
}

// RunFor advances the simulation by d. See RunUntil.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Ticker invokes fn every interval until Stop is called. It mirrors the
// sampling loops the paper runs ("sampling the energy usage ... at a
// 2-second interval").
type Ticker struct {
	sim      *Sim
	interval time.Duration
	fn       func(now time.Time)
	fire     func() // t.tick, bound once so a tick schedules without allocating a closure
	next     EventID
	stopped  bool
}

// Tick starts a repeating event. The first invocation happens one full
// interval from now. The interval must be positive.
func (s *Sim) Tick(interval time.Duration, fn func(now time.Time)) *Ticker {
	if interval <= 0 {
		panic("simclock: non-positive tick interval")
	}
	t := &Ticker{sim: s, interval: interval, fn: fn}
	t.fire = t.tick
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.next = t.sim.After(t.interval, t.fire)
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn(t.sim.Now())
	if !t.stopped {
		t.schedule()
	}
}

// Stop halts the ticker. It is idempotent.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.sim.Cancel(t.next)
}
