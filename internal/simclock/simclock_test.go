package simclock

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// funcs is a test-local closure table: an Action whose Fire(i) runs
// closure i, so a test can schedule arbitrary behaviour through the one
// kind of event the clock has.
type funcs []func()

func (f *funcs) Fire(i uint64) { (*f)[i]() }

// at schedules fn at t.
func (f *funcs) at(s *Sim, t time.Time, fn func()) {
	*f = append(*f, fn)
	s.AtTick(t.UnixNano(), f, uint64(len(*f)-1))
}

// after schedules fn d from now.
func (f *funcs) after(s *Sim, d time.Duration, fn func()) { f.at(s, s.Now().Add(d), fn) }

func TestNowStartsAtEpoch(t *testing.T) {
	s := New()
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), Epoch)
	}
}

// A clock starts after the Unix epoch, so no instant it reaches is the
// zero Tick, which reads back as the zero time.Time.
func TestStartAfterUnixEpoch(t *testing.T) {
	for _, start := range []time.Time{time.Unix(0, 0), time.Date(1969, 12, 31, 0, 0, 0, 0, time.UTC)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAt(%v) did not panic", start)
				}
			}()
			NewAt(start)
		}()
	}
	if !Tick(0).Time().IsZero() || !Tick(1).Time().Equal(time.Unix(0, 1)) || NewAt(time.Unix(0, 1)).Now() != Tick(1).Time() {
		t.Fatal("Tick.Time: zero is not the zero time, or an instant is not its UTC time")
	}
}

// An event record is its tick key, the FIFO sequence number and the
// Action with its argument: 40 bytes, the 48-byte size class. The
// instant as a time.Time would add 24 and take it to 64.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("event is %d bytes, want 40", got)
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var fns funcs
	var ran bool
	fns.after(s, 5*time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if got := s.Now().Sub(Epoch); got != 5*time.Second {
		t.Fatalf("clock advanced %v, want 5s", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var fns funcs
	var order []int
	fns.after(s, 3*time.Second, func() { order = append(order, 3) })
	fns.after(s, 1*time.Second, func() { order = append(order, 1) })
	fns.after(s, 2*time.Second, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var fns funcs
	var order []int
	at := s.Now().Add(time.Second)
	for i := 0; i < 10; i++ {
		fns.at(s, at, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.AtTick(Epoch.Add(-time.Second).UnixNano(), &benchAction{}, 0)
}

func TestNilActionPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event action did not panic")
		}
	}()
	s.AfterAction(time.Second, nil, 0)
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := New()
	var fns funcs
	var ran []time.Duration
	for _, d := range []time.Duration{time.Second, 3 * time.Second, 10 * time.Second} {
		fns.after(s, d, func() { ran = append(ran, d) })
	}
	s.RunUntilTick(Epoch.Add(3 * time.Second).UnixNano())
	if len(ran) != 2 {
		t.Fatalf("ran %d events, want 2 (1s and 3s)", len(ran))
	}
	if !s.Now().Equal(Epoch.Add(3 * time.Second)) {
		t.Fatalf("Now() = %v after RunUntilTick", s.Now())
	}
	s.Run()
	if len(ran) != 3 {
		t.Fatalf("remaining event lost: ran=%v", ran)
	}
}

func TestRunUntilHonoursEventsScheduledDuringRun(t *testing.T) {
	s := New()
	var fns funcs
	var count int
	fns.after(s, time.Second, func() {
		count++
		fns.after(s, time.Second, func() { count++ })
	})
	s.RunFor(2 * time.Second)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestRunUntilPastPanics(t *testing.T) {
	s := New()
	s.RunFor(time.Minute)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntilTick into the past did not panic")
		}
	}()
	s.RunUntilTick(Epoch.UnixNano())
}

func TestPending(t *testing.T) {
	s := New()
	act := &benchAction{}
	s.AfterAction(time.Second, act, 0)
	s.AfterAction(2*time.Second, act, 1)
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	s.Step()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after one step = %d, want 1", got)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	r := NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("Norm mean = %v, want ≈0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Fatalf("Norm variance = %v, want ≈1", variance)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: regardless of the (duration, order) schedule, observed
	// execution times never decrease.
	if err := quick.Check(func(ds []uint8) bool {
		s := New()
		var fns funcs
		last := s.Now()
		ok := true
		for _, d := range ds {
			fns.after(s, time.Duration(d)*time.Millisecond, func() {
				if s.Now().Before(last) {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHorizon pins how far an action may skip the clock under each run
// call: below the next pending event, within the call's bound, and
// nowhere under Step and Run when nothing else is pending.
func TestHorizon(t *testing.T) {
	at := func(d time.Duration) int64 { return Epoch.Add(d).UnixNano() }
	for _, tc := range []struct {
		name  string
		other time.Duration // a second pending event, 0 for none
		run   func(*Sim)
		want  int64
	}{
		{"step", 10 * time.Second, func(s *Sim) { s.Step() }, at(10*time.Second) - 1},
		{"step-alone", 0, func(s *Sim) { s.Step() }, at(time.Second)},
		{"run", 10 * time.Second, func(s *Sim) { s.Run() }, at(10*time.Second) - 1},
		{"run-alone", 0, func(s *Sim) { s.Run() }, at(time.Second)},
		{"until-bound", 10 * time.Second, func(s *Sim) { s.RunUntilTick(at(5 * time.Second)) }, at(5 * time.Second)},
		{"until-event", 10 * time.Second, func(s *Sim) { s.RunUntilTick(at(time.Minute)) }, at(10*time.Second) - 1},
		{"until-alone", 0, func(s *Sim) { s.RunUntilTick(at(time.Minute)) }, at(time.Minute)},
		{"before-bound", 10 * time.Second, func(s *Sim) { s.RunBeforeTick(at(5 * time.Second)) }, at(5*time.Second) - 1},
		{"before-event", 10 * time.Second, func(s *Sim) { s.RunBeforeTick(at(time.Minute)) }, at(10*time.Second) - 1},
		{"before-alone", 0, func(s *Sim) { s.RunBeforeTick(at(time.Minute)) }, at(time.Minute) - 1},
	} {
		s := New()
		var fns funcs
		got := int64(-1)
		fns.after(s, time.Second, func() { got = s.Horizon() })
		if tc.other != 0 {
			fns.after(s, tc.other, func() {})
		}
		tc.run(s)
		if got != tc.want {
			t.Errorf("%s: Horizon = Epoch+%v, want Epoch+%v", tc.name, time.Duration(got-Epoch.UnixNano()), time.Duration(tc.want-Epoch.UnixNano()))
		}
	}
}

// An action that skips to its horizon leaves the clock there; the next
// event still fires at its own instant, and LastEventAt counts events
// only.
func TestSkipTo(t *testing.T) {
	s := New()
	var fns funcs
	var firedAt time.Time
	fns.after(s, time.Second, func() {
		s.SkipToTick(s.Horizon())
	})
	fns.after(s, 10*time.Second, func() { firedAt = s.Now() })
	s.Step()
	if got := s.Now().Sub(Epoch); got != 10*time.Second-1 {
		t.Fatalf("after the skipping step now = Epoch+%v, want Epoch+10s−1ns", got)
	}
	if got := s.LastEventAt().Sub(Epoch); got != time.Second {
		t.Fatalf("LastEventAt = Epoch+%v after a skip, want the event's Epoch+1s", got)
	}
	s.Step()
	if got := firedAt.Sub(Epoch); got != 10*time.Second {
		t.Fatalf("the next event fired at Epoch+%v, want Epoch+10s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("skipping into the past did not panic")
		}
	}()
	s.SkipToTick(Epoch.UnixNano())
}

// TestResetMatchesFreshSim: a Sim reset with events pending in the near
// band, in an outgrown bucket and in the far band fires none of them,
// and then runs any schedule exactly as a fresh Sim and the reference
// queue do.
func TestResetMatchesFreshSim(t *testing.T) {
	start := Epoch.Add(time.Hour)
	corpus := [][]byte{
		{0, 0, 0, 0, 6, 2, 3, 0},
		{0, 10, 0, 10, 0, 10, 2, 1, 3, 0, 3, 0, 3, 0},
		{0, 8, 0, 9, 4, 7, 0, 5, 5, 6, 2, 0, 3, 0},
		{0, 7, 0, 7, 0, 6, 0, 0, 0, 7, 2, 1, 3, 0, 4, 7, 0, 0, 5, 5},
	}
	for i, data := range corpus {
		s := New()
		var fns funcs
		stale := 0
		for _, d := range []time.Duration{time.Second, time.Second, 2 * time.Second, 8 * time.Minute, 7 * time.Hour, 40 * 24 * time.Hour} {
			fns.after(s, d, func() { stale++ })
		}
		s.Step()
		stale = 0
		s.Reset(start)
		fresh := NewAt(start)
		if s.Now() != fresh.Now() || s.NowTick() != fresh.NowTick() || s.LastEventAt() != fresh.LastEventAt() || s.Pending() != 0 {
			t.Fatalf("input %d: reset Sim at %v (tick %d, last event %v) with %d pending, fresh at %v",
				i, s.Now(), s.NowTick(), s.LastEventAt(), s.Pending(), fresh.Now())
		}
		if s.q.n != 0 || len(s.q.far) != 0 || s.q.base != fresh.q.base || s.q.width != fresh.q.width || s.q.top != fresh.q.top || s.q.cur != 0 || s.seq != 0 {
			t.Fatalf("input %d: reset queue %+v differs from a fresh one", i, s.q)
		}
		got := interpret(data, &simUnderTest{s: s, start: start})
		want := interpret(data, &simUnderTest{s: fresh, start: start})
		ref := interpret(data, &refUnderTest{r: &refSim{}})
		if stale != 0 {
			t.Fatalf("input %d: %d events pending at Reset fired after it", i, stale)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("input %d: trace diverged:\nreset:     %v\nfresh:     %v\nreference: %v", i, got, want, ref)
		}
	}
}
