package simclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNowStartsAtEpoch(t *testing.T) {
	s := New()
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), Epoch)
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var ran bool
	s.After(5*time.Second, func() { ran = true })
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
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
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
	var order []int
	at := s.Now().Add(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func() { order = append(order, i) })
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
	s.At(Epoch.Add(-time.Second), func() {})
}

func TestNilFuncPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event func did not panic")
		}
	}()
	s.After(time.Second, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	var ran bool
	id := s.After(time.Second, func() { ran = true })
	if !s.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(id) {
		t.Fatal("Cancel returned true for already-cancelled event")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelUnknownID(t *testing.T) {
	s := New()
	if s.Cancel(12345) {
		t.Fatal("Cancel of unknown id returned true")
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := New()
	var ran []time.Duration
	for _, d := range []time.Duration{time.Second, 3 * time.Second, 10 * time.Second} {
		d := d
		s.After(d, func() { ran = append(ran, d) })
	}
	s.RunUntil(Epoch.Add(3 * time.Second))
	if len(ran) != 2 {
		t.Fatalf("ran %d events, want 2 (1s and 3s)", len(ran))
	}
	if !s.Now().Equal(Epoch.Add(3 * time.Second)) {
		t.Fatalf("Now() = %v after RunUntil", s.Now())
	}
	s.Run()
	if len(ran) != 3 {
		t.Fatalf("remaining event lost: ran=%v", ran)
	}
}

func TestRunUntilHonoursEventsScheduledDuringRun(t *testing.T) {
	s := New()
	var count int
	s.After(time.Second, func() {
		count++
		s.After(time.Second, func() { count++ })
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
			t.Fatal("RunUntil into the past did not panic")
		}
	}()
	s.RunUntil(Epoch)
}

func TestPending(t *testing.T) {
	s := New()
	a := s.After(time.Second, func() {})
	s.After(2*time.Second, func() {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	s.Cancel(a)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
}

func TestTickerFiresAtInterval(t *testing.T) {
	s := New()
	var stamps []time.Duration
	tk := s.Tick(2*time.Second, func(now time.Time) {
		stamps = append(stamps, now.Sub(Epoch))
	})
	s.RunFor(7 * time.Second)
	tk.Stop()
	s.Run()
	want := []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second}
	if len(stamps) != len(want) {
		t.Fatalf("ticks = %v, want %v", stamps, want)
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", stamps, want)
		}
	}
}

func TestTickerStopIsIdempotent(t *testing.T) {
	s := New()
	tk := s.Tick(time.Second, func(time.Time) {})
	tk.Stop()
	tk.Stop()
	if s.Step() {
		// The pending cancelled event may still pop as dead; Step must
		// report false because nothing runs.
		t.Fatal("Step ran an event after ticker stop")
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	s := New()
	var n int
	var tk *Ticker
	tk = s.Tick(time.Second, func(time.Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

// A running ticker is exactly one pending, cancellable event, and a
// tick re-arms it from the pooled event and the callback bound in
// Tick, with no allocation: the IPMI sampler ticks ~200,000 times in
// one benchmark sweep.
func TestTickerPendingAndSteadyStateAllocs(t *testing.T) {
	s := New()
	var fired int
	tk := s.Tick(2*time.Second, func(time.Time) { fired++ })
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending with one ticker = %d, want 1", got)
	}
	s.RunFor(10 * time.Second) // warm the event pool
	allocs := testing.AllocsPerRun(100, func() { s.RunFor(2 * time.Second) })
	if allocs != 0 {
		t.Fatalf("a tick allocates %.0f times, want 0", allocs)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after %d ticks = %d, want 1", fired, got)
	}
	tk.Stop()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", got)
	}
	before := fired
	s.Run()
	if fired != before {
		t.Fatalf("ticker fired %d more times after Stop", fired-before)
	}
}

func TestNonPositiveTickPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Tick(0) did not panic")
		}
	}()
	s.Tick(0, func(time.Time) {})
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

func TestJitterPositive(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if f := r.Jitter(2.0); f <= 0 {
			t.Fatalf("Jitter returned non-positive %v", f)
		}
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: regardless of the (duration, order) schedule, observed
	// execution times never decrease.
	if err := quick.Check(func(ds []uint8) bool {
		s := New()
		last := s.Now()
		ok := true
		for _, d := range ds {
			s.After(time.Duration(d)*time.Millisecond, func() {
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
