package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every representative value must land in a bucket whose range
	// contains it, and bucket upper bounds must be monotonic.
	values := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 12345,
		1e6, 1e9, 123456789012, math.MaxInt64}
	for _, v := range values {
		idx := bucketIndex(v)
		if idx < 0 || idx >= bhBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		upper := bucketUpperNS(idx)
		if v > upper {
			t.Errorf("value %d above its bucket's upper bound %d", v, upper)
		}
		if idx > 0 && v <= bucketUpperNS(idx-1) {
			t.Errorf("value %d at or below the previous bucket's bound %d", v, bucketUpperNS(idx-1))
		}
	}
	prev := int64(-1)
	for i := 0; i < bhBuckets; i++ {
		u := bucketUpperNS(i)
		if u <= prev {
			t.Fatalf("bucket bounds not monotonic at %d: %d <= %d", i, u, prev)
		}
		prev = u
	}
}

func TestBucketedHistogramRelativeError(t *testing.T) {
	h := NewBucketedHistogram()
	for i := 1; i <= 100000; i++ {
		h.ObserveDuration(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := q * 100000e3 // nanoseconds
		got := h.Quantiles(q)[0] * 1e9
		if rel := math.Abs(got-exact) / exact; rel > 1.0/bhSubBuckets+0.001 {
			t.Errorf("q=%g: got %g ns, exact %g ns, relative error %.4f", q, got, exact, rel)
		}
	}
}

func TestBucketedHistogramSingleValueExact(t *testing.T) {
	h := NewBucketedHistogram()
	h.ObserveDuration(7 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if got := h.Quantiles(q)[0]; got != 0.007 {
			t.Errorf("q=%g = %g, want exactly 0.007 (clamped into [min,max])", q, got)
		}
	}
	st := h.stat()
	if st.Count != 1 || st.Min != 0.007 || st.Max != 0.007 {
		t.Errorf("stat = %+v", st)
	}
	if len(st.Buckets) != 1 || st.Buckets[0].Count != 1 {
		t.Errorf("buckets = %+v", st.Buckets)
	}
}

func TestBucketedHistogramEmptyAndNil(t *testing.T) {
	var nilH *BucketedHistogram
	nilH.Observe(1)         // must not panic
	nilH.ObserveDuration(1) // must not panic
	if !math.IsNaN(nilH.Quantiles(0.5)[0]) {
		t.Fatal("nil quantile not NaN")
	}
	h := NewBucketedHistogram()
	if !math.IsNaN(h.Quantiles(0.5)[0]) {
		t.Fatal("empty quantile not NaN")
	}
	st := h.stat()
	if st.Count != 0 || len(st.Buckets) != 0 {
		t.Errorf("empty stat = %+v", st)
	}
}

func TestBucketedHistogramExtremes(t *testing.T) {
	h := NewBucketedHistogram()
	h.Observe(-5)                       // clamps to zero
	h.Observe(math.NaN())               // dropped
	h.Observe(2 * maxObservableSeconds) // saturates
	if got := h.stat().Count; got != 2 {
		t.Fatalf("count = %d, want 2 (NaN dropped)", got)
	}
	if min := h.Quantiles(0)[0]; min != 0 {
		t.Errorf("min = %g, want 0", min)
	}
}

func TestBucketedHistogramConcurrent(t *testing.T) {
	h := NewBucketedHistogram()
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveDuration(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := h.stat().Count; got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
	if got := h.Quantiles(0.99)[0]; math.Abs(got-0.001) > 1e-9 {
		t.Errorf("p99 = %g, want 0.001", got)
	}
}

func TestGaugeAtomic(t *testing.T) {
	g := &Gauge{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8000 {
		t.Fatalf("Value = %g, want 8000", got)
	}
	g.Set(-2.5)
	if got := g.Value(); got != -2.5 {
		t.Fatalf("Value = %g, want -2.5", got)
	}
}

// The plain forms stay plain: a counter is one atomic word, and a
// histogram is its bucket array plus four lifetime words, with no
// per-writer copies.
func TestMetricSizes(t *testing.T) {
	if size := unsafe.Sizeof(Counter{}); size != 8 {
		t.Errorf("Counter is %d bytes, want 8", size)
	}
	if size, limit := unsafe.Sizeof(BucketedHistogram{}), uintptr(bhBuckets*8+64); size > limit {
		t.Errorf("BucketedHistogram is %d bytes, over %d", size, limit)
	}
}

// The emit path must never allocate: these are the acceptance-criteria
// checks, enforced both here (AllocsPerRun, runs in plain `go test`)
// and by the alloc-check make target (-benchmem on the benchmarks
// below).
func TestEmitPathsDoNotAllocate(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	c := &Counter{}
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f/op", n)
	}
	g := &Gauge{}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op", n)
	}
	h := NewBucketedHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.ObserveDuration(time.Millisecond) }); n != 0 {
		t.Errorf("BucketedHistogram.ObserveDuration allocates %.1f/op", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := &Counter{}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if c.Value() == 0 {
		b.Fatal("no increments recorded")
	}
}

func BenchmarkBucketedHistogramObserve(b *testing.B) {
	h := NewBucketedHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.ObserveDuration(time.Millisecond)
		}
	})
	if h.stat().Count == 0 {
		b.Fatal("no observations recorded")
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := &Gauge{}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g.Set(1)
		}
	})
}

// BenchmarkBucketedHistogramQuantile covers the read side: an
// O(bhBuckets) scan, no sort, regardless of observation count.
func BenchmarkBucketedHistogramQuantile(b *testing.B) {
	h := NewBucketedHistogram()
	for i := 0; i < 100000; i++ {
		h.ObserveDuration(time.Duration(i) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantiles(0.5, 0.99, 0.999)
	}
}
