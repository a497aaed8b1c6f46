package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("jobs.submitted")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("jobs.submitted") != c {
		t.Fatal("same name returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("cache.entries")
	g.Set(3)
	g.Add(2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %g, want 5", got)
	}
}

func TestHistogramStats(t *testing.T) {
	r := New()
	h := r.BucketedHistogram("predict.latency")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.stat().Count != 100 {
		t.Fatalf("count = %d", h.stat().Count)
	}
	// Quantiles report the holding bucket's upper bound: within one
	// sub-bucket (1/32) above the exact nearest-rank value.
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}} {
		if got := h.Quantiles(c.q)[0]; got < c.want || got > c.want*(1+1.0/32) {
			t.Fatalf("q%g = %g, want %g within one sub-bucket", c.q, got, c.want)
		}
	}
	if q := h.Quantiles(1)[0]; q != 100 {
		t.Fatalf("p100 = %g, want 100", q)
	}
	st := r.Snapshot().Histograms["predict.latency"]
	if st.Min != 1 || st.Max != 100 || st.Mean != 50.5 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestEmptyHistogramQuantileIsNaN(t *testing.T) {
	if !math.IsNaN(NewBucketedHistogram().Quantiles(0.5)[0]) {
		t.Fatal("empty histogram quantile not NaN")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.BucketedHistogram("z").Observe(1)
	r.BucketedHistogram("z").ObserveDuration(time.Second)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Fatal("nil registry retained state")
	}
	if !math.IsNaN(r.BucketedHistogram("z").Quantiles(0.5)[0]) {
		t.Fatal("nil histogram quantile not NaN")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.BucketedHistogram("h").Observe(float64(i))
				r.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.BucketedHistogram("h").stat().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotMergeAddsCounters(t *testing.T) {
	a := New()
	a.Counter("predict.hit").Add(3)
	a.BucketedHistogram("lat").Observe(1)
	a.BucketedHistogram("lat").Observe(3)
	b := New()
	b.Counter("predict.hit").Add(2)
	b.Counter("predict.miss").Inc()
	b.Gauge("models").Set(7)
	b.BucketedHistogram("lat").Observe(5)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["predict.hit"] != 5 || s.Counters["predict.miss"] != 1 {
		t.Fatalf("merged counters = %+v", s.Counters)
	}
	if s.Gauges["models"] != 7 {
		t.Fatalf("merged gauges = %+v", s.Gauges)
	}
	h := s.Histograms["lat"]
	if h.Count != 3 || h.Sum != 9 || h.Min != 1 || h.Max != 5 || h.Mean != 3 {
		t.Fatalf("merged histogram = %+v", h)
	}
}

// A metrics.json written before histograms were bucketed carries
// summaries without "buckets". It is outside input: it must still
// merge (lifetimes combine, the newer percentiles win) and print.
func TestSnapshotMergeUnbucketedFile(t *testing.T) {
	const oldFile = `{"histograms":{"lat":{"count":2,"sum":4,"min":1,"max":3,"mean":2,"p50":1,"p90":3,"p99":3,"p999":3}}}`
	var acc, again Snapshot
	if err := json.Unmarshal([]byte(oldFile), &acc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(oldFile), &again); err != nil {
		t.Fatal(err)
	}
	acc.Merge(again)
	if h := acc.Histograms["lat"]; h.Count != 4 || h.Sum != 8 || h.Mean != 2 || h.P50 != 1 || len(h.Buckets) != 0 {
		t.Fatalf("two unbucketed summaries merged to %+v", h)
	}

	r := New()
	r.BucketedHistogram("lat").Observe(5)
	acc.Merge(r.Snapshot())
	h := acc.Histograms["lat"]
	if h.Count != 5 || h.Sum != 13 || h.Min != 1 || h.Max != 5 || len(h.Buckets) != 1 {
		t.Fatalf("unbucketed + bucketed merged to %+v", h)
	}
	var buf bytes.Buffer
	acc.WriteText(&buf)
	if !strings.Contains(buf.String(), "count=5") {
		t.Fatalf("merged snapshot did not print:\n%s", buf.String())
	}
}

// Merging an unbucketed summary into a bucketed histogram must rank
// percentiles over the bucketed observations alone: the summary's
// count has no place in the CDF. Either merge order gives the same.
func TestSnapshotMergeUnbucketedPercentiles(t *testing.T) {
	const oldFile = `{"histograms":{"lat":{"count":1000,"sum":1,"min":0.001,"max":0.001,"mean":0.001,"p50":0.001,"p90":0.001,"p99":0.001,"p999":0.001}}}`
	fresh := func() Snapshot {
		r := New()
		h := r.BucketedHistogram("lat")
		for i := 0; i < 100; i++ {
			h.ObserveDuration(time.Millisecond)
		}
		h.ObserveDuration(time.Second)
		return r.Snapshot()
	}
	old := func() Snapshot {
		var s Snapshot
		if err := json.Unmarshal([]byte(oldFile), &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	oldFirst, newFirst := old(), fresh()
	oldFirst.Merge(fresh())
	newFirst.Merge(old())
	for order, s := range map[string]Snapshot{"old+new": oldFirst, "new+old": newFirst} {
		h := s.Histograms["lat"]
		if h.Count != 1101 || h.Min != 0.001 || h.Max != 1 {
			t.Fatalf("%s: merged lifetime %+v", order, h)
		}
		if h.P50 < 0.001 || h.P50 > 0.001*(1+1.0/32) || h.P99 > 0.001*(1+1.0/32) {
			t.Errorf("%s: p50 = %g, p99 = %g, want ≈ 1 ms", order, h.P50, h.P99)
		}
		if h.P999 != 1 {
			t.Errorf("%s: p999 = %g, want the 1 s observation", order, h.P999)
		}
	}
}

// Two bucketed snapshots merge to exactly the snapshot of one
// histogram that saw both sets of observations.
func TestSnapshotMergeBucketedExact(t *testing.T) {
	a, b, both := New(), New(), New()
	for i := 1; i <= 300; i++ {
		d := time.Duration(i*i%97+1) * time.Second
		if i%3 == 0 {
			a.BucketedHistogram("lat").ObserveDuration(d)
		} else {
			b.BucketedHistogram("lat").ObserveDuration(d)
		}
		both.BucketedHistogram("lat").ObserveDuration(d)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	got, err := json.Marshal(merged.Histograms["lat"])
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(both.Snapshot().Histograms["lat"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a").Inc()
	r.Gauge("b").Set(2.5)
	r.BucketedHistogram("c").Observe(0.001)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 1 || back.Gauges["b"] != 2.5 || back.Histograms["c"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestWriteTextStableAndReadable(t *testing.T) {
	r := New()
	r.Counter("b.count").Inc()
	r.Counter("a.count").Add(2)
	r.BucketedHistogram("lat").ObserveDuration(2 * time.Millisecond)
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "a.count") || !strings.Contains(out, "b.count") {
		t.Fatalf("missing counters:\n%s", out)
	}
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Fatal("counters not sorted")
	}
	if !strings.Contains(out, "2ms") {
		t.Fatalf("latency not rendered as a duration:\n%s", out)
	}
}

func TestWriteTextRowsHistogramsArePlainNumbers(t *testing.T) {
	r := New()
	r.BucketedHistogram("sweep.batch_rows").Observe(8)
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "mean=8 ") {
		t.Fatalf("batch size not rendered as a plain number:\n%s", out)
	}
	if strings.Contains(out, "8s") {
		t.Fatalf("batch size rendered as a duration:\n%s", out)
	}
}
