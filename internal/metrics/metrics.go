// Package metrics is the observability subsystem of the production
// submit path: named counters, gauges and latency histograms with
// percentiles, collected into a Registry and dumped as text or JSON.
//
// It is deliberately distinct from internal/telemetry, which records
// the *simulated hardware's* power traces (the paper's IPMI samples);
// metrics here observe the *software* — how many submissions the eco
// plugin rewrote, how often the prediction cache hit, how long the
// hot path took — so the latency-budget story of §3.1.2 can be proven
// with numbers instead of asserted.
//
// Every type is safe for concurrent use and nil-safe: methods on a
// nil *Registry, *Counter, *Gauge or *BucketedHistogram are no-ops, so
// components can be instrumented unconditionally and wired with a nil
// registry when observability is not wanted (tests, tiny tools).
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric, striped across
// cache-line-padded atomic shards (see sharded.go) so fleet-rate
// increments from many goroutines never convoy on one cache line.
type Counter struct {
	stripes [stripeCount]paddedInt64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored — counters only go up).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.stripes[stripeIndex()].v.Add(delta)
}

// Value returns the current count, folding the stripes. Concurrent
// increments may or may not be included — the usual counter-read
// semantics — but the value never decreases across calls.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.stripes {
		total += c.stripes[i].v.Load()
	}
	return total
}

// Gauge is a point-in-time float metric (queue depth, cache size),
// stored as atomic float bits: Set is a plain store, Add a CAS loop,
// and neither locks nor allocates. Gauges are last-write-wins
// point-in-time data, so unlike counters they gain nothing from
// striping — one atomic word is already contention-free for the
// set-dominated access pattern.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. The zero value is not usable; call
// New. A nil *Registry is a valid no-op sink.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	bhistograms map[string]*BucketedHistogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		bhistograms: make(map[string]*BucketedHistogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// BucketedHistogram returns the named log-bucketed histogram, creating
// it on first use.
func (r *Registry) BucketedHistogram(name string) *BucketedHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h, ok := r.bhistograms[name]
	if !ok {
		h = NewBucketedHistogram()
		r.bhistograms[name] = h
	}
	r.mu.Unlock()
	return h
}

// HistogramStat is a histogram summarised for a snapshot: every field
// covers the histogram's lifetime, and Buckets carries the sparse
// bucket counts the SLO evaluation consumes.
type HistogramStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	// Buckets lists the non-empty log buckets in ascending LE order:
	// Count observations fell at or below LE seconds (and above the
	// previous bucket's LE). Snapshot files written before histograms
	// were bucketed carry none.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty bucket of a BucketedHistogram snapshot.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Snapshot is a point-in-time copy of every metric in a registry —
// what `chronus metrics` persists and prints.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramStat{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	bhistograms := make(map[string]*BucketedHistogram, len(r.bhistograms))
	for k, v := range r.bhistograms {
		bhistograms[k] = v
	}
	r.mu.Unlock()

	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range bhistograms {
		s.Histograms[k] = v.stat()
	}
	return s
}

// MarshalJSON encodes the stat with NaN percentiles (an empty
// histogram) zeroed: JSON has no NaN, and Count == 0 already tells a
// reader there is no data. Without this, a hot path that caches a
// histogram handle before the first observation would make the whole
// persisted snapshot unmarshalable.
func (h HistogramStat) MarshalJSON() ([]byte, error) {
	type alias HistogramStat // avoid recursion
	a := alias(h)
	for _, p := range []*float64{&a.Mean, &a.P50, &a.P90, &a.P99, &a.P999} {
		if math.IsNaN(*p) {
			*p = 0
		}
	}
	return json.Marshal(a)
}

// Merge folds other into s: counters add, histogram lifetimes
// combine, and gauges plus histogram percentiles take other's values
// (the most recent observation wins for point-in-time data).
func (s *Snapshot) Merge(other Snapshot) {
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]float64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramStat{}
	}
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
	for k, v := range other.Gauges {
		s.Gauges[k] = v
	}
	for k, v := range other.Histograms {
		cur, ok := s.Histograms[k]
		if !ok || cur.Count == 0 {
			s.Histograms[k] = v
			continue
		}
		if v.Count == 0 {
			continue
		}
		merged := HistogramStat{
			Count: cur.Count + v.Count,
			Sum:   cur.Sum + v.Sum,
			Min:   math.Min(cur.Min, v.Min),
			Max:   math.Max(cur.Max, v.Max),
			// Percentiles cannot be combined exactly from summaries;
			// keep the most recent window's, like the gauges.
			P50: v.P50, P90: v.P90, P99: v.P99, P999: v.P999,
		}
		merged.Mean = merged.Sum / float64(merged.Count)
		if len(cur.Buckets) > 0 || len(v.Buckets) > 0 {
			// Bucketed histograms CAN combine exactly: bucket counts
			// add, and the percentiles recompute from the merged CDF.
			merged.Buckets = mergeBuckets(cur.Buckets, v.Buckets)
			merged.P50 = bucketQuantile(merged, 0.50)
			merged.P90 = bucketQuantile(merged, 0.90)
			merged.P99 = bucketQuantile(merged, 0.99)
			merged.P999 = bucketQuantile(merged, 0.999)
		}
		s.Histograms[k] = merged
	}
}

// mergeBuckets adds two sparse bucket lists, preserving ascending LE
// order. Bucket bounds come from the fixed log-bucket layout, so equal
// bounds compare equal exactly.
func mergeBuckets(a, b []BucketCount) []BucketCount {
	out := make([]BucketCount, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].LE < b[j].LE:
			out = append(out, a[i])
			i++
		case a[i].LE > b[j].LE:
			out = append(out, b[j])
			j++
		default:
			out = append(out, BucketCount{LE: a[i].LE, Count: a[i].Count + b[j].Count})
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// bucketQuantile is the nearest-rank quantile over a stat's sparse
// bucket CDF, clamped into [Min, Max] like the live histogram's.
func bucketQuantile(st HistogramStat, q float64) float64 {
	if st.Count == 0 || len(st.Buckets) == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(st.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > st.Count {
		rank = st.Count
	}
	var cum int64
	v := st.Buckets[len(st.Buckets)-1].LE
	for _, b := range st.Buckets {
		cum += b.Count
		if cum >= rank {
			v = b.LE
			break
		}
	}
	return math.Min(math.Max(v, st.Min), st.Max)
}

// MarshalJSON renders the snapshot with deterministic key order (Go
// maps marshal sorted, so the default marshaller suffices; this
// method exists to keep the wire shape explicit).
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot // avoid recursion
	return json.Marshal(alias(s))
}

// WriteText dumps the snapshot in a stable, human-readable layout.
func (s Snapshot) WriteText(w io.Writer) {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "counter   %-44s %d\n", name, s.Counters[name])
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "gauge     %-44s %g\n", name, s.Gauges[name])
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		format := fmtSeconds
		if strings.HasSuffix(name, "_rows") {
			format = fmtCount
		}
		fmt.Fprintf(w, "histogram %-44s count=%d mean=%s p50=%s p90=%s p99=%s p999=%s max=%s\n",
			name, h.Count, format(h.Mean), format(h.P50), format(h.P90), format(h.P99), format(h.P999), format(h.Max))
	}
}

// fmtSeconds renders a seconds-valued observation as a duration —
// histograms observe latencies in seconds unless their name says
// otherwise (see fmtCount).
func fmtSeconds(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// fmtCount renders a dimensionless observation (histograms named
// `*_rows` observe batch sizes, not latencies).
func fmtCount(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
