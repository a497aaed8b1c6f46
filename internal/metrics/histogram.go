// The log-bucketed (HDR-style) latency histogram: one fixed array of
// atomic bucket counts plus lifetime count/sum/min/max, so Observe is
// a handful of atomic adds with no lock and no allocation.

package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-bucketed histogram layout: an observation is a non-negative
// int64 of nanoseconds. Values below bhSubBuckets get exact unit
// buckets; above that, each power of two is split into bhSubBuckets
// sub-buckets, bounding the relative quantile error at
// 1/bhSubBuckets (~3.1%). The whole int64 range fits in bhBuckets
// fixed buckets, so quantiles are an O(bhBuckets) scan — no window,
// no sort, no per-observation allocation.
const (
	bhSubBits    = 5
	bhSubBuckets = 1 << bhSubBits
	// int64's highest set bit is 62, so exponent groups run
	// bhSubBits..62 and the top bucket's upper bound is exactly
	// MaxInt64 — one more group would overflow the bound arithmetic.
	bhBuckets = (63 - bhSubBits + 1) * bhSubBuckets
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	if ns < bhSubBuckets {
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // position of the highest set bit, >= bhSubBits
	sub := int((uint64(ns) >> uint(exp-bhSubBits)) & (bhSubBuckets - 1))
	return (exp-bhSubBits+1)*bhSubBuckets + sub
}

// bucketUpperNS returns the largest nanosecond value bucket idx holds —
// the bucket's inclusive upper bound, which quantile queries report
// (then clamp into [min, max]).
func bucketUpperNS(idx int) int64 {
	if idx < bhSubBuckets {
		return int64(idx)
	}
	group := idx / bhSubBuckets // >= 1
	sub := idx % bhSubBuckets
	shift := uint(group - 1)
	lower := (int64(bhSubBuckets) + int64(sub)) << shift
	return lower + (int64(1)<<shift - 1)
}

// BucketedHistogram is a log-bucketed latency histogram: Observe is
// lock-free and allocation-free, and p50/p99/p999 come from an
// O(bhBuckets) scan with no per-query sort, at ~3% relative quantile
// error over the histogram's lifetime.
//
// The zero value is not usable; call NewBucketedHistogram (or
// Registry.BucketedHistogram). A nil *BucketedHistogram is a valid
// no-op, like every other metric type here.
type BucketedHistogram struct {
	counts [bhBuckets]atomic.Int64
	count  atomic.Int64
	sumNS  atomic.Int64
	minNS  atomic.Int64
	maxNS  atomic.Int64
}

// NewBucketedHistogram returns an empty bucketed histogram.
func NewBucketedHistogram() *BucketedHistogram {
	h := &BucketedHistogram{}
	h.minNS.Store(math.MaxInt64)
	h.maxNS.Store(math.MinInt64)
	return h
}

// maxObservableSeconds saturates float observations so the ns
// conversion cannot overflow (≈292 years).
const maxObservableSeconds = float64(math.MaxInt64) / 1e9

// Observe records one value in seconds (the unit every histogram here
// observes latencies in). Negative values clamp to zero, NaN is
// dropped, and values beyond the int64-nanosecond range saturate.
func (h *BucketedHistogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	switch {
	case v <= 0:
		h.observeNS(0)
	case v >= maxObservableSeconds:
		h.observeNS(math.MaxInt64)
	default:
		h.observeNS(int64(v * 1e9))
	}
}

// ObserveDuration records a latency. This is the hot-path entry: no
// float conversion, no lock, no allocation.
func (h *BucketedHistogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.observeNS(ns)
}

func (h *BucketedHistogram) observeNS(ns int64) {
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		old := h.minNS.Load()
		if ns >= old || h.minNS.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := h.maxNS.Load()
		if ns <= old || h.maxNS.CompareAndSwap(old, ns) {
			break
		}
	}
}

// buckets returns the non-empty buckets in ascending LE order.
func (h *BucketedHistogram) buckets() []BucketCount {
	var out []BucketCount
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			out = append(out, BucketCount{LE: float64(bucketUpperNS(i)) / 1e9, Count: c})
		}
	}
	return out
}

// Quantiles returns the q-quantiles (each q in [0,1]) in seconds,
// reading the buckets once for the whole batch; a quantile is NaN when
// nothing has been observed.
func (h *BucketedHistogram) Quantiles(qs ...float64) []float64 {
	var b []BucketCount
	var lo, hi float64
	if h != nil {
		b = h.buckets()
		lo, hi = float64(h.minNS.Load())/1e9, float64(h.maxNS.Load())/1e9
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = nearestRank(b, q, lo, hi)
	}
	return out
}

// stat summarises the histogram for a snapshot, including the sparse
// bucket CDF the SLO evaluation consumes.
func (h *BucketedHistogram) stat() HistogramStat {
	st := HistogramStat{Count: h.count.Load(), Sum: float64(h.sumNS.Load()) / 1e9}
	if st.Count == 0 {
		st.P50, st.P90, st.P99, st.P999 = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return st
	}
	st.Min = float64(h.minNS.Load()) / 1e9
	st.Max = float64(h.maxNS.Load()) / 1e9
	st.Mean = st.Sum / float64(st.Count)
	st.Buckets = h.buckets()
	st.rankPercentiles()
	return st
}

// rankPercentiles sets the stat's percentiles from its bucket CDF.
func (st *HistogramStat) rankPercentiles() {
	st.P50 = nearestRank(st.Buckets, 0.50, st.Min, st.Max)
	st.P90 = nearestRank(st.Buckets, 0.90, st.Min, st.Max)
	st.P99 = nearestRank(st.Buckets, 0.99, st.Min, st.Max)
	st.P999 = nearestRank(st.Buckets, 0.999, st.Min, st.Max)
}

// nearestRank is the nearest-rank q-quantile of the observations a
// sparse bucket CDF holds: the upper bound of the bucket holding rank
// ⌈q·n⌉ of the buckets' n observations, clamped into [lo, hi] so
// degenerate distributions (one value) answer exactly. It is NaN when
// the buckets hold nothing.
func nearestRank(buckets []BucketCount, q, lo, hi float64) float64 {
	var n int64
	for _, b := range buckets {
		n += b.Count
	}
	if n == 0 {
		return math.NaN()
	}
	rank := min(max(int64(math.Ceil(q*float64(n))), 1), n)
	var cum int64
	for _, b := range buckets {
		if cum += b.Count; cum >= rank {
			return math.Min(math.Max(b.LE, lo), hi)
		}
	}
	return hi // unreachable: the buckets sum to n >= rank
}
