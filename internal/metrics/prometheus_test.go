package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("eco.submit.rewritten").Add(3)
	r.Gauge("predict.cache.entries").Set(2)
	h := r.BucketedHistogram("predict.latency.seconds")
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		h.ObserveDuration(d)
	}

	var b strings.Builder
	r.Snapshot().WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE eco_submit_rewritten counter\neco_submit_rewritten 3\n",
		"# TYPE predict_cache_entries gauge\npredict_cache_entries 2\n",
		"# TYPE predict_latency_seconds summary\n",
		`predict_latency_seconds{quantile="0.5"} 0.02`,
		`predict_latency_seconds{quantile="0.99"} 0.03`,
		"predict_latency_seconds_sum 0.06",
		"predict_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Dotted names must not leak through.
	if strings.Contains(out, "eco.submit") {
		t.Errorf("unsanitised name in exposition:\n%s", out)
	}
}

// An empty histogram must not emit quantile series (they would be NaN)
// but still expose _sum and _count so the series exists.
func TestWritePrometheusEmptyHistogram(t *testing.T) {
	r := New()
	r.BucketedHistogram("idle.latency.seconds")

	var b strings.Builder
	r.Snapshot().WritePrometheus(&b)
	out := b.String()

	if strings.Contains(out, "quantile") {
		t.Errorf("empty histogram emitted quantiles:\n%s", out)
	}
	if !strings.Contains(out, "idle_latency_seconds_count 0\n") || !strings.Contains(out, "idle_latency_seconds_sum 0\n") {
		t.Errorf("empty histogram missing _sum/_count:\n%s", out)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"eco.submit.total": "eco_submit_total",
		"9lives":           "_lives",
		"ok_name:sub":      "ok_name:sub",
		"spaced out":       "spaced_out",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// stat() and Quantile() read the same merged buckets, so the
// quantiles a snapshot reports must agree with Quantile().
func TestStatQuantilesAgree(t *testing.T) {
	h := NewBucketedHistogram()
	for i := 100; i >= 1; i-- {
		h.Observe(float64(i))
	}
	st := h.stat()
	if got := h.Quantile(0.5); got != st.P50 {
		t.Errorf("P50: stat=%g Quantile=%g", st.P50, got)
	}
	if got := h.Quantile(0.99); got != st.P99 {
		t.Errorf("P99: stat=%g Quantile=%g", st.P99, got)
	}
	for _, c := range []struct{ got, want float64 }{{st.P50, 50}, {st.P90, 90}, {st.P99, 99}} {
		if c.got < c.want || c.got > c.want*(1+1.0/32) {
			t.Errorf("quantile %g, want %g within one sub-bucket: %+v", c.got, c.want, st)
		}
	}
}
