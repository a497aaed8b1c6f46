package app

import (
	"context"

	"metrics"
	"trace"
)

// The sanctioned shape: package-level constants, chronus-rooted.
const (
	counterRequests = "chronus.app.requests"
	gaugeDepth      = "chronus.app.queue_depth"
	spanSubmit      = "chronus.app.submit"
	sourcePrefix    = "chronus.app.source." // dynamic-name prefix, ends in a dot
	badRoot         = "app.requests"        // not chronus-rooted
	badPrefix       = "chronus.app"         // prefix without trailing dot
	badCase         = "chronus.App.Requests"
)

func Use(ctx context.Context, r *metrics.Registry, t *trace.Tracer, kind string) {
	r.Counter(counterRequests).Inc()
	r.Gauge(gaugeDepth).Set(1)

	r.Counter("chronus.app.inline").Inc() // want `must be a package-level constant, not an inline string literal`
	r.Counter(badRoot).Inc()              // want `"app\.requests" .* must match`
	r.Gauge(badCase).Set(3)               // want `"chronus\.App\.Requests" .* must match`

	const local = "chronus.app.local"
	r.Gauge(local).Set(4) // want `must be a package-level constant matching`

	name := counterRequests
	r.Counter(name).Inc() // want `must be a package-level constant matching`

	r.Counter(sourcePrefix + kind).Inc()
	r.Counter(badPrefix + kind).Inc() // want `constant prefix "chronus\.app" of the dynamic name`
	r.Counter(kind + sourcePrefix).Inc() // want `dynamic name passed to Registry\.Counter must start with a package-level constant prefix`

	r.BucketedHistogram(counterRequests).Observe(5)
	r.BucketedHistogram("chronus.app.inline_bh").Observe(6) // want `must be a package-level constant, not an inline string literal`

	ctx, span := t.Start(ctx, spanSubmit)
	defer span.End()
	t.Event("job.start", nil) // want `must be a package-level constant, not an inline string literal`
	t.Event(counterRequests, map[string]string{"kind": kind})
	_, _ = ctx, span
}

// Legacy demonstrates the suppression directive for grandfathered
// dashboard names.
//
//lint:ignore ecolint/metricname legacy dashboard name kept until the Grafana migration lands
func Legacy(r *metrics.Registry) {
	r.Counter("legacy.requests").Inc()
}
