package lint

import "testing"

func TestMetricName(t *testing.T) {
	analyzerTest(t, []*Analyzer{MetricName}, "metricname", "metrics", "trace", "app")
}

// TestMetricNameCrossPackage: exported name constants referenced from
// another package resolve through the type-checker, so a bad constant
// is caught at the call site even though the literal lives elsewhere.
func TestMetricNameCrossPackage(t *testing.T) {
	analyzerTest(t, []*Analyzer{MetricName}, "metricname", "metrics", "names", "xpkg")
}
