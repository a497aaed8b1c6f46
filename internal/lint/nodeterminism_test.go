package lint

import "testing"

func TestNoDeterminism(t *testing.T) {
	analyzerTest(t, []*Analyzer{NoDeterminism}, "nodeterminism", "core", "webui")
}

// TestNoDeterminismOrder covers the map-range and multi-case select
// rules (fixture root "seqdet", the name they had as an analyzer of
// their own).
func TestNoDeterminismOrder(t *testing.T) {
	analyzerTest(t, []*Analyzer{NoDeterminism}, "seqdet", "core", "other")
}

func TestNoDeterminismPositiveCount(t *testing.T) {
	diags := Diagnostics(t, []*Analyzer{NoDeterminism}, "nodeterminism", "core", "webui")
	if len(diags) != 5 {
		t.Fatalf("want 5 findings in the deterministic fixture, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != noDeterminismName {
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
}
