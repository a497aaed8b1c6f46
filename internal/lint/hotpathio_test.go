package lint

import (
	"strings"
	"testing"
)

func TestHotPathIO(t *testing.T) {
	analyzerTest(t, []*Analyzer{HotPathIO}, "hotpathio", "hotpath", "blob")
}

// TestHotPathIOChain asserts the diagnostic carries the call chain so
// a violation three frames deep is actionable.
func TestHotPathIOChain(t *testing.T) {
	diags := Diagnostics(t, []*Analyzer{HotPathIO}, "hotpathio", "hotpath", "blob")
	if len(diags) == 0 {
		t.Fatal("expected hot-path findings in the fixture")
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "(*hotpath.PredictService).Predict → ") {
			t.Errorf("diagnostic lacks the root call chain: %s", d)
		}
	}
}
