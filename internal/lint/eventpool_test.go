package lint

import "testing"

func TestEventPool(t *testing.T) {
	analyzerTest(t, []*Analyzer{EventPool}, "eventpool", "simclock", "other")
}
