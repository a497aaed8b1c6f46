package lint

import "testing"

func TestLockScope(t *testing.T) {
	analyzerTest(t, []*Analyzer{LockScope}, "lockscope", "metrics", "other")
}
