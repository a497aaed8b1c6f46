package lint

import "testing"

func TestCtxFlow(t *testing.T) {
	analyzerTest(t, []*Analyzer{CtxFlow}, "ctxflow", "ctxpkg")
}
