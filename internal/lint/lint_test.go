package lint

import (
	"maps"
	"strings"
	"sync"
	"testing"
)

// loadSelf type-checks the module this package ships in once per test
// binary; TestLoadModuleSelf and TestModuleClean share the result.
var loadSelf = sync.OnceValues(func() (*Program, error) {
	return LoadModule("../..")
})

// TestBareIgnoreReported: a lint:ignore directive without a reason is
// itself a finding.
func TestBareIgnoreReported(t *testing.T) {
	t.Parallel()
	diags := Diagnostics(t, All(), "framework", "bare")
	if len(diags) != 1 {
		t.Fatalf("want exactly the bare-directive finding, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "ignore" || !strings.Contains(d.Message, "requires a reason") {
		t.Fatalf("unexpected finding: %s", d)
	}
}

// TestAllStable: the suite is the four analyzers, in stable order,
// each documented.
func TestAllStable(t *testing.T) {
	t.Parallel()
	names := []string{}
	for _, a := range All() {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		names = append(names, a.Name)
	}
	got := strings.Join(names, ",")
	want := "nodeterminism,ctxflow,lockscope,metricname"
	if got != want {
		t.Fatalf("All() = %s, want %s", got, want)
	}
}

// TestDebtLedger: Run counts directives that absorbed a finding and
// reports the ones that absorbed nothing as stale.
func TestDebtLedger(t *testing.T) {
	t.Parallel()
	prog, err := loadFixtures("framework", []string{"core"})
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, report := Run(prog, All())

	// wall()'s directive absorbs the time.Now() finding: one active
	// directive, charged to nodeterminism.
	if report.Total != 1 || report.ByAnalyzer["nodeterminism"] != 1 {
		t.Errorf("debt = total %d, nodeterminism %d; want 1 and 1",
			report.Total, report.ByAnalyzer["nodeterminism"])
	}

	// pure()'s directive suppresses nothing: the stale report is a
	// finding, so `make lint` and TestModuleClean both gate on it.
	var stale []Diagnostic
	for _, d := range diags {
		if d.Analyzer == "stalesuppression" {
			stale = append(stale, d)
		}
	}
	if len(stale) != 1 || !strings.HasSuffix(stale[0].Pos.Filename, "core.go") || stale[0].Pos.Line != 15 {
		t.Errorf("stalesuppression diagnostics = %v, want one at core.go:15 (pure's directive)", stale)
	}
	for _, d := range diags {
		if d.Analyzer == "nodeterminism" {
			t.Errorf("suppressed finding leaked: %s", d)
		}
	}
}

// TestLoadModuleSelf loads the real module and asserts the loader sees
// the packages the analyzers are configured for.
func TestLoadModuleSelf(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("whole-module type-check is slow under -short")
	}
	prog, err := loadSelf()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	for _, want := range []string{
		"ecosched/internal/core",
		"ecosched/internal/metrics",
		"ecosched/internal/trace",
		"ecosched/internal/lint",
	} {
		if _, ok := prog.ByPath[want]; !ok {
			t.Errorf("module load missing package %s", want)
		}
	}
}

// TestModuleClean: the tree this test ships in must be violation-free —
// the same gate `make lint` enforces — and its suppression ledger must
// match the count pinned here.
func TestModuleClean(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("whole-module type-check is slow under -short")
	}
	prog, err := loadSelf()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags, debt := Run(prog, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	// The ledger only shrinks: a new lint:ignore, reasoned or not, has
	// to edit this count in review.
	if want := map[string]int{"lockscope": 2, "nodeterminism": 1}; !maps.Equal(debt.ByAnalyzer, want) {
		t.Errorf("suppression ledger = %v, want %v", debt.ByAnalyzer, want)
	}
}
