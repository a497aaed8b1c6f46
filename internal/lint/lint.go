// Package lint is ecolint's analysis framework: a small, dependency-free
// re-implementation of the golang.org/x/tools/go/analysis surface the
// project analyzers need. The real x/tools module cannot be
// vendored here (the build environment is offline), so the framework
// carries its own whole-module package loader (loader.go) and driver
// plumbing on top of go/ast, go/build, go/parser and go/types alone;
// the analysistest harness lives in the package's tests.
//
// The six analyzers encode invariants that neither the compiler nor a
// cheaper dynamic gate states (DESIGN.md §9 lists what each inspects,
// and the gates that replaced the analyzers retired from the suite):
//
//   - nodeterminism: the deterministic packages (core, ml, optimizer,
//     hpcg, slurm, …) must not read wall clocks or global randomness,
//     range a map into an ordered sink, or select over several ready
//     channels — the parallel sweep's byte-identical-results guarantee
//     and replay fidelity depend on every measurement being a pure
//     function of its inputs.
//   - ctxflow: a function that accepts a context.Context must pass it
//     on to module-internal callees, not context.Background(); this is
//     what keeps trace span parenting correct end to end.
//   - hotpathio: nothing reachable from PredictService.Predict on a
//     cache hit may perform file or network I/O — the paper's Slurm
//     submit-latency budget, enforced structurally.
//   - lockscope: no I/O, channel operations, or lock-acquiring calls
//     while holding a mutex in internal/metrics or internal/trace (the
//     sampling hot path).
//   - metricname: metric and span names are package-level constants in
//     the chronus.* namespace, so the Prometheus exposition surface is
//     greppable and stable.
//   - eventpool: internal/simclock's pooled event records must not be
//     used after release, and only alloc/release may touch the free
//     list — the calendar queue's zero-allocation hot loop depends on
//     the recycling contract holding everywhere.
//
// A diagnostic can be suppressed with a comment on the preceding line
// (or the same line, or a function's doc comment):
//
//	//lint:ignore ecolint/<name> reason
//
// The reason is mandatory; bare ignores are themselves reported, and so
// is a directive that no longer suppresses anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check. Exactly one of Run (per package) or
// RunProgram (whole program, for call-graph checks) must be set.
type Analyzer struct {
	Name string // short name; diagnostics print as ecolint/<name>
	Doc  string // one-line description
	// Run analyzes a single package.
	Run func(*Pass) error
	// RunProgram analyzes the whole loaded program at once.
	RunProgram func(*ProgramPass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [ecolint/%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *PackageInfo
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos unless a lint:ignore directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	reportf(p.Prog, p.Pkg, p.Analyzer.Name, pos, p.report, format, args...)
}

// ProgramPass carries the whole program through a program analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos (in whichever package owns it)
// unless suppressed.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	pkg := p.Prog.packageAt(pos)
	reportf(p.Prog, pkg, p.Analyzer.Name, pos, p.report, format, args...)
}

func reportf(prog *Program, pkg *PackageInfo, analyzer string, pos token.Pos, sink func(Diagnostic), format string, args ...any) {
	position := prog.Fset.Position(pos)
	if pkg != nil && pkg.suppressed(analyzer, position) {
		return
	}
	sink(Diagnostic{Analyzer: analyzer, Pos: position, Message: fmt.Sprintf(format, args...)})
}

// Run executes the analyzers over every package of prog and returns
// the findings sorted by position, plus the suppression-debt ledger.
// Two kinds of finding come from the directives themselves: one without
// a reason (ecolint/ignore — an unexplained escape hatch is just a
// violation with extra steps) and one that suppressed nothing
// (ecolint/stalesuppression — suppression debt can only shrink).
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, DebtReport) {
	var out []Diagnostic
	sink := func(d Diagnostic) { out = append(out, d) }
	for _, pkg := range prog.Packages {
		for file, sups := range pkg.suppressions {
			for i := range sups {
				sups[i].hits = 0 // the ledger describes this run only
				if !sups[i].hasReason {
					sink(Diagnostic{
						Analyzer: "ignore",
						Pos:      token.Position{Filename: file, Line: sups[i].line - 1},
						Message:  "lint:ignore directive requires a reason — say why the invariant does not apply here",
					})
				}
			}
		}
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		switch {
		case a.RunProgram != nil:
			pp := &ProgramPass{Analyzer: a, Prog: prog, report: sink}
			if err := a.RunProgram(pp); err != nil {
				sink(Diagnostic{Analyzer: a.Name, Message: "analyzer error: " + err.Error()})
			}
		case a.Run != nil:
			for _, pkg := range prog.Packages {
				pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, report: sink}
				if err := a.Run(pass); err != nil {
					sink(Diagnostic{Analyzer: a.Name, Message: "analyzer error in " + pkg.Path + ": " + err.Error()})
				}
			}
		}
	}
	debt := collectDebt(prog, ran, sink)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return out, debt
}

// DebtReport is the suppression ledger of one run.
type DebtReport struct {
	// ByAnalyzer counts the active directives — those that suppressed at
	// least one finding this run — per analyzer they name.
	ByAnalyzer map[string]int
	// Total is the number of active directives (a directive naming two
	// analyzers counts once here).
	Total int
}

// collectDebt folds the per-directive hit counts recorded during the
// analyzer runs into the ledger, reporting reasoned directives that hit
// nothing as stale. Only directives naming at least one analyzer that
// actually ran are judged — the fixture tests run one analyzer at a
// time, and that must not condemn the rest's directives.
func collectDebt(prog *Program, ran map[string]bool, sink func(Diagnostic)) DebtReport {
	debt := DebtReport{ByAnalyzer: map[string]int{}}
	for _, pkg := range prog.Packages {
		for file, sups := range pkg.suppressions {
			for i := range sups {
				s := &sups[i]
				if !s.hasReason {
					continue // already reported as ecolint/ignore
				}
				var judged []string
				for name := range s.analyzers {
					if ran[name] {
						judged = append(judged, name)
					}
				}
				if len(judged) == 0 {
					continue
				}
				sort.Strings(judged)
				if s.hits > 0 {
					debt.Total++
					for _, name := range judged {
						debt.ByAnalyzer[name]++
					}
					continue
				}
				sink(Diagnostic{
					Analyzer: "stalesuppression",
					Pos:      token.Position{Filename: file, Line: s.line - 1},
					Message: fmt.Sprintf("stale suppression: this directive no longer suppresses any ecolint/%s finding — delete it",
						strings.Join(judged, ",ecolint/")),
				})
			}
		}
	}
	return debt
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		CtxFlow,
		HotPathIO,
		LockScope,
		MetricName,
		EventPool,
	}
}

// ignoreRx matches the suppression directive. Group 1 is the
// comma-separated analyzer list, group 2 the mandatory reason.
var ignoreRx = regexp.MustCompile(`^//\s*lint:ignore\s+((?:ecolint/\w+)(?:,\s*ecolint/\w+)*)\s*(.*)$`)

// suppression is one parsed lint:ignore directive.
type suppression struct {
	analyzers map[string]bool
	line      int           // line the directive suppresses (directive line + 1, or same line for trailing comments)
	funcBody  *ast.FuncDecl // non-nil when the directive sits in a function's doc comment
	hasReason bool
	hits      int // findings this directive suppressed in the current run (the debt ledger)
}

// buildSuppressions scans a file's comments for lint:ignore directives.
func buildSuppressions(fset *token.FileSet, file *ast.File) []suppression {
	var out []suppression
	// Map function doc comments to their declarations so a directive in
	// a doc comment covers the whole function body.
	docOwner := make(map[*ast.CommentGroup]*ast.FuncDecl)
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			docOwner[fd.Doc] = fd
		}
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := ignoreRx.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			s := suppression{analyzers: make(map[string]bool), hasReason: strings.TrimSpace(m[2]) != ""}
			for _, name := range strings.Split(m[1], ",") {
				name = strings.TrimSpace(name)
				s.analyzers[strings.TrimPrefix(name, "ecolint/")] = true
			}
			if fd, ok := docOwner[cg]; ok {
				s.funcBody = fd
			}
			s.line = fset.Position(c.Pos()).Line + 1
			out = append(out, s)
		}
	}
	return out
}

// FuncSuppressed reports whether fd's doc comment carries a
// lint:ignore directive for the named analyzer.
func FuncSuppressed(fd *ast.FuncDecl, analyzer string) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if m := ignoreRx.FindStringSubmatch(c.Text); m != nil {
			for _, name := range strings.Split(m[1], ",") {
				if strings.TrimPrefix(strings.TrimSpace(name), "ecolint/") == analyzer {
					return true
				}
			}
		}
	}
	return false
}

// Per-package analyzers deliberately do NOT skip functions whose doc
// comment carries a directive: they scan the body anyway and let
// Reportf's range-based suppression absorb each finding, so the debt
// ledger records the true hit count and a directive over a clean body
// is correctly reported stale. Only hotpathio's call-graph walk
// skips-and-marks, because skipping there changes traversal — the
// suppressed function's callees stay hidden — which is the documented
// meaning of the directive on a hot path.

// markFuncSuppression records a ledger hit for fd's doc-comment
// directive covering the named analyzer, if one exists.
func (pkg *PackageInfo) markFuncSuppression(fd *ast.FuncDecl, analyzer string) {
	if pkg == nil || fd == nil || fd.Doc == nil {
		return
	}
	file := pkg.fset.Position(fd.Pos()).Filename
	sups := pkg.suppressions[file]
	for i := range sups {
		if sups[i].funcBody == fd && sups[i].analyzers[analyzer] {
			sups[i].hits++
		}
	}
}

// isLocalPkg reports whether path names a package of the module under
// analysis (as opposed to the standard library): every local package is
// loaded.
func (prog *Program) isLocalPkg(path string) bool {
	_, ok := prog.ByPath[path]
	return ok
}

// packageAt finds the loaded package whose files contain pos.
func (prog *Program) packageAt(pos token.Pos) *PackageInfo {
	if !pos.IsValid() {
		return nil
	}
	f := prog.Fset.File(pos)
	if f == nil {
		return nil
	}
	return prog.pkgByFile[f.Name()]
}

// suppressed reports whether a diagnostic of the named analyzer at the
// given position is covered by a lint:ignore directive, recording the
// hit in the debt ledger when it is.
func (pkg *PackageInfo) suppressed(analyzer string, pos token.Position) bool {
	sups := pkg.suppressions[pos.Filename]
	for i := range sups {
		s := &sups[i]
		if !s.analyzers[analyzer] {
			continue
		}
		if s.funcBody != nil {
			start := pkg.fset.Position(s.funcBody.Pos())
			end := pkg.fset.Position(s.funcBody.End())
			if pos.Line >= start.Line && pos.Line <= end.Line {
				s.hits++
				return true
			}
		}
		// The directive covers the following line; a trailing comment
		// (directive line == code line) covers its own line.
		if pos.Line == s.line || pos.Line == s.line-1 {
			s.hits++
			return true
		}
	}
	return false
}

// qualifiedName renders a function the way diagnostics and the
// hot-path configuration name it: the types.Func full name, e.g.
// "(*ecosched/internal/core.PredictService).Predict".
func qualifiedName(fn *types.Func) string { return fn.FullName() }

// shortFuncName strips the package path from a qualified name for
// readable diagnostics: "(*core.PredictService).Predict".
func shortFuncName(qualified string) string {
	i := strings.LastIndex(qualified, "/")
	if i < 0 {
		return qualified
	}
	j := strings.LastIndexAny(qualified[:i], "(* ")
	return qualified[:j+1] + qualified[i+1:]
}
