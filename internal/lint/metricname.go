package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
)

// MetricName keeps the observability surface greppable and stable:
// every metric registered through metrics.Registry and every span or
// event started through trace.Tracer must be named by a package-level
// constant matching chronus.<subsystem>.<name>. Inline string
// literals drift (the PR 2 postmortem: "eco.submit" was spelled three
// ways across packages before the exposition endpoint unified them),
// and dynamic names explode Prometheus cardinality unless the variable
// part is explicitly carved out — which is why the one sanctioned
// dynamic form is `<package-level const prefix ending in "."> + expr`.
var MetricName = &Analyzer{
	Name: metricNameName,
	Doc:  "metric and span names must be package-level constants matching chronus.<subsystem>.<name>",
	Run:  runMetricName,
}

const metricNameName = "metricname"

// metricNameRx is the required shape: rooted at chronus., lowercase
// snake segments.
var metricNameRx = regexp.MustCompile(`^chronus\.[a-z0-9_]+(\.[a-z0-9_]+)*$`)

// metricPrefixRx is the required shape for the constant prefix of a
// dynamic name: chronus.-rooted segments ending with a dot.
var metricPrefixRx = regexp.MustCompile(`^chronus\.([a-z0-9_]+\.)+$`)

// metricNameSink describes one method whose argument is a metric or
// span name: (receiver package name, receiver type, method) → index of
// the name argument.
type metricNameSink struct {
	pkgName  string
	recvType string
	method   string
	argIndex int
}

var metricNameSinks = []metricNameSink{
	{"metrics", "Registry", "Counter", 0},
	{"metrics", "Registry", "Gauge", 0},
	{"metrics", "Registry", "Histogram", 0},
	{"metrics", "Registry", "BucketedHistogram", 0},
	{"trace", "Tracer", "Start", 1},
	{"trace", "Tracer", "Event", 0},
}

func runMetricName(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sink := metricSink(pass, call)
			if sink == nil || len(call.Args) <= sink.argIndex {
				return true
			}
			checkMetricName(pass, call.Args[sink.argIndex], sink)
			return true
		})
	}
	return nil
}

// metricSink reports whether call invokes one of the name-taking
// methods, matched by package name + receiver type + method so both
// the real packages (ecosched/internal/metrics) and test fixtures
// (metrics) qualify.
func metricSink(pass *Pass, call *ast.CallExpr) *metricNameSink {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return nil
	}
	for i := range metricNameSinks {
		s := &metricNameSinks[i]
		if fn.Pkg().Name() == s.pkgName && named.Obj().Name() == s.recvType && fn.Name() == s.method {
			return s
		}
	}
	return nil
}

// checkMetricName validates the name argument of a sink call.
func checkMetricName(pass *Pass, arg ast.Expr, sink *metricNameSink) {
	what := sink.recvType + "." + sink.method

	// Dynamic names: exactly `constPrefix + expr` where the leftmost
	// operand is a package-level constant ending in ".".
	if bin, ok := arg.(*ast.BinaryExpr); ok {
		left := bin
		for {
			inner, ok := left.X.(*ast.BinaryExpr)
			if !ok {
				break
			}
			left = inner
		}
		c := packageLevelConst(pass, left.X)
		if c == nil {
			pass.Reportf(arg.Pos(), "dynamic name passed to %s must start with a package-level constant prefix (`const fooPrefix = \"chronus.<subsystem>.\"`), got %s",
				what, exprString(left.X))
			return
		}
		prefix := constant.StringVal(c.Val())
		if !metricPrefixRx.MatchString(prefix) {
			pass.Reportf(arg.Pos(), "constant prefix %q of the dynamic name passed to %s must match %s (chronus-rooted, ending in a dot)",
				prefix, what, metricPrefixRx)
		}
		return
	}

	c := packageLevelConst(pass, arg)
	if c == nil {
		switch arg.(type) {
		case *ast.BasicLit:
			pass.Reportf(arg.Pos(), "name passed to %s must be a package-level constant, not an inline string literal — hoist it to `const` so the exposition surface is greppable",
				what)
		default:
			pass.Reportf(arg.Pos(), "name passed to %s must be a package-level constant matching %s, got %s",
				what, metricNameRx, exprString(arg))
		}
		return
	}
	name := constant.StringVal(c.Val())
	if !metricNameRx.MatchString(name) {
		pass.Reportf(arg.Pos(), "name %q passed to %s must match %s — chronus.<subsystem>.<name>, lowercase snake segments",
			name, what, metricNameRx)
	}
}

// packageLevelConst resolves expr to a package-level string constant,
// or nil. Local constants don't qualify: the point is one central,
// exported-or-not declaration per name.
func packageLevelConst(pass *Pass, expr ast.Expr) *types.Const {
	var obj types.Object
	switch e := expr.(type) {
	case *ast.Ident:
		obj = pass.Pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.Pkg.Info.Uses[e.Sel]
	default:
		return nil
	}
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil || c.Parent() != c.Pkg().Scope() {
		return nil
	}
	if c.Val().Kind() != constant.String {
		return nil
	}
	return c
}

// exprString renders a short description of an expression for
// diagnostics.
func exprString(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	}
	return "a non-constant expression"
}
