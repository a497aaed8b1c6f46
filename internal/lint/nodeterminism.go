package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPackages lists the packages (matched by import-path
// suffix) whose behaviour must be a pure function of their inputs: the
// parallel sweep's byte-identical-results guarantee (DESIGN.md §4) and
// the simulated timeline both break the moment one of them reads a
// wall clock or the global RNG. Clocks are injected (core.Deps.Now,
// simclock.Sim, trace.WithClock) and randomness is seeded per
// component (simclock/rand.go, ml forest seeds).
var deterministicPackages = []string{
	"internal/core",
	"internal/ml",
	"internal/optimizer",
	"internal/simclock",
	"internal/perfmodel",
	"internal/slurm",
	"internal/telemetry",
	"internal/ipmi",
	"internal/hw",
	"internal/energymarket",
	"internal/fault",
	"internal/workload",
}

// forbiddenTimeFuncs are the package time functions that read or wait
// on the wall clock. time.Since/Until are time.Now in disguise.
var forbiddenTimeFuncs = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "blocks on the wall clock",
	"After":     "blocks on the wall clock",
	"Tick":      "ticks on the wall clock",
	"NewTimer":  "ticks on the wall clock",
	"NewTicker": "ticks on the wall clock",
	"AfterFunc": "ticks on the wall clock",
}

// forbiddenRandFuncs are the math/rand (and v2) package-level
// functions backed by the process-global generator. rand.New with an
// explicit seeded source stays legal — that is the injected pattern.
var forbiddenRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Int32": true, "Int32N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint64N": true, "Uint32N": true, "UintN": true, "Uint": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// NoDeterminism guards the deterministic packages against every source
// of run-to-run divergence the compiler, -race and a single test run
// cannot see:
//
//   - wall-clock and global-RNG access (forbiddenTimeFuncs,
//     forbiddenRandFuncs);
//   - map-range feeding ordered output: Go randomizes map iteration
//     order per run, so a `for k := range m` whose body writes to a
//     stream, journal, channel or builder produces a different byte
//     sequence every execution. The sanctioned shape is collect keys →
//     sort → range the slice; plain collection (append into a local)
//     is therefore not flagged, only ranges whose body reaches an
//     ordered sink directly;
//   - multi-ready select: with two or more enabled comm clauses the
//     runtime picks pseudo-randomly, so any select with ≥2 comm cases
//     is a scheduling coin-flip on the hot chain. Non-blocking polls
//     (one comm case plus default) stay legal.
var NoDeterminism = &Analyzer{
	Name: noDeterminismName,
	Doc:  "forbid time.Now/time.Sleep/global math/rand, map-range feeding ordered output and multi-case select in deterministic packages",
	Run:  runNoDeterminism,
}

const noDeterminismName = "nodeterminism"

// isDeterministicPackage matches a package path against
// deterministicPackages by suffix, so both the real module packages
// ("ecosched/internal/core") and analysistest fixtures ("core") hit.
func isDeterministicPackage(path string) bool {
	for _, e := range deterministicPackages {
		if path == e || strings.HasSuffix(path, "/"+e) || strings.HasSuffix(e, "/"+path) {
			return true
		}
	}
	return false
}

func runNoDeterminism(pass *Pass) error {
	if !isDeterministicPackage(pass.Pkg.Path) {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkClockAndRand(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.SelectStmt:
				checkSelect(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkClockAndRand flags a reference to a wall-clock function of
// package time or a global-source function of math/rand.
func checkClockAndRand(pass *Pass, sel *ast.SelectorExpr) {
	obj, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		// Package-level functions only: time.Time.After/Before/Sub
		// are pure value methods, unlike the package func time.After.
		if obj.Type().(*types.Signature).Recv() != nil {
			return
		}
		if why, bad := forbiddenTimeFuncs[obj.Name()]; bad {
			pass.Reportf(sel.Pos(), "time.%s %s; %s is a deterministic package — inject a clock (core.Deps.Now, simclock.Sim, trace.WithClock)",
				obj.Name(), why, pass.Pkg.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		// Only package-level functions use the global source;
		// methods on *rand.Rand are the injected pattern.
		if obj.Type().(*types.Signature).Recv() == nil && forbiddenRandFuncs[obj.Name()] {
			pass.Reportf(sel.Pos(), "%s.%s draws from the process-global RNG; %s is a deterministic package — use a seeded *rand.Rand (or simclock's PRNG)",
				obj.Pkg().Name(), obj.Name(), pass.Pkg.Pkg.Name())
		}
	}
}

// orderedSinkMethods are method names that write into order-sensitive
// state: streams, journals, builders, encoders.
var orderedSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Append": true, "Record": true, "Emit": true, "Encode": true,
	"Print": true, "Printf": true, "Println": true,
}

// isOrderedFmtFunc matches the fmt package functions that write to a
// stream (Sprint* build values and are order-safe on their own).
func isOrderedFmtFunc(name string) bool {
	return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")
}

// checkMapRange flags a range over a map whose body reaches an ordered
// sink.
func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	t := pass.Pkg.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if sink := firstOrderedSink(pass.Pkg, rs.Body); sink != "" {
		pass.Reportf(rs.Pos(), "map iteration order is randomized but this range body feeds an ordered sink (%s) — collect the keys, sort, then range the slice",
			sink)
	}
}

// firstOrderedSink returns a description of the first order-sensitive
// write in body, or "".
func firstOrderedSink(pkg *PackageInfo, body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "channel send"
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
				if fn.Pkg().Path() == "fmt" && isOrderedFmtFunc(fn.Name()) {
					sink = "fmt." + fn.Name()
					return true
				}
			}
			// Method writes: only methods (a receiver exists), so plain
			// package functions named Append etc. elsewhere don't match.
			if selection, ok := pkg.Info.Selections[sel]; ok && selection.Kind() == types.MethodVal && orderedSinkMethods[sel.Sel.Name] {
				sink = typeShortName(selection.Recv()) + "." + sel.Sel.Name
			}
		}
		return true
	})
	return sink
}

// typeShortName renders a receiver type compactly for diagnostics.
func typeShortName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// checkSelect flags selects where the runtime can choose between two
// or more ready comm clauses.
func checkSelect(pass *Pass, sel *ast.SelectStmt) {
	comm := 0
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	if comm >= 2 {
		pass.Reportf(sel.Pos(), "select with %d comm cases: when several are ready the runtime picks pseudo-randomly, which is a replay-divergence point in a deterministic package — restructure to a single blocking receive (plus default for polls), or suppress with the reason the outcome is order-insensitive",
			comm)
	}
}
