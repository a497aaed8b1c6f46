package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// unreachable returns the package-level declarations and methods of
// prog that no main or init function reaches, keyed "pkg.Name" or
// "pkg.Type.Method" (pkg is the last element of the import path):
// before is the set those roots leave dead, after what is still dead
// once the declarations keyed in keep are walked as roots too, so
// what only a kept declaration uses is not reported again.
//
// A declaration is reached when a reached declaration names it. A
// method is reached when reached code selects it, or when its receiver
// type is reached and the method's name is the name of an interface
// method (declared in the program or in a standard-library package it
// imports), since a dynamic call through that interface would not name
// it. Blank declarations such as `var _ I = (*T)(nil)` are assertions,
// not uses: they reach nothing.
func unreachable(prog *Program, keep map[string]string) (before, after map[string]token.Position) {
	type decl struct {
		key  string
		pos  token.Pos
		node ast.Node
		info *types.Info
	}
	decls := map[types.Object]*decl{}
	methods := map[*types.TypeName][]*types.Func{}
	var roots []*decl
	add := func(pkg *PackageInfo, obj types.Object, key string, pos token.Pos, node ast.Node) {
		decls[obj] = &decl{key: key, pos: pos, node: node, info: pkg.Info}
	}
	for _, pkg := range prog.Packages {
		label := path.Base(pkg.Path)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := pkg.Info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Pkg.Name() == "main") {
						roots = append(roots, &decl{node: d, info: pkg.Info})
						continue
					}
					key := label + "." + d.Name.Name
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						tn := receiverName(recv.Type())
						key = label + "." + tn.Name() + "." + d.Name.Name
						methods[tn] = append(methods[tn], fn)
					}
					add(pkg, fn, key, d.Name.Pos(), d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(pkg, pkg.Info.Defs[s.Name], label+"."+s.Name.Name, s.Name.Pos(), s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.Name != "_" {
									add(pkg, pkg.Info.Defs[name], label+"."+name.Name, name.Pos(), s)
								}
							}
						}
					}
				}
			}
		}
	}

	ifaceNames := interfaceMethodNames(prog)
	live := map[types.Object]bool{}
	var work []*decl
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		d := decls[obj]
		if d == nil || live[obj] {
			return
		}
		live[obj] = true
		work = append(work, d)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if ifaceNames[m.Name()] && !live[m] {
					live[m] = true
					work = append(work, decls[m])
				}
			}
		}
	}
	drain := func() {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(d.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := d.info.Uses[id]; obj != nil {
						mark(obj)
					}
				}
				return true
			})
		}
	}
	dead := func() map[string]token.Position {
		out := map[string]token.Position{}
		for obj, d := range decls {
			if !live[obj] {
				out[d.key] = prog.Fset.Position(d.pos)
			}
		}
		return out
	}

	work = append(work, roots...)
	drain()
	before = dead()
	for obj, d := range decls {
		if _, ok := keep[d.key]; ok {
			mark(obj)
		}
	}
	drain()
	return before, dead()
}

// receiverName is the declared type a method's receiver names, through
// a pointer and any type arguments.
func receiverName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// interfaceMethodNames collects the method names of every interface the
// program declares or spells out, and of every interface a standard
// library package it imports (transitively) declares at package level.
func interfaceMethodNames(prog *Program) map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog.Packages {
		visit(pkg.Pkg)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	return names
}

// TestUnreachableFixture: on a fixture with a dead type that is named
// only by its own Rebind method and a blank interface assertion, beside
// a live type whose methods main calls only through that interface,
// exactly the dead declarations are reported, and keeping one as a root
// keeps what it uses.
func TestUnreachableFixture(t *testing.T) {
	t.Parallel()
	prog, err := loadFixtures("reach", []string{"app", "lib"})
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	keep := map[string]string{"lib.NewDead": "(a) fixture"}
	before, after := unreachable(prog, keep)
	want := "lib.Dead lib.Dead.Rebind lib.Dead.Run lib.Live.Twice lib.NewDead lib.unused"
	if got := strings.Join(sortedKeys(before), " "); got != want {
		t.Errorf("unreachable = %s\nwant          %s", got, want)
	}
	if got, want := strings.Join(sortedKeys(after), " "), "lib.Live.Twice lib.unused"; got != want {
		t.Errorf("unreachable with lib.NewDead kept = %s, want %s", got, want)
	}
}

// reachAllow lists the declarations the reachability gate keeps
// although no main or init function reaches them. Each reason opens
// with the category it fits:
//
//	(a) a test fake or helper that tests in more than one package use;
//	(b) a paper constant, or a reference implementation a test compares against;
//	(c) what an open ROADMAP item names as the thing it will wire;
//	(d) a read-only accessor a test needs to observe state no product path exposes.
var reachAllow = map[string]string{
	"blob.NewMemory":                        "(a) the in-memory blob store fake of the blob, core and fault tests",
	"settings.NewMemStore":                  "(a) the in-memory settings fake of the core, ecoplugin, fault and settings tests; (c) the ROADMAP item \"The paper's hook at cluster scale\" wires it as the cluster plugin's store",
	"leakcheck.Check":                       "(a) the goroutine-leak assertion of the root, core, ml and trace tests",
	"trace.WithClock":                       "(a) pins span timestamps in the trace, fault and core tests",
	"hw.Node.ResetEnergy":                   "(a) starts a measured window in the hw, ipmi and slurm energy tests",
	"paperdata.Fig1GFLOPS":                  "(b) Figure 1's HPCG rating, the anchor the perfmodel, core and root tests compare against",
	"paperdata.Eq1IPMIWatts":                "(b) Equation 1's IPMI reading, compared against by the paperdata and perfmodel tests",
	"paperdata.Eq1PSU1Watts":                "(b) Equation 1's first PSU reading, compared against by the perfmodel tests",
	"paperdata.Eq1PSU2Watts":                "(b) Equation 1's second PSU reading, compared against by the perfmodel tests",
	"paperdata.Eq1WattmeterWatts":           "(b) Equation 1's wattmeter total, compared against by the paperdata and perfmodel tests",
	"paperdata.Eq1PercentDiff":              "(b) Equation 1's 5.96 % gap, compared against by the hw, ipmi, perfmodel and root tests",
	"paperdata.Table3EcoCPUReductionPct":    "(b) Table 3's 18 % CPU-energy headline, checked against the tables by the paperdata tests",
	"paperdata.Table3EcoSystemReductionPct": "(b) Table 3's 11 % system-energy headline, checked against the tables by the paperdata tests",
	"paperdata.BestRow":                     "(b) the paper's most efficient sweep row, the reference the optimizer and core tests compare against",
	"paperdata.StandardRow":                 "(b) the paper's standard-configuration sweep row, the reference of the paperdata tests",
	"workload.Dist.Expectation":             "(b) the closed-form mean the sampled distributions are checked against",
	"workload.Dist.Variance":                "(b) the closed-form variance the sampled distributions are checked against",
	"trace.Journal.Append":                  "(b) the sequential writer AppendBatch is checked against byte for byte",
	"slurm.Controller.Job":                  "(d) a live job's record by id, which the slurm tests observe mid-run",
	"slurm.Controller.Squeue":               "(d) the pending and running jobs, which the slurm tests observe mid-run",
	"slurm.Controller.Nodes":                "(d) the controller's hardware nodes, whose energy the slurm tests read",
	"slurm.Controller.UserUsageCPUSeconds":  "(d) a user's fair-share usage, which the slurm and root pipeline tests check",
	"trace.Span.TraceID":                    "(d) a span's trace id, which the trace tests check is shared and unique",
}

var reachCategory = regexp.MustCompile(`^\([a-d]\) \S`)

// TestEveryDeclarationReachable: every package-level declaration and
// method of the module, bench/ included, is reached from some main or
// init function, or is on reachAllow with a reason. Code that only
// tests call is deleted, not kept.
func TestEveryDeclarationReachable(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("whole-module type-check is slow under -short")
	}
	prog, err := loadSelf()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	before, after := unreachable(prog, reachAllow)
	for _, k := range sortedKeys(after) {
		t.Errorf("%s: %s is reached by no main or init function: delete it, or add it to reachAllow with a reason", after[k], k)
	}
	for k, reason := range reachAllow {
		if !reachCategory.MatchString(reason) {
			t.Errorf("reachAllow[%q] = %q: a reason opens with its category, (a) to (d)", k, reason)
		}
		if _, ok := before[k]; !ok {
			t.Errorf("reachAllow[%q] is stale: the declaration is reached or gone", k)
		}
	}
}

func sortedKeys(m map[string]token.Position) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
