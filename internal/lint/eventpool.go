package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// EventPool enforces the simclock free-list discipline. Event records
// are pooled: release returns a record to the free list, after which
// its fields may be rewritten by any later alloc — so a released
// record must never be read, released again, or stashed anywhere. The
// invariant is documented on Sim.release but invisible to the
// compiler; a regression corrupts the calendar queue only under a
// reuse-heavy schedule, which is exactly the kind of bug that survives
// unit tests and surfaces as a nondeterministic cluster run.
//
// Two rules, both scoped to eventPoolPackages:
//
//   - use-after-release: once a variable of the pooled event type is
//     passed to release, any later use of that variable in the same
//     linear statement sequence is reported, until it is reassigned a
//     fresh record. Branch bodies inherit the released set but do not
//     propagate theirs (same approximation as lockscope).
//   - free-list ownership: only alloc and release may write the pool
//     owner's `free` field. Everything else must recycle through
//     release, which is where the record's fields are scrubbed.
var EventPool = &Analyzer{
	Name: eventPoolName,
	Doc:  "no use of a pooled simclock event after release; only alloc/release touch the free list",
	Run:  runEventPool,
}

const eventPoolName = "eventpool"

// eventPoolPackages are the packages whose event pools are checked,
// matched by import-path suffix (fixtures use the bare name).
var eventPoolPackages = []string{
	"internal/simclock",
}

func isEventPoolPackage(path string) bool {
	for _, e := range eventPoolPackages {
		if path == e || strings.HasSuffix(path, "/"+e) || strings.HasSuffix(e, "/"+path) {
			return true
		}
	}
	return false
}

func runEventPool(pass *Pass) error {
	pkg := pass.Pkg
	if !isEventPoolPackage(pkg.Path) {
		return nil
	}
	// The pooled record is the package's `event` type; a package
	// without one has no pool to misuse.
	obj, ok := pkg.Pkg.Scope().Lookup("event").(*types.TypeName)
	if !ok {
		return nil
	}
	pooled := obj.Type()
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, isFn := decl.(*ast.FuncDecl)
			if !isFn || fd.Body == nil {
				continue
			}
			s := &poolScanner{pass: pass, pkg: pkg, pooled: pooled, fname: fd.Name.Name}
			s.block(fd.Body.List, map[*types.Var]bool{})
		}
	}
	return nil
}

// poolScanner walks one function body tracking which pooled-event
// variables have been released.
type poolScanner struct {
	pass   *Pass
	pkg    *PackageInfo
	pooled types.Type
	fname  string
}

// isPooled reports whether t is the event type or a pointer to it.
func (s *poolScanner) isPooled(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Identical(t, s.pooled)
}

// block scans a statement sequence, mutating released in place — the
// linear flow within one sequence is what the rule models.
func (s *poolScanner) block(stmts []ast.Stmt, released map[*types.Var]bool) {
	for _, stmt := range stmts {
		s.stmt(stmt, released)
	}
}

// branch scans a nested body with an inherited copy of the released
// set, so early-release-and-return branches stay precise without
// poisoning the fall-through path.
func (s *poolScanner) branch(stmts []ast.Stmt, released map[*types.Var]bool) {
	inherited := make(map[*types.Var]bool, len(released))
	for k, v := range released {
		inherited[k] = v
	}
	s.block(stmts, inherited)
}

func (s *poolScanner) stmt(stmt ast.Stmt, released map[*types.Var]bool) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		s.checkUses(st.X, released)
		s.markRelease(st.X, released)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			s.checkUses(rhs, released)
			s.markRelease(rhs, released)
		}
		for _, lhs := range st.Lhs {
			s.checkFreeWrite(lhs)
			// Reassignment hands the variable a fresh record.
			if id, ok := lhs.(*ast.Ident); ok {
				if v := s.varOf(id); v != nil {
					released[v] = false
				}
			} else {
				s.checkUses(lhs, released)
			}
		}
	case *ast.DeferStmt:
		// Arguments are evaluated now; a released event passed to a
		// deferred call is already a live bug.
		s.checkUses(st.Call, released)
	case *ast.GoStmt:
		s.checkUses(st.Call, released)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.checkUses(r, released)
		}
	case *ast.IncDecStmt:
		s.checkUses(st.X, released)
	case *ast.SendStmt:
		s.checkUses(st.Chan, released)
		s.checkUses(st.Value, released)
	case *ast.BlockStmt:
		s.branch(st.List, released)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init, released)
		}
		s.checkUses(st.Cond, released)
		s.branch(st.Body.List, released)
		if st.Else != nil {
			s.stmt(st.Else, released)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init, released)
		}
		if st.Cond != nil {
			s.checkUses(st.Cond, released)
		}
		s.branch(st.Body.List, released)
	case *ast.RangeStmt:
		s.checkUses(st.X, released)
		s.branch(st.Body.List, released)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init, released)
		}
		s.checkUses(st.Tag, released)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.branch(cc.Body, released)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.branch(cc.Body, released)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.checkUses(v, released)
					}
				}
			}
		}
	}
}

// varOf resolves an identifier to its variable object.
func (s *poolScanner) varOf(id *ast.Ident) *types.Var {
	if v, ok := s.pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := s.pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// markRelease marks pooled identifier arguments of a release call as
// released. Non-identifier arguments (s.release(b.pop())) hand the
// record straight back and leave nothing to track.
func (s *poolScanner) markRelease(expr ast.Expr, released map[*types.Var]bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	var callee *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee, _ = s.pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = s.pkg.Info.Uses[fun.Sel].(*types.Func)
	}
	if callee == nil || callee.Name() != "release" || callee.Pkg() != s.pkg.Pkg {
		return
	}
	for _, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		if v := s.varOf(id); v != nil && s.isPooled(v.Type()) {
			released[v] = true
		}
	}
}

// checkUses reports any appearance of a released pooled variable
// inside expr — reads, re-releases, and closure captures alike: the
// record behind it may already carry a different event.
func (s *poolScanner) checkUses(expr ast.Expr, released map[*types.Var]bool) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := s.pkg.Info.Uses[id].(*types.Var); ok && released[v] {
			s.pass.Reportf(id.Pos(), "pooled event %s used after release — the record may already be recycled; copy fields out before releasing", id.Name)
		}
		return true
	})
}

// checkFreeWrite reports writes to the pool owner's free list outside
// alloc and release.
func (s *poolScanner) checkFreeWrite(lhs ast.Expr) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "free" {
		return
	}
	tv, ok := s.pkg.Info.Types[sel]
	if !ok {
		return
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok || !s.isPooled(sl.Elem()) {
		return
	}
	if s.fname == "alloc" || s.fname == "release" {
		return
	}
	s.pass.Reportf(sel.Pos(), "the event free list may only be touched by alloc and release — recycle records through release, which scrubs their fields")
}
