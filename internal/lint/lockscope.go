package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockScope forbids slow or re-entrant work while holding a mutex in
// the observability packages (matched by lockScopePackages): no file
// or network I/O, no channel sends/receives/selects, and no calls to
// module functions that themselves acquire locks. internal/metrics and
// internal/trace sit on the sampling hot path — every power sample and
// every submit crosses their mutexes — so anything blocking inside a
// critical section stalls the whole deployment (and nested lock
// acquisition across packages is how deadlocks are born).
//
// The check is a linear, per-function approximation: a held counter
// increments at m.Lock()/m.RLock() statements and decrements at
// Unlock/RUnlock; `defer m.Unlock()` keeps the section held to the end
// of the function. Branch bodies inherit the current state but do not
// propagate theirs (an early-unlock-and-return branch therefore stays
// precise). Deferred calls and goroutine bodies are not attributed to
// the critical section.
var LockScope = &Analyzer{
	Name:       lockScopeName,
	Doc:        "no I/O, channel operations, or lock-acquiring calls while holding a mutex in internal/metrics or internal/trace",
	RunProgram: runLockScope,
}

const lockScopeName = "lockscope"

// lockScopePackages are the packages whose critical sections are
// checked, matched by import-path suffix (fixtures use the bare name).
var lockScopePackages = []string{
	"internal/metrics",
	"internal/trace",
}

func isLockScopePackage(path string) bool {
	for _, e := range lockScopePackages {
		if path == e || strings.HasSuffix(path, "/"+e) || strings.HasSuffix(e, "/"+path) {
			return true
		}
	}
	return false
}

func runLockScope(pass *ProgramPass) error {
	acquirers := lockAcquirers(pass.Prog)
	for _, pkg := range pass.Prog.Packages {
		if !isLockScopePackage(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				s := &lockScanner{pass: pass, pkg: pkg, acquirers: acquirers, self: funcKey(pkg, fd)}
				s.block(fd.Body.List, 0)
			}
		}
	}
	return nil
}

// lockAcquirers maps qualified function names to whether their body
// directly acquires a sync lock — the "calls into other locking
// packages" half of the check.
func lockAcquirers(prog *Program) map[string]bool {
	out := map[string]bool{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				acquires := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if kind := syncLockKind(pkg, call); kind == lockAcquire {
							acquires = true
						}
					}
					return !acquires
				})
				out[funcKey(pkg, fd)] = acquires
			}
		}
	}
	return out
}

func funcKey(pkg *PackageInfo, fd *ast.FuncDecl) string {
	if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		return qualifiedName(fn)
	}
	return pkg.Path + "." + fd.Name.Name
}

type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

// syncLockKind classifies a call as a sync.(RW)Mutex acquire/release.
func syncLockKind(pkg *PackageInfo, call *ast.CallExpr) lockKind {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockNone
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockNone
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return lockAcquire
	case "Unlock", "RUnlock":
		return lockRelease
	}
	return lockNone
}

// lockScanner walks one function body tracking the held count.
type lockScanner struct {
	pass      *ProgramPass
	pkg       *PackageInfo
	acquirers map[string]bool
	self      string
}

// block scans a statement sequence, returning the held count after it.
func (s *lockScanner) block(stmts []ast.Stmt, held int) int {
	for _, stmt := range stmts {
		held = s.stmt(stmt, held)
	}
	return held
}

// stmt scans one statement and returns the held count after it.
// Branch bodies inherit the current count but do not propagate theirs.
func (s *lockScanner) stmt(stmt ast.Stmt, held int) int {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			switch syncLockKind(s.pkg, call) {
			case lockAcquire:
				return held + 1
			case lockRelease:
				if held > 0 {
					return held - 1
				}
				return 0
			}
		}
		s.checkExpr(st.X, held)
	case *ast.DeferStmt:
		// `defer m.Unlock()` holds to function end; other deferred work
		// runs outside the scanned order and is not attributed.
	case *ast.GoStmt:
		// The spawned goroutine does not run under this critical section.
	case *ast.SendStmt:
		if held > 0 {
			s.pass.Reportf(st.Pos(), "channel send while holding a lock in %s — move channel traffic outside the critical section", s.pkg.Pkg.Name())
		}
		s.checkExpr(st.Value, held)
	case *ast.SelectStmt:
		if held > 0 {
			s.pass.Reportf(st.Pos(), "select while holding a lock in %s — move channel traffic outside the critical section", s.pkg.Pkg.Name())
		}
	case *ast.BlockStmt:
		s.block(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		s.checkExpr(st.Cond, held)
		s.block(st.Body.List, held)
		if st.Else != nil {
			s.stmt(st.Else, held)
		}
	case *ast.ForStmt:
		if st.Cond != nil {
			s.checkExpr(st.Cond, held)
		}
		s.block(st.Body.List, held)
	case *ast.RangeStmt:
		s.checkExpr(st.X, held)
		s.block(st.Body.List, held)
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, held)
			}
		}
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			s.checkExpr(rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.checkExpr(r, held)
		}
	case *ast.DeclStmt:
		// const/var declarations are pure.
	}
	return held
}

// checkExpr reports I/O calls, channel receives and lock-acquiring
// callees inside an expression evaluated while a lock is held.
func (s *lockScanner) checkExpr(expr ast.Expr, held int) {
	if held <= 0 || expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false // runs later, not under this critical section
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				s.pass.Reportf(e.Pos(), "channel receive while holding a lock in %s — move channel traffic outside the critical section", s.pkg.Pkg.Name())
			}
		case *ast.CallExpr:
			s.checkCall(e)
		}
		return true
	})
}

func (s *lockScanner) checkCall(call *ast.CallExpr) {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = s.pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = s.pkg.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if ioPackages[path] && !ioAllow[path+"."+fn.Name()] {
		s.pass.Reportf(call.Pos(), "%s called while holding a lock in %s — do I/O outside the critical section (copy under the lock, write after unlock)",
			shortFuncName(qualifiedName(fn)), s.pkg.Pkg.Name())
		return
	}
	if path == "sync" {
		return // the scanner models these at statement level
	}
	key := qualifiedName(fn)
	if key != s.self && s.pass.Prog.isLocalPkg(path) && s.acquirers[key] {
		s.pass.Reportf(call.Pos(), "%s acquires a lock and is called while %s already holds one — nested critical sections across packages invite deadlock",
			shortFuncName(key), s.pkg.Pkg.Name())
	}
}
