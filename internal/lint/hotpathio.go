package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotPathIO enforces the paper's submit-latency budget structurally:
// nothing statically reachable from PredictService.Predict on a cache
// hit may perform file or network I/O. The cold/preloaded miss path
// lives behind (*PredictService).load — it is budget-gated at runtime
// by SchedulerParameters=eco_budget — so the traversal stops there;
// everything else the plugin touches between sbatch and the answer
// must stay pure CPU. That includes tracing: the tracer's record path
// only enqueues for the async drainer, so the journal append is not on
// this call graph and no directive waives anything today.
//
// The check walks the static call graph: direct calls and method calls
// on concrete types, across packages. Calls through function values
// and through interfaces are not resolvable statically; the
// I/O-bearing integration interfaces (Repository, blob.Store,
// settings.Store, procfs.FileReader) are therefore denied by name —
// invoking any of their methods from the hot path is a violation even
// though the concrete implementation is unknown.
var HotPathIO = &Analyzer{
	Name:       hotPathIOName,
	Doc:        "no file/network I/O reachable from PredictService.Predict on a cache hit",
	RunProgram: runHotPathIO,
}

const hotPathIOName = "hotpathio"

// hotPathRoots and hotPathStops configure the traversal, matched as
// suffixes of the qualified function name so analysistest fixtures
// (whose package paths differ) exercise the same defaults.
var (
	hotPathRoots = []string{"PredictService).Predict"}
	hotPathStops = []string{"PredictService).load"}
)

// ioDenyInterfaces are module interfaces whose methods do I/O by
// contract, matched by suffix of "pkgpath.InterfaceName".
var ioDenyInterfaces = []string{
	"repository.Repository",
	"blob.Store",
	"settings.Store",
	"procfs.FileReader",
}

// ioPackages are the standard-library packages whose functions and
// methods count as file/network I/O.
var ioPackages = map[string]bool{
	"os":           true,
	"net":          true,
	"net/http":     true,
	"os/exec":      true,
	"syscall":      true,
	"io/ioutil":    true,
	"database/sql": true,
}

// ioAllow are os functions that only inspect process state.
var ioAllow = map[string]bool{
	"os.Getenv": true, "os.LookupEnv": true, "os.Environ": true,
	"os.Getpid": true, "os.Getuid": true, "os.Geteuid": true, "os.Getgid": true,
	"os.IsNotExist": true, "os.IsExist": true, "os.IsPermission": true, "os.IsTimeout": true,
}

// callSite is one flagged operation inside a function.
type callSite struct {
	pos  token.Pos
	desc string
}

// funcNode is one function's call-graph summary.
type funcNode struct {
	key        string
	decl       *ast.FuncDecl
	calls      []callSite // desc = callee key
	ioSites    []callSite // direct I/O operations
	ifaceSites []callSite // calls on denied I/O interfaces
	suppressed bool
}

func runHotPathIO(pass *ProgramPass) error {
	graph := buildCallGraph(pass.Prog)

	var roots []string
	for key := range graph {
		if matchesAnySuffix(key, hotPathRoots) {
			roots = append(roots, key)
		}
	}
	sort.Strings(roots)

	for _, root := range roots {
		walkHotPath(pass, graph, root)
	}
	return nil
}

// walkHotPath BFSes the static call graph from root, reporting every
// I/O site reached and recording the call chain for the diagnostic.
func walkHotPath(pass *ProgramPass, graph map[string]*funcNode, root string) {
	parent := map[string]string{root: ""}
	queue := []string{root}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		node := graph[key]
		if node == nil || matchesAnySuffix(key, hotPathStops) {
			continue
		}
		if node.suppressed {
			// The directive made this function opaque to the traversal —
			// record the ledger hit so it is not condemned as stale.
			pass.Prog.packageAt(node.decl.Pos()).markFuncSuppression(node.decl, pass.Analyzer.Name)
			continue
		}
		for _, io := range node.ioSites {
			pass.Reportf(io.pos, "hot path: %s is reachable from %s on a cache hit (%s) but performs I/O: %s — the submit budget allows no file/network I/O here",
				shortFuncName(key), shortFuncName(root), chain(parent, key), io.desc)
		}
		for _, ic := range node.ifaceSites {
			pass.Reportf(ic.pos, "hot path: %s is reachable from %s on a cache hit (%s) but calls I/O interface %s — the submit budget allows no file/network I/O here",
				shortFuncName(key), shortFuncName(root), chain(parent, key), ic.desc)
		}
		for _, call := range node.calls {
			if _, seen := parent[call.desc]; seen {
				continue
			}
			parent[call.desc] = key
			queue = append(queue, call.desc)
		}
	}
}

// chain renders the BFS path root → … → key for diagnostics.
func chain(parent map[string]string, key string) string {
	var parts []string
	for k := key; k != ""; k = parent[k] {
		parts = append(parts, shortFuncName(k))
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " → ")
}

// buildCallGraph summarises every function declaration in the program.
// A hotpathio lint:ignore directive in a function's doc comment makes
// its body opaque to the traversal.
func buildCallGraph(prog *Program) map[string]*funcNode {
	graph := map[string]*funcNode{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{
					key:        qualifiedName(fn),
					decl:       fd,
					suppressed: FuncSuppressed(fd, hotPathIOName),
				}
				summarizeBody(prog, pkg, fd, node)
				graph[node.key] = node
			}
		}
	}
	return graph
}

// summarizeBody records the static calls, I/O operations and denied
// interface calls of one function body (including nested literals).
func summarizeBody(prog *Program, pkg *PackageInfo, fd *ast.FuncDecl, node *funcNode) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		var fn *types.Func
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			fn, _ = pkg.Info.Uses[fun].(*types.Func)
		case *ast.SelectorExpr:
			fn, _ = pkg.Info.Uses[fun.Sel].(*types.Func)
		}
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		full := qualifiedName(fn)

		// Interface method call?
		if isSel {
			if selection, ok := pkg.Info.Selections[sel]; ok && types.IsInterface(selection.Recv()) {
				if name := namedInterface(selection.Recv()); name != "" && matchesAnySuffix(name, ioDenyInterfaces) {
					node.ifaceSites = append(node.ifaceSites, callSite{call.Pos(), name + "." + fn.Name()})
				}
				return true // interface edges are otherwise unresolvable
			}
		}

		if ioPackages[fn.Pkg().Path()] && !ioAllow[fn.Pkg().Path()+"."+fn.Name()] {
			node.ioSites = append(node.ioSites, callSite{call.Pos(), shortFuncName(full)})
			return true
		}
		if prog.isLocalPkg(fn.Pkg().Path()) {
			node.calls = append(node.calls, callSite{call.Pos(), full})
		}
		return true
	})
}

// namedInterface renders a named interface type as "pkgpath.Name", or
// "" for anonymous interfaces.
func namedInterface(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// matchesAnySuffix reports whether s ends with any of the entries
// (entry == s also matches).
func matchesAnySuffix(s string, entries []string) bool {
	for _, e := range entries {
		if s == e || strings.HasSuffix(s, e) {
			return true
		}
	}
	return false
}
