package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// PackageInfo is one loaded, type-checked package.
type PackageInfo struct {
	Path  string // import path
	Dir   string
	Files []*ast.File // non-test files, file-name order
	Pkg   *types.Package
	Info  *types.Info

	suppressions map[string][]suppression // filename -> directives
}

// Program is the loaded module (or fixture set): every package
// type-checked, in dependency order.
type Program struct {
	Fset     *token.FileSet // the process-wide loadFset
	Packages []*PackageInfo // topological order (dependencies first)
	ByPath   map[string]*PackageInfo
}

// Every load shares one FileSet and one source importer, so a process
// type-checks each standard-library package from source once, however
// many programs it loads. The importer is not safe for concurrent use,
// so loads take loadMu.
var (
	loadMu   sync.Mutex
	loadFset = token.NewFileSet()
	stdlib   = importer.ForCompiler(loadFset, "source", nil)
)

// LoadModule loads every package of the Go module rooted at root
// (identified by its go.mod), excluding _test.go files and testdata
// trees, and type-checks them against the standard library.
func LoadModule(root string) (*Program, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs := map[string]string{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				ip := modPath
				if rel != "." {
					ip = modPath + "/" + filepath.ToSlash(rel)
				}
				dirs[ip] = path
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return LoadDirs(dirs)
}

// LoadDirs parses and type-checks the given packages (import path →
// directory). Imports are resolved among the given set first; anything
// else is loaded from the standard library source.
func LoadDirs(dirs map[string]string) (*Program, error) {
	loadMu.Lock()
	defer loadMu.Unlock()
	prog := &Program{Fset: loadFset, ByPath: map[string]*PackageInfo{}}

	// Parse everything first so the import graph is known.
	parsed := map[string]*PackageInfo{}
	for ip, dir := range dirs {
		pkg, err := parsePackage(prog.Fset, ip, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			parsed[ip] = pkg
		}
	}

	order, err := topoSort(parsed)
	if err != nil {
		return nil, err
	}

	chained := chainImporter{}
	for _, pkg := range order {
		conf := types.Config{Importer: chained}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tpkg, err := conf.Check(pkg.Path, prog.Fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
		}
		pkg.Pkg, pkg.Info = tpkg, info
		chained[pkg.Path] = tpkg
		prog.Packages = append(prog.Packages, pkg)
		prog.ByPath[pkg.Path] = pkg
	}
	return prog, nil
}

// parsePackage parses the non-test .go files of one directory that
// belong to the build under the host GOOS/GOARCH — go/build applies
// the _GOOS/_GOARCH filename convention and //go:build lines, so a
// //go:build ignore tool or a foreign-platform stub never reaches the
// type-checker. A directory with only test files yields nil.
func parsePackage(fset *token.FileSet, importPath, dir string) (*PackageInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &PackageInfo{Path: importPath, Dir: dir, suppressions: map[string][]suppression{}}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.suppressions[path] = buildSuppressions(fset, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// topoSort orders packages dependencies-first, considering only
// imports that resolve within the set.
func topoSort(pkgs map[string]*PackageInfo) ([]*PackageInfo, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*PackageInfo
	var visit func(ip string) error
	visit = func(ip string) error {
		switch state[ip] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", ip)
		}
		state[ip] = visiting
		pkg := pkgs[ip]
		deps := map[string]bool{}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				dep := strings.Trim(imp.Path.Value, `"`)
				if _, ok := pkgs[dep]; ok {
					deps[dep] = true
				}
			}
		}
		sorted := make([]string, 0, len(deps))
		for dep := range deps {
			sorted = append(sorted, dep)
		}
		sort.Strings(sorted)
		for _, dep := range sorted {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[ip] = done
		order = append(order, pkg)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for ip := range pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// chainImporter resolves module-local packages from the checked set
// and everything else (the standard library) through stdlib.
type chainImporter map[string]*types.Package

func (local chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := local[path]; ok {
		return p, nil
	}
	return stdlib.Import(path)
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}
