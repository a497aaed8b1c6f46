package lint

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose backticked spans must resolve.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestDocReferencesResolve: every backticked reference in docFiles
// names something the tree has, and every DESIGN section citation
// names a section DESIGN.md has. Fenced code blocks are not read.
//
// A span is prose, and skipped, when it contains any of < * { =, or
// white space and is not a make, go or chronus command. There is no
// allow-list: a reference to something that is gone is rewritten.
// Every other span must resolve:
//
//   - make T…: each T is a rule of the Makefile.
//   - go …: each argument that starts with "." is a directory of the
//     tree (under -C dir when given); after go run, each -flag is one
//     a command under cmd/ declares.
//   - chronus …: each -flag is one a command under cmd/ declares; the
//     subcommand, the first word not after a flag (alternatives split
//     on |), is a string literal of the module; a word with a / is a
//     path.
//   - -flag alone: a command under cmd/ declares it with the flag
//     package.
//   - anything else is one of: a Go identifier, bare or qualified by
//     its package and type (pkg.Name, Type.Method, pkg.Type.Field; a
//     trailing (…) is dropped), declared in the module's code or test
//     files, or exported by a standard package the module imports; a
//     path of the tree, with an optional :line or :from–to that must
//     lie within the file, or a standard-library import path; a bare
//     file name exactly one file of the tree has, with the same
//     optional line; a string literal or struct-tag name of the
//     module's non-test code (spec keys, conf keys, metric names,
//     subcommands, HTTP paths); or a name in BENCHMARK.json.
//
// Section citations, DESIGN §N or DESIGN.md §N, are checked in every
// Go file of the tree, in docFiles and in ROADMAP.md, whose planned
// names are not checked otherwise. CHANGES.md is a dated log whose
// citations name the DESIGN of their day, and is not read.
func TestDocReferencesResolve(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("whole-module type-check is slow under -short")
	}
	prog, err := loadSelf()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	const root = "../.."
	tree, err := newDocTree(root, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docFiles {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range backtickSpans(string(text)) {
			if why := tree.resolve(sp.text); why != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, sp.line, sp.text, why)
			}
		}
	}

	sections := map[string]bool{}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	cited := append([]string{"ROADMAP.md"}, docFiles...)
	for f := range tree.files {
		if strings.HasSuffix(f, ".go") {
			cited = append(cited, f)
		}
	}
	for _, f := range cited {
		text, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range designCitation.FindAllStringSubmatch(line, -1) {
				if !sections[m[1]] {
					t.Errorf("%s:%d: %s cites a section DESIGN.md does not have", f, i+1, m[0])
				}
			}
		}
	}
}

var (
	designHeading  = regexp.MustCompile(`(?m)^## (\d+)\. `)
	designCitation = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)`)
	makeRule       = regexp.MustCompile(`(?m)^([a-z][\w -]*):(?:[^=]|$)`)
	lineSuffix     = regexp.MustCompile(`^(.+?):(\d+)(?:[–-](\d+))?$`)
	callSuffix     = regexp.MustCompile(`^([\w.]+)\(.*\)$`)
	flagWord       = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
	tagName        = regexp.MustCompile(`(\w+):"([^",]*)`)
	flagDecl       = map[string]int{"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0, "BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1}
)

type docSpan struct {
	text string
	line int
}

// backtickSpans returns the inline code spans of a Markdown text
// outside fenced blocks, with the line each opens on. A span may
// continue onto the next line, as Markdown allows.
func backtickSpans(text string) []docSpan {
	var spans []docSpan
	lines := strings.Split(text, "\n")
	fenced := false
	for i := 0; i < len(lines); i++ {
		if strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		rest, line := lines[i], i+1
		for {
			open := strings.IndexByte(rest, '`')
			if open < 0 {
				break
			}
			rest = rest[open+1:]
			end := strings.IndexByte(rest, '`')
			if end < 0 && i+1 < len(lines) {
				i++
				rest += " " + lines[i]
				end = strings.IndexByte(rest, '`')
			}
			if end < 0 {
				break
			}
			spans = append(spans, docSpan{rest[:end], line})
			rest = rest[end+1:]
		}
	}
	return spans
}

// docTree is what a document reference may name.
type docTree struct {
	root     string
	files    map[string]bool           // every file of the tree, root-relative, slash-separated
	byBase   map[string][]string       // file name → the files with it
	idents   map[string]bool           // Name, pkg.Name, Type.Member, pkg.Type.Member
	std      map[string]*types.Package // import path → standard package
	literals map[string]bool           // string literals and struct-tag names of non-test code
	flags    map[string]bool           // -flags the commands under cmd/ declare
	rules    map[string]bool           // Makefile rules
	bench    map[string]bool           // BENCHMARK.json names
}

func newDocTree(root string, prog *Program) (*docTree, error) {
	t := &docTree{
		root: root, files: map[string]bool{}, byBase: map[string][]string{},
		idents: map[string]bool{}, std: map[string]*types.Package{},
		literals: map[string]bool{}, flags: map[string]bool{},
		rules: map[string]bool{}, bench: map[string]bool{},
	}
	if err := t.walk(); err != nil {
		return nil, err
	}
	for _, pkg := range prog.Packages {
		t.indexPackage(pkg)
	}
	for f := range t.files {
		if strings.HasSuffix(f, "_test.go") && !strings.Contains(f, "testdata/") {
			if err := t.indexTestFile(f); err != nil {
				return nil, err
			}
		}
	}
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, err
	}
	for _, m := range makeRule.FindAllStringSubmatch(string(mk), -1) {
		for _, target := range strings.Fields(m[1]) {
			t.rules[target] = true
		}
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bench map[string]json.RawMessage
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, err
	}
	for _, v := range bench {
		var named []struct{ Name string }
		if json.Unmarshal(v, &named) == nil {
			for _, n := range named {
				t.bench[n.Name] = true
			}
		}
	}
	return t, nil
}

// walk lists the tree's files, leaving out .git and the directories
// .gitignore names.
func (t *docTree) walk() error {
	ignored := map[string]bool{".git": true}
	if gi, err := os.ReadFile(filepath.Join(t.root, ".gitignore")); err == nil {
		for _, line := range strings.Split(string(gi), "\n") {
			if dir, ok := strings.CutSuffix(strings.TrimSpace(line), "/"); ok {
				ignored[dir] = true
			}
		}
	}
	return filepath.WalkDir(t.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(t.root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if ignored[rel] {
				return filepath.SkipDir
			}
			return nil
		}
		t.files[rel] = true
		t.byBase[d.Name()] = append(t.byBase[d.Name()], rel)
		return nil
	})
}

// indexPackage adds a type-checked package's declarations, the
// standard packages it reaches, its literals and, under cmd/, its
// flags.
func (t *docTree) indexPackage(pkg *PackageInfo) {
	label := path.Base(pkg.Path)
	t.idents[label] = true
	scope := pkg.Pkg.Scope()
	for _, name := range scope.Names() {
		t.idents[name], t.idents[label+"."+name] = true, true
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		member := func(owner, m string) {
			t.idents[m], t.idents[owner+"."+m], t.idents[label+"."+owner+"."+m] = true, true, true
		}
		if named, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				member(name, named.Method(i).Name())
			}
		}
		// Fields of a struct-typed field (a record kept inline) are
		// members of that field.
		var fields func(owner string, st *types.Struct)
		fields = func(owner string, st *types.Struct) {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				member(owner, f.Name())
				if inner, ok := f.Type().(*types.Struct); ok {
					fields(f.Name(), inner)
				}
			}
		}
		switch u := tn.Type().Underlying().(type) {
		case *types.Struct:
			fields(name, u)
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				member(name, u.Method(i).Name())
			}
		}
	}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p.Path() == "ecosched" || strings.HasPrefix(p.Path(), "ecosched/") || t.std[p.Path()] != nil {
			return
		}
		t.std[p.Path()] = p
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, imp := range pkg.Pkg.Imports() {
		visit(imp)
	}
	cmd := strings.Contains(pkg.Path, "/cmd/")
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					if s, err := strconv.Unquote(n.Value); err == nil {
						t.literals[s] = true
					}
				}
			case *ast.Field:
				if n.Tag != nil {
					for _, m := range tagName.FindAllStringSubmatch(n.Tag.Value, -1) {
						t.literals[m[2]] = true
					}
				}
			case *ast.CallExpr:
				if cmd {
					t.declaredFlag(pkg.Info, n)
				}
			}
			return true
		})
	}
}

// declaredFlag records the name a call to the flag package declares.
func (t *docTree) declaredFlag(info *types.Info, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	arg, declares := flagDecl[sel.Sel.Name]
	if !ok || !declares || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || len(call.Args) <= arg {
		return
	}
	if lit, ok := call.Args[arg].(*ast.BasicLit); ok {
		if name, err := strconv.Unquote(lit.Value); err == nil {
			t.flags["-"+name] = true
		}
	}
}

// indexTestFile adds the declarations of a _test.go file, parsed but
// not type-checked: functions, types with their fields and methods,
// variables and constants.
func (t *docTree) indexTestFile(rel string) error {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(t.root, rel), nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	label := path.Base(path.Dir(rel))
	if label == "." {
		label = "ecosched"
	}
	add := func(owner, name string) {
		if owner != "" {
			t.idents[owner+"."+name], t.idents[label+"."+owner+"."+name] = true, true
		}
		t.idents[name], t.idents[label+"."+name] = true, true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			owner := ""
			if d.Recv != nil && len(d.Recv.List) == 1 {
				typ := d.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					owner = id.Name
				}
			}
			add(owner, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add("", s.Name.Name)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								add(s.Name.Name, n.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add("", n.Name)
					}
				}
			}
		}
	}
	return nil
}

// resolve returns "" when a span is prose or names something the tree
// has, and otherwise why it does not.
func (t *docTree) resolve(s string) string {
	if strings.ContainsAny(s, "<*{=") {
		return ""
	}
	if words := strings.Fields(s); len(words) > 1 {
		switch words[0] {
		case "make":
			for _, w := range words[1:] {
				if !t.rules[w] {
					return "no Makefile rule " + w
				}
			}
		case "go":
			return t.goCommand(words[1:])
		case "chronus":
			return t.chronusCommand(words[1:])
		}
		return ""
	}
	if flagWord.MatchString(s) {
		if !t.flags[s] {
			return "no command under cmd/ declares " + s
		}
		return ""
	}
	if t.ident(s) || t.path(s) || t.literals[s] || t.bench[s] {
		return ""
	}
	return "names no Go identifier, path, string literal or BENCHMARK.json name"
}

func (t *docTree) goCommand(args []string) string {
	dir := "."
	for i, w := range args {
		switch {
		case w == "-C" && i+1 < len(args):
			dir = args[i+1]
		case strings.HasPrefix(w, "."):
			if p := path.Join(dir, strings.TrimSuffix(w, "...")); p != "." && !t.dir(p) {
				return "no directory " + p
			}
			if args[0] == "run" {
				for _, f := range args[i+1:] {
					if flagWord.MatchString(f) && !t.flags[f] {
						return "no command under cmd/ declares " + f
					}
				}
				return ""
			}
		}
	}
	return ""
}

func (t *docTree) chronusCommand(args []string) string {
	sub := false
	for i, w := range args {
		switch {
		case strings.HasPrefix(w, "-"):
			if !t.flags[w] {
				return "no command under cmd/ declares " + w
			}
		case strings.Contains(w, "/"):
			if !t.path(w) {
				return "no path " + w
			}
		case !sub && (i == 0 || !strings.HasPrefix(args[i-1], "-")):
			sub = true
			for _, name := range strings.Split(w, "|") {
				if !t.literals[name] {
					return "no chronus subcommand " + name
				}
			}
		}
	}
	return ""
}

// ident reports whether s names a declaration of the module or of a
// standard package it imports.
func (t *docTree) ident(s string) bool {
	if m := callSuffix.FindStringSubmatch(s); m != nil {
		s = m[1]
	}
	if t.idents[s] || token.Lookup(s).IsKeyword() || types.Universe.Lookup(s) != nil {
		return true
	}
	parts := strings.Split(s, ".")
	if len(parts) < 2 || len(parts) > 3 {
		return false
	}
	for _, pkg := range t.std {
		if pkg.Name() != parts[0] {
			continue
		}
		obj := pkg.Scope().Lookup(parts[1])
		if obj == nil || !obj.Exported() {
			continue
		}
		if len(parts) == 2 {
			return true
		}
		if member, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, parts[2]); member != nil {
			return true
		}
	}
	return false
}

// path reports whether s, less an optional line suffix, is a file or
// directory of the tree, a file name exactly one file has, or a
// standard-library import path; a line must lie within the file.
func (t *docTree) path(s string) bool {
	p, from, to := s, 0, 0
	if m := lineSuffix.FindStringSubmatch(s); m != nil {
		p = m[1]
		from, _ = strconv.Atoi(m[2])
		to = from
		if m[3] != "" {
			to, _ = strconv.Atoi(m[3])
		}
	}
	if !strings.Contains(p, "/") {
		if len(t.byBase[p]) != 1 {
			return false
		}
		p = t.byBase[p][0]
	}
	p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
	if !t.files[p] {
		if from != 0 {
			return false
		}
		if t.dir(p) {
			return true
		}
		fi, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", p))
		return err == nil && fi.IsDir()
	}
	if from == 0 {
		return true
	}
	text, err := os.ReadFile(filepath.Join(t.root, p))
	return err == nil && from >= 1 && from <= to && to <= strings.Count(string(text), "\n")
}

// dir reports whether p is a directory of the tree.
func (t *docTree) dir(p string) bool {
	for f := range t.files {
		if strings.HasPrefix(f, p+"/") {
			return true
		}
	}
	return false
}
