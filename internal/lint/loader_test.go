package lint

import (
	"runtime"
	"strings"
	"testing"
)

// TestLoaderGenerics: generic declarations, methods on parameterized
// types, and inferred instantiations all type-check, and the analyzer
// suite runs over them without tripping on type-parameter objects.
func TestLoaderGenerics(t *testing.T) {
	prog, err := loadFixtures("loader", []string{"generics"})
	if err != nil {
		t.Fatalf("loading generics fixture: %v", err)
	}
	pkg, ok := prog.ByPath["generics"]
	if !ok {
		t.Fatal("generics package not loaded")
	}
	if pkg.Pkg.Scope().Lookup("Sum") == nil || pkg.Pkg.Scope().Lookup("Pair") == nil {
		t.Error("generic declarations missing from the package scope")
	}
	if diags, _ := Run(prog, All()); len(diags) != 0 {
		t.Errorf("analyzers over generic code reported: %v", diags)
	}
}

// TestLoaderBuildTags: files excluded by //go:build lines or by the
// _GOOS/_GOARCH filename convention never reach the type-checker. The
// fixture makes inclusion fail loudly: every excluded file redeclares
// Current() with undefined references.
func TestLoaderBuildTags(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("fixture excludes windows-only files; meaningless on windows")
	}
	prog, err := loadFixtures("loader", []string{"buildtags"})
	if err != nil {
		t.Fatalf("loading buildtags fixture: %v", err)
	}
	pkg := prog.ByPath["buildtags"]
	if pkg == nil {
		t.Fatal("buildtags package not loaded")
	}
	if n := len(pkg.Files); n != 1 {
		files := []string{}
		for _, f := range pkg.Files {
			files = append(files, prog.Fset.Position(f.Pos()).Filename)
		}
		t.Errorf("want only the portable file, got %d: %v", n, files)
	}
}

// TestLoaderTestOnlyDir: a directory holding nothing but _test.go
// files yields no package at all.
func TestLoaderTestOnlyDir(t *testing.T) {
	prog, err := loadFixtures("loader", []string{"testonly"})
	if err != nil {
		t.Fatalf("loading testonly fixture: %v", err)
	}
	if _, ok := prog.ByPath["testonly"]; ok {
		t.Error("a test-only directory must not load as a package")
	}
	if len(prog.Packages) != 0 {
		t.Errorf("expected no packages, got %d", len(prog.Packages))
	}
}

// TestLoaderSyntaxError: a parse failure surfaces the offending file's
// position instead of panicking or dropping the file.
func TestLoaderSyntaxError(t *testing.T) {
	_, err := loadFixtures("loader", []string{"broken"})
	if err == nil {
		t.Fatal("expected a parse error from the broken fixture")
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("error does not name the broken file: %v", err)
	}
}
