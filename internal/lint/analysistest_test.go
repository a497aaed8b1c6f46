package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// analyzerTest is a miniature analysistest: it loads the named fixture
// packages from testdata/src/<root>/<pkg>, runs the analyzers over
// them as one program, and matches every diagnostic against
// `// want "regexp"` comments on the same line. Unexpected diagnostics
// and unmatched expectations both fail the test, so fixtures exercise
// positive and negative cases in the same files.
//
// Each analyzer owns one root directory, and within it fixture
// packages import each other by bare directory name (GOPATH-style):
// testdata/src/hotpathio/hotpath may `import "blob"` and the loader
// resolves it to testdata/src/hotpathio/blob. The bare names matter:
// the analyzers match their target packages by import-path suffix, so
// a fixture named "metrics" exercises the same configuration as the
// real ecosched/internal/metrics.
func analyzerTest(t *testing.T, analyzers []*Analyzer, root string, pkgs ...string) {
	t.Helper()
	prog, err := loadFixtures(root, pkgs)
	if err != nil {
		t.Fatalf("loading fixtures %s/%v: %v", root, pkgs, err)
	}

	diags, _ := Run(prog, analyzers)
	wants := collectWants(t, prog)

	for _, d := range diags {
		key := posKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, w := range wants[key] {
			if w.rx.MatchString(d.Message) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	var missed []string
	for key, ws := range wants {
		for _, w := range ws {
			missed = append(missed, fmt.Sprintf("%s:%d: no diagnostic matching %q", key.file, key.line, w.rx))
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Errorf("expectation not met:\n  %s", m)
	}
}

type posKey struct {
	file string
	line int
}

type wantExpectation struct {
	rx *regexp.Regexp
}

// wantRx matches the trailing want clause of a comment; the quoted
// regexps after it are extracted by quotedRx.
var (
	wantRx   = regexp.MustCompile(`//\s*want\s+(.*)$`)
	quotedRx = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")
)

// collectWants parses the `// want` expectations of every fixture file.
func collectWants(t *testing.T, prog *Program) map[posKey][]wantExpectation {
	t.Helper()
	out := map[posKey][]wantExpectation{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRx.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, q := range quotedRx.FindAllString(m[1], -1) {
						pattern, err := unquoteWant(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						}
						rx, err := regexp.Compile(pattern)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, q, err)
						}
						key := posKey{pos.Filename, pos.Line}
						out[key] = append(out[key], wantExpectation{rx})
					}
				}
			}
		}
	}
	return out
}

func unquoteWant(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}

// Diagnostics is a test helper that loads fixture packages and returns
// the raw findings, for tests asserting on counts or exact ordering.
func Diagnostics(t *testing.T, analyzers []*Analyzer, root string, pkgs ...string) []Diagnostic {
	t.Helper()
	prog, err := loadFixtures(root, pkgs)
	if err != nil {
		t.Fatalf("loading fixtures %s/%v: %v", root, pkgs, err)
	}
	diags, _ := Run(prog, analyzers)
	return diags
}

func loadFixtures(root string, pkgs []string) (*Program, error) {
	dirs := map[string]string{}
	for _, p := range pkgs {
		dirs[p] = filepath.Join("testdata", "src", root, filepath.FromSlash(p))
	}
	return LoadDirs(dirs)
}
