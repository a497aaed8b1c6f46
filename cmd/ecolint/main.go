// Command ecolint runs the project's analyzer suite (internal/lint):
// nodeterminism, ctxflow, hotpathio, lockscope, metricname, eventpool.
//
//	ecolint [module-dir]
//
// It loads every package of the module rooted at module-dir (default
// "."), runs every analyzer over the whole program, prints the findings
// and then the suppression-debt ledger: how many findings each
// analyzer's lint:ignore directives currently absorb. A directive
// without a reason, and a reasoned one that no longer suppresses
// anything, are themselves findings, so debt can only shrink. There are
// no flags; this is what `make lint` runs and what TestModuleClean
// checks.
//
// Exit status: 0 clean, 1 usage or load failure, 2 diagnostics found.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ecosched/internal/lint"
)

func main() {
	root := "."
	if args := os.Args[1:]; len(args) == 1 {
		root = args[0]
	} else if len(args) > 1 {
		usage("too many arguments")
	}
	// There are no flags: anything that is not a module root (-debt, a
	// vet *.cfg file) is a usage error, not a load failure.
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		usage(fmt.Sprintf("%s is not a module directory (%v)", root, err))
	}
	os.Exit(run(root))
}

func usage(problem string) {
	fmt.Fprintf(os.Stderr, "ecolint: %s\nusage: ecolint [module-dir]\n\nAnalyzers:\n", problem)
	for _, a := range lint.All() {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
	}
	os.Exit(1)
}

func run(root string) int {
	prog, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecolint: %v\n", err)
		return 1
	}
	diags, debt := lint.Run(prog, lint.All())
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	// The ledger: what each analyzer's directives currently absorb.
	// Zero-hit (stale) directives are findings, so they appear above.
	fmt.Fprintf(os.Stderr, "suppression debt: %d finding(s) absorbed by lint:ignore directives\n", debt.Total)
	names := make([]string, 0, len(debt.ByAnalyzer))
	for name := range debt.ByAnalyzer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-16s %d\n", name, debt.ByAnalyzer[name])
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ecolint: %d finding(s)\n", len(diags))
		return 2
	}
	return 0
}
