package main

import (
	"bytes"
	"os"
	"testing"
)

// Each experiment selector must run end to end. The heavyweight sweep
// selectors are grouped to avoid regenerating the 138-run sweep per
// subtest.
func TestExperimentSelectors(t *testing.T) {
	for _, exp := range []string{"fig1", "table2", "eq1", "ablation-preload"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(exp); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestExperimentSweepSelectors(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep selectors skipped in -short mode")
	}
	for _, exp := range []string{"table1", "ablation-optimizer"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(exp); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run("tablex"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// An experiment's output is a pure function of the tree: two runs of
// the optimizer ablation, sweep and metrics included, print the same
// bytes.
func TestExperimentOutputIsByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep selectors skipped in -short mode")
	}
	capture := func() []byte {
		t.Helper()
		f, err := os.CreateTemp(t.TempDir(), "stdout")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		stdout := os.Stdout
		os.Stdout = f
		err = run("ablation-optimizer")
		os.Stdout = stdout
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first, second := capture(), capture()
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs printed different output:\n%s\n---\n%s", first, second)
	}
	if !bytes.Contains(first, []byte("Deployment metrics:")) {
		t.Fatalf("output has no metrics snapshot:\n%s", first)
	}
}
