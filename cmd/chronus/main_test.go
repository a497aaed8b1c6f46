package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The CLI is exercised through run(), with state persisting in a data
// directory across invocations — the property the real chronus relies
// on (database + settings on disk).

func TestCLIFullWorkflow(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "chronus-data")

	steps := [][]string{
		{"-data", data, "benchmark", "-quick"},
		{"-data", data, "init-model", "-model", "brute-force", "-system", "1"},
		{"-data", data, "load-model", "-model", "1"},
		{"-data", data, "set", "state", "active"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("chronus %v: %v", args, err)
		}
	}

	// The settings file must exist where the deployment keeps it.
	if _, err := os.Stat(filepath.Join(data, "etc", "chronus", "settings.json")); err != nil {
		t.Fatalf("settings not persisted: %v", err)
	}
	// The pre-loaded model must exist on "local disk".
	matches, _ := filepath.Glob(filepath.Join(data, "opt", "chronus", "optimizer", "model-*.json"))
	if len(matches) != 1 {
		t.Fatalf("pre-loaded models on disk: %v", matches)
	}
}

func TestCLIListModes(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	if err := run([]string{"-data", data, "benchmark", "-quick"}); err != nil {
		t.Fatal(err)
	}
	// Without --system / --model the commands list and exit zero.
	if err := run([]string{"-data", data, "init-model"}); err != nil {
		t.Fatalf("init-model list mode: %v", err)
	}
	if err := run([]string{"-data", data, "init-model", "-model", "brute-force", "-system", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", data, "load-model"}); err != nil {
		t.Fatalf("load-model list mode: %v", err)
	}
}

func TestCLISlurmConfig(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	for _, args := range [][]string{
		{"-data", data, "benchmark", "-quick"},
		{"-data", data, "init-model", "-model", "brute-force", "-system", "1"},
		{"-data", data, "load-model", "-model", "1"},
	} {
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	}
	// Wrong arity.
	if err := run([]string{"-data", data, "slurm-config", "onlyone"}); err == nil {
		t.Fatal("slurm-config with one arg accepted")
	}
	// Unknown hashes error cleanly.
	if err := run([]string{"-data", data, "slurm-config", "123", "456"}); err == nil {
		t.Fatal("slurm-config with unknown system accepted")
	}
}

func TestCLIErrors(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	cases := [][]string{
		{},
		{"-data", data, "frobnicate"},
		{"-data", data, "init-model", "-model", "perceptron", "-system", "1"},
		{"-data", data, "load-model", "-model", "99"},
		{"-data", data, "set", "state", "turbo"},
		{"-data", data, "set", "onlykey"},
		{"-data", data, "set", "unknown", "value"},
		{"-data", data, "benchmark", "-configurations", "/nonexistent.json"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("chronus %v succeeded, want error", args)
		}
	}
}

func TestCLIBenchmarkWithConfigFile(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	cfgPath := filepath.Join(dir, "configurations.json")
	// The paper's configuration JSON shape (§3.3).
	if err := os.WriteFile(cfgPath, []byte(`[
		{"cores": 32, "threads_per_core": 2, "frequency": 2200000},
		{"cores": 32, "threads_per_core": 1, "frequency": 2500000}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", data, "benchmark", "-configurations", cfgPath}); err != nil {
		t.Fatal(err)
	}
	// The two configurations were benchmarked: a model can be trained.
	if err := run([]string{"-data", data, "init-model", "-model", "brute-force", "-system", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIBenchmarkResume(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	if err := run([]string{"-data", data, "benchmark", "-quick"}); err != nil {
		t.Fatal(err)
	}
	// Resuming the same quick set skips everything.
	if err := run([]string{"-data", data, "benchmark", "-quick", "-resume"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLILoadgenAndSLO(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")

	out := captureStdout(t, func() error {
		return run([]string{"-data", data, "loadgen", "-n", "30", "-rate", "1000"})
	})
	for _, want := range []string{"loadgen     submit", "ops         30", "slo         "} {
		if !strings.Contains(out, want) {
			t.Fatalf("loadgen output lacks %q:\n%s", want, out)
		}
	}

	// The run's chain-latency buckets were persisted on Close, so the
	// stateless slo command can evaluate them afterwards.
	out = captureStdout(t, func() error {
		return run([]string{"-data", data, "slo"})
	})
	if !strings.Contains(out, "status      met") {
		t.Fatalf("slo output:\n%s", out)
	}

	if err := run([]string{"-data", data, "loadgen", "-mode", "bogus"}); err == nil {
		t.Fatal("loadgen -mode bogus accepted")
	}
	if err := run([]string{"-data", data, "slo", "-metric", "chronus.no.such"}); err == nil {
		t.Fatal("slo with unknown metric accepted")
	}
	if err := run([]string{"-data", filepath.Join(t.TempDir(), "empty"), "slo"}); err == nil {
		t.Fatal("slo with no metrics file accepted")
	}
}

// TestCLISimulate drives the one cluster-simulation CLI: a recorded
// run replays to the same report, a spec's policy block is the one way
// to state a policy (the retired per-policy flags are rejected for
// generated and replayed runs alike), and -record on a replay is a
// usage error rather than a report printed as if it applied.
func TestCLISimulate(t *testing.T) {
	spec := filepath.Join("..", "..", "specs", "race-smoke.json")
	log := filepath.Join(t.TempDir(), "run.jsonl")

	recorded := captureStdout(t, func() error {
		return run([]string{"simulate", "-spec", spec, "-record", log})
	})
	replayed := captureStdout(t, func() error {
		return run([]string{"simulate", "-replay", log})
	})
	if report, _, _ := strings.Cut(recorded, "recorded "); report != replayed {
		t.Fatalf("replay differs from the recorded run:\n%s\nvs\n%s", report, replayed)
	}

	capped := captureStdout(t, func() error {
		return run([]string{"simulate", "-spec", filepath.Join("..", "..", "specs", "powercap-smoke.json")})
	})
	if want := "\npolicies    powercap-freqcap+cosched+defer-price\n"; !strings.Contains(capped, want) {
		t.Fatalf("report does not name the spec's own policy block (%q):\n%s", want, capped)
	}

	usageErrors := [][]string{
		{"simulate"},
		{"simulate", "-spec", spec, "-replay", log},
		{"simulate", "-replay", log, "-record", log + ".2"},
	}
	for _, source := range [][]string{{"-spec", spec}, {"-replay", log}} {
		for _, retired := range [][]string{
			{"-power-cap", "5000"},
			{"-cap-mode", "wait"},
			{"-cosched"},
			{"-defer-signal", "price"},
			{"-defer-threshold", "0.1"},
			{"-defer-max", "1h"},
		} {
			usageErrors = append(usageErrors, slices.Concat([]string{"simulate"}, source, retired))
		}
	}
	for _, args := range usageErrors {
		if err := run(args); err == nil {
			t.Errorf("chronus %v succeeded, want a usage error", args)
		}
	}
}

// updateGolden regenerates the testdata golden files:
//
//	go test ./cmd/chronus -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed. run() writes command output to os.Stdout
// directly, so golden tests intercept it here.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", runErr, out)
	}
	return string(out)
}

// goldenData copies the handcrafted journal into a fresh data dir.
func goldenData(t *testing.T) string {
	t.Helper()
	data := t.TempDir()
	journal, err := os.ReadFile(filepath.Join("testdata", "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(data, "events.jsonl"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s mismatch (run with -update-golden to regenerate):\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

// TestCLITraceGolden pins the `chronus trace <job>` rendering: the
// indented span tree with durations, sorted attributes and quoted
// errors, for both a rewritten and a fallback submission.
func TestCLITraceGolden(t *testing.T) {
	data := goldenData(t)
	for job, golden := range map[string]string{
		"7": "trace_7.golden",
		"8": "trace_8.golden",
	} {
		out := captureStdout(t, func() error {
			return run([]string{"-data", data, "trace", job})
		})
		checkGolden(t, golden, out)
	}
}

// TestCLIEventsGolden pins the `chronus events` rendering: one line
// per journal event, RFC3339Nano UTC timestamps, kind, padded name,
// trace id, duration and attributes.
func TestCLIEventsGolden(t *testing.T) {
	data := goldenData(t)
	out := captureStdout(t, func() error {
		return run([]string{"-data", data, "events"})
	})
	checkGolden(t, "events.golden", out)
}
