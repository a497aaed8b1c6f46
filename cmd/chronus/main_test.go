package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
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

	// The settings file must exist where the deployment keeps it, and a
	// later stateful command must not undo the plugin state set above.
	if err := run([]string{"-data", data, "load-model"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(data, "etc", "chronus", "settings.json"))
	if err != nil {
		t.Fatalf("settings not persisted: %v", err)
	}
	var saved struct{ State string }
	if err := json.Unmarshal(raw, &saved); err != nil {
		t.Fatal(err)
	}
	if saved.State != "active" {
		t.Fatalf("settings.json state = %q after a later command, want active", saved.State)
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
// generated and replayed runs alike), -record on a replay is a usage
// error rather than a report printed as if it applied, and -timing adds
// the stage table on stderr without changing stdout.
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

	// -timing prints the stage table to stderr and leaves stdout as it was.
	for _, source := range [][]string{{"-spec", spec}, {"-replay", log}} {
		var report string
		stages := capture(t, &os.Stderr, func() error {
			report = captureStdout(t, func() error {
				return run(slices.Concat([]string{"simulate", "-timing"}, source))
			})
			return nil
		})
		if report != replayed {
			t.Errorf("simulate -timing %v changed the report:\n%s\nvs\n%s", source, report, replayed)
		}
		for _, stage := range []string{"router", "batch", "debug"} {
			if !strings.Contains(stages, "\n"+stage+" ") {
				t.Errorf("simulate -timing %v: stderr names no %q stage:\n%s", source, stage, stages)
			}
		}
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
		{"simulate", "-spec", spec, "-lanes", "-3"},
		{"simulate", "-replay", log, "-lanes", "-1"},
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

// TestCLISimulateRejectsTinyDeferCheck: a deferral check under a minute
// is an error, at once, from a spec and from a recorded log's header
// alike. (At "1ns" a held job re-armed its wake every nanosecond of
// simulated time, and the run never finished.)
func TestCLISimulateRejectsTinyDeferCheck(t *testing.T) {
	dir := t.TempDir()
	raw, err := os.ReadFile(filepath.Join("..", "..", "specs", "powercap-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	hostile := filepath.Join(dir, "hostile.json")
	if err := os.WriteFile(hostile, []byte(strings.Replace(string(raw), `"check": "10m"`, `"check": "1ns"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "run.jsonl")
	captureStdout(t, func() error {
		return run([]string{"simulate", "-spec", filepath.Join("..", "..", "specs", "powercap-smoke.json"), "-record", log})
	})
	recorded, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	header, rest, _ := strings.Cut(string(recorded), "\n")
	if !strings.Contains(header, `"check":"10m0s"`) {
		t.Fatalf("log header does not carry the spec's check: %s", header)
	}
	tampered := filepath.Join(dir, "tampered.jsonl")
	if err := os.WriteFile(tampered, []byte(strings.Replace(header, `"check":"10m0s"`, `"check":"1ns"`, 1)+"\n"+rest), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"simulate", "-spec", hostile}, {"simulate", "-replay", tampered}} {
		done := make(chan error, 1)
		go func() { done <- run(args) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "deferral check 1ns is under 1m0s") {
				t.Errorf("chronus %v: %v, want the check rejected", args, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("chronus %v still running after 20 s", args)
		}
	}
}

// TestCLISimulateRejectsHugeTasks runs powercap-smoke.json cut to 200
// submissions with every client's tasks a constant: 64 tasks fit no
// node, so every job is rejected on its own, while a count no int holds
// fails the run instead of converting to a 1-task job.
func TestCLISimulateRejectsHugeTasks(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "specs", "powercap-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	withTasks := func(value string) string {
		var spec map[string]any
		if err := json.Unmarshal(raw, &spec); err != nil {
			t.Fatal(err)
		}
		spec["max_submissions"] = 200
		for _, c := range spec["clients"].([]any) {
			c.(map[string]any)["jobs"].(map[string]any)["tasks"] = json.RawMessage(`{"kind": "constant", "value": ` + value + `}`)
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "tasks.json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out := captureStdout(t, func() error { return run([]string{"simulate", "-spec", withTasks("64")}) })
	if !strings.Contains(out, "submissions 200 (200 rejected)") {
		t.Errorf("64 tasks: want every submission rejected, got:\n%s", out)
	}
	for _, value := range []string{"1e19", "1e300"} {
		err := run([]string{"simulate", "-spec", withTasks(value)})
		if err == nil || !strings.Contains(err.Error(), "tasks sample") || !strings.Contains(err.Error(), "does not fit an int") {
			t.Errorf("%s tasks: %v, want the run refused for its tasks sample", value, err)
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
	return capture(t, &os.Stdout, fn)
}

// capture runs fn with *f redirected to a pipe and returns what fn wrote
// to it.
func capture(t *testing.T, f **os.File, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := *f
	*f = w
	runErr := fn()
	w.Close()
	*f = old
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
