package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func readManifest(t *testing.T) manifestFile {
	t.Helper()
	var m manifestFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The metric and workload lists in the code and in BENCHMARK.json are
// the same lists, in the same order.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code has %d", kind, len(declared), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v", kind, d.Name, d.Bound != nil)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}

func thousands(n int) string {
	s := fmt.Sprint(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// The owned specs are valid, their submission counts are the ones
// BENCHMARK.json states, and the run's seed replaces the spec's.
func TestOwnedSpecs(t *testing.T) {
	m := readManifest(t)
	for _, name := range []string{"cluster-nopolicy", "cluster-policy"} {
		w, err := newWorkload(options{workload: name, seed: 7, quick: true})
		if err != nil {
			t.Fatal(err)
		}
		cw := w.(*clusterRun)
		full, err := loadSpec(cw.file) // parses and validates
		if err != nil {
			t.Fatal(err)
		}
		if (full.Policy != nil) != (name == "cluster-policy") {
			t.Errorf("%s: policy block present = %v", cw.file, full.Policy != nil)
		}
		for _, decl := range m.Workloads {
			if want := thousands(full.MaxSubmissions) + " submissions"; decl.Name == name && !strings.Contains(decl.Why, want) {
				t.Errorf("BENCHMARK.json's why for %s does not state %q", name, want)
			}
		}
		if err := cw.setup(0); err != nil {
			t.Fatal(err)
		}
		rep, err := cw.run(7)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Seed != 7 || full.Seed == 7 {
			t.Errorf("%s: run under seed 7 reports seed %d (the spec file says %d)", name, rep.Seed, full.Seed)
		}
		if out := cw.finish(); out.failed != 0 {
			t.Errorf("%s: %d failed: %+v", name, out.failed, out.checks)
		}
	}
}

var metricLine = regexp.MustCompile(`^metric   (\S+) (\S+) (\S+) (\S+) n=\d+$`)

// quickRun runs one workload at smoke size and holds what it prints
// against the declaration: every declared metric exactly once with its
// unit, none extra, the contract line last, every check passed.
func quickRun(t *testing.T, name string, seed uint64, trace bool, declared []manifestMetric) {
	t.Helper()
	opt := options{workload: name, seed: seed, seconds: 0.2, trace: trace, quick: true,
		dataDir: t.TempDir(), outDir: t.TempDir()}
	res, err := runWorkload(context.Background(), opt)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
	}
	if !res.Correct {
		t.Errorf("%s seed %d trace %v: not correct: %d of %d failed, checks %+v", name, seed, trace, res.Failed, res.Attempted, res.Checks)
	}
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	printed := map[string]string{}
	for _, line := range lines {
		if !strings.HasPrefix(line, "metric ") {
			continue
		}
		f := metricLine.FindStringSubmatch(line)
		if f == nil || f[1] != name {
			t.Errorf("malformed metric line %q", line)
			continue
		}
		if _, dup := printed[f[2]]; dup {
			t.Errorf("%s printed twice", f[2])
		}
		printed[f[2]] = f[4]
	}
	for _, d := range declared {
		if unit, ok := printed[d.Name]; !ok {
			t.Errorf("%s trace %v: declared metric %s was not printed", name, trace, d.Name)
		} else if unit != d.Unit {
			t.Errorf("%s: unit %q, declared %q", d.Name, unit, d.Unit)
		}
		delete(printed, d.Name)
	}
	for extra := range printed {
		t.Errorf("%s trace %v: printed metric %s is not declared", name, trace, extra)
	}

	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", last)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil || len(metrics) != len(declared) {
		t.Errorf("last line carries %d metrics (%v), want %d", len(metrics), err, len(declared))
	}
	if trace {
		if _, err := os.Stat(res.SpanFile); err != nil {
			t.Errorf("span file: %v", err)
		}
	}
}

func TestQuickEveryWorkload(t *testing.T) {
	m := readManifest(t)
	for _, name := range workloadNames {
		quickRun(t, name, 42, false, m.EndToEnd)
		quickRun(t, name, 7, false, m.EndToEnd) // the held-out seed
	}
	// The layer probes are the same whatever the workload; one workload
	// per seed covers them, the others differ only in the traced loop.
	quickRun(t, "submit-warm", 42, true, m.PerLayer)
	quickRun(t, "cluster-policy", 7, true, m.PerLayer)
	quickRun(t, "sweep-paper", 42, true, m.PerLayer)
	quickRun(t, "cluster-nopolicy", 7, true, m.PerLayer)
}

func TestQuartilesArePythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareFlagsAnExcess(t *testing.T) {
	m := readManifest(t)
	file := func(scale float64) string {
		f := resultFile{Workloads: map[string]*workloadSummary{}}
		for _, name := range workloadNames {
			ws := &workloadSummary{Metrics: map[string]summary{}, SimDigest: "d"}
			for _, d := range m.EndToEnd {
				v := 100.0
				if d.Name == "op_p50_us" {
					v *= scale
				}
				ws.Metrics[d.Name] = summary{Unit: d.Unit, Median: v, Q1: v, Q3: v}
			}
			f.Workloads[name] = ws
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	manifestPath := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if err := compareFiles(manifestPath, file(1), file(1.05), &out); err != nil {
		t.Errorf("5 %% worse is inside the bound, got %v", err)
	}
	out.Reset()
	if err := compareFiles(manifestPath, file(1), file(1.5), &out); err == nil || !strings.Contains(out.String(), "EXCESS") {
		t.Errorf("50 %% worse passed: %v\n%s", err, out.String())
	}
	if err := compareFiles(manifestPath, file(1.5), file(1), &out); err != nil {
		t.Errorf("an improvement was flagged: %v", err)
	}
}
