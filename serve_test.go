package ecosched

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecosched/internal/trace"
)

func serveGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestServeMetricsPrometheus(t *testing.T) {
	d := newDeployment(t)
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs()[:2], 0); err != nil {
		t.Fatal(err)
	}
	h := d.Handler(ServeConfig{})

	rec := serveGet(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "# TYPE chronus_benchmark_runs counter") &&
		!strings.Contains(body, "chronus_benchmark") {
		t.Fatalf("no benchmark metric in exposition:\n%s", body)
	}
	// Every non-comment line must be `name[{labels}] value` — the
	// 0.0.4 text format.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name, _, _ := strings.Cut(fields[0], "{")
		if strings.ContainsAny(name, ".-") {
			t.Fatalf("unsanitised metric name in %q", line)
		}
	}
}

// Once bucketed latency histograms carry observations, /metrics grows
// labelled SLO gauges evaluating each against the submit budget.
func TestServeMetricsSLOGauges(t *testing.T) {
	d := newDeployment(t)
	if _, err := d.RunLoadgen(LoadgenOptions{Count: 20, Rate: 1000}); err != nil {
		t.Fatal(err)
	}
	body := serveGet(t, d.Handler(ServeConfig{}), "/metrics").Body.String()
	for _, want := range []string{
		`chronus_slo_attainment{metric="chronus.slurm.plugin.chain_latency"}`,
		`chronus_slo_attainment{metric="chronus.loadgen.submit_latency"}`,
		`chronus_slo_objective{`,
		`chronus_slo_error_budget_burn{`,
		`chronus_slo_threshold_seconds{`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks SLO gauge %q:\n%s", want, body)
		}
	}
}

func TestServeTraceJSON(t *testing.T) {
	d := newDeployment(t, WithTracing())
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		t.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		t.Fatal(err)
	}
	job, err := d.SubmitHPCGOptIn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Cluster.WaitFor(job.ID); err != nil {
		t.Fatal(err)
	}
	h := d.Handler(ServeConfig{})

	rec := serveGet(t, h, "/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []trace.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	var names []string
	for _, e := range events {
		names = append(names, e.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"chronus.slurm.submit", "chronus.eco.submit", "chronus.predict"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("/trace lacks %q span: %v", want, names)
		}
	}

	rec = serveGet(t, h, "/trace?n=1")
	var one []trace.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil || len(one) != 1 {
		t.Fatalf("/trace?n=1 = %d events (err %v)", len(one), err)
	}
	if rec = serveGet(t, h, "/trace?n=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("/trace?n=bogus status %d", rec.Code)
	}
}

// An untraced deployment still answers /trace — with an empty JSON
// array, not null and not a panic on the nil tracer.
func TestServeTraceUntraced(t *testing.T) {
	d := newDeployment(t)
	rec := serveGet(t, d.Handler(ServeConfig{}), "/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace status %d", rec.Code)
	}
	if got := strings.TrimSpace(rec.Body.String()); got != "[]" {
		t.Fatalf("/trace on untraced deployment = %q, want []", got)
	}
}

// A serve process that has traced nothing itself falls back to the
// persisted journal, so /trace shows the decisions of earlier
// invocations against the same data directory.
func TestServeTraceJournalFallback(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(dir, WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.BenchmarkConfigs(QuickSweepConfigs()[:2], 0); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(dir, WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec := serveGet(t, d2.Handler(ServeConfig{}), "/trace")
	var events []trace.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var sawBenchmark bool
	for _, e := range events {
		sawBenchmark = sawBenchmark || e.Name == "chronus.benchmark.run"
	}
	if !sawBenchmark {
		t.Fatalf("/trace journal fallback lacks chronus.benchmark.run: %d events", len(events))
	}
}

// Liveness must not depend on the simulation: /healthz answers 200
// while a full benchmark sweep is in flight.
func TestServeHealthzDuringBenchmark(t *testing.T) {
	d := newDeployment(t)
	h := d.Handler(ServeConfig{})

	done := make(chan error, 1)
	go func() {
		_, err := d.BenchmarkConfigs(PaperSweepConfigs(), 0)
		done <- err
	}()
	probes := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if probes == 0 {
				t.Log("benchmark finished before the first probe; probing once after")
			}
			if rec := serveGet(t, h, "/healthz"); rec.Code != http.StatusOK {
				t.Fatalf("/healthz status %d after benchmark", rec.Code)
			}
			return
		default:
			rec := serveGet(t, h, "/healthz")
			if rec.Code != http.StatusOK {
				t.Fatalf("/healthz status %d mid-benchmark", rec.Code)
			}
			if !strings.Contains(rec.Body.String(), `"status":"ok"`) {
				t.Fatalf("/healthz body %q", rec.Body.String())
			}
			probes++
		}
	}
}

func TestServePprofGated(t *testing.T) {
	d := newDeployment(t)
	if rec := serveGet(t, d.Handler(ServeConfig{}), "/debug/pprof/"); rec.Code == http.StatusOK {
		t.Fatal("pprof exposed without opt-in")
	}
	if rec := serveGet(t, d.Handler(ServeConfig{Pprof: true}), "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("pprof opt-in status %d", rec.Code)
	}
}
