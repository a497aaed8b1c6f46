package core

import (
	"math"
	"testing"
	"time"

	"ecosched/internal/ecoplugin"
	"ecosched/internal/perfmodel"
	"ecosched/internal/repository"
)

func TestBenchmarkTracePersisted(t *testing.T) {
	r := newRig(t)
	if _, err := r.chronus.Benchmark.Run([]perfmodel.Config{cfg3(32, 2.2, 1)}, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	rows, _ := r.repo.ListBenchmarks(0, "")
	if len(rows) != 1 || rows[0].TraceKey == "" {
		t.Fatalf("benchmark rows: %+v", rows)
	}
	if !r.blob.Exists(rows[0].TraceKey) {
		t.Fatalf("trace blob %s missing", rows[0].TraceKey)
	}
	trace, err := r.chronus.Benchmark.LoadTrace(rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if trace.Len() < 100 {
		t.Fatalf("trace has %d samples for an ~18-minute run at 3 s", trace.Len())
	}
	agg, err := trace.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	// The stored samples must reproduce the row's aggregate power.
	if math.Abs(agg.AvgSystemW-rows[0].AvgSystemW)/rows[0].AvgSystemW > 0.01 {
		t.Fatalf("trace avg %.1f vs stored %.1f", agg.AvgSystemW, rows[0].AvgSystemW)
	}
}

func TestLoadTraceMissing(t *testing.T) {
	r := newRig(t)
	// A row without a key errors cleanly.
	if _, err := r.chronus.Benchmark.LoadTrace(repository.Benchmark{ID: 7}); err == nil {
		t.Fatal("benchmark without trace key accepted")
	}
	// A row whose blob vanished errors cleanly.
	if _, err := r.chronus.Benchmark.LoadTrace(repository.Benchmark{ID: 8, TraceKey: "traces/gone.csv"}); err == nil {
		t.Fatal("missing trace blob accepted")
	}
}

func TestBenchmarkRunResume(t *testing.T) {
	r := newRig(t)
	first := []perfmodel.Config{cfg3(32, 2.5, 1), cfg3(32, 2.2, 1), cfg3(32, 1.5, 1)}
	if _, err := r.chronus.Benchmark.Run(first, 0); err != nil {
		t.Fatal(err)
	}
	// Resume with a superset: only the two new configurations run.
	super := append(append([]perfmodel.Config(nil), first...), cfg3(30, 2.2, 1), cfg3(28, 2.2, 1))
	_, skipped, err := r.chronus.Benchmark.RunResume(super, 0)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 3 {
		t.Fatalf("skipped %d, want 3", skipped)
	}
	rows, _ := r.repo.ListBenchmarks(0, "")
	if len(rows) != 5 {
		t.Fatalf("%d rows after resume, want 5 (no duplicates)", len(rows))
	}
	// Resuming again is a no-op.
	runID, skipped, err := r.chronus.Benchmark.RunResume(super, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runID != 0 || skipped != 5 {
		t.Fatalf("second resume: runID=%d skipped=%d", runID, skipped)
	}
	rows, _ = r.repo.ListBenchmarks(0, "")
	if len(rows) != 5 {
		t.Fatalf("%d rows after no-op resume", len(rows))
	}
}

// TestMultiApplicationModels is the multi-application story: one
// deployment, two binaries, two models — each application gets its own
// energy-efficient configuration, and STREAM's differs from HPCG's.
func TestMultiApplicationModels(t *testing.T) {
	r := newRig(t)

	// Benchmark HPCG (memory-bound with a compute knee at 2.2 GHz).
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	hpcgMeta, err := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.chronus.LoadModel.Run(hpcgMeta.ID); err != nil {
		t.Fatal(err)
	}

	// Benchmark STREAM (pure bandwidth) through the same deployment.
	const streamPath = "/opt/stream/stream_c"
	streamRunner, err := NewStreamRunner(r.controller, streamPath)
	if err != nil {
		t.Fatal(err)
	}
	streamChronus, err := r.chronus.WithRunner(streamRunner)
	if err != nil {
		t.Fatal(err)
	}
	configs := []perfmodel.Config{
		cfg3(32, 2.5, 1), cfg3(32, 2.2, 1), cfg3(32, 1.5, 1),
		cfg3(16, 2.5, 1), cfg3(16, 1.5, 1), cfg3(8, 1.5, 1),
	}
	if _, err := streamChronus.Benchmark.Run(configs, 0); err != nil {
		t.Fatal(err)
	}
	streamMeta, err := streamChronus.InitModel.Run("brute-force", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if streamMeta.AppHash == hpcgMeta.AppHash {
		t.Fatal("both applications share an app hash")
	}
	if _, err := streamChronus.LoadModel.Run(streamMeta.ID); err != nil {
		t.Fatal(err)
	}

	// Both models are pre-loaded simultaneously; predictions diverge.
	sysHash, _ := ecoplugin.SystemHash(r.fs)
	hpcgCfg, _, err := doPredict(r.chronus.Predict, sysHash, hpcgMeta.AppHash)
	if err != nil {
		t.Fatal(err)
	}
	streamCfg, _, err := doPredict(r.chronus.Predict, sysHash, streamMeta.AppHash)
	if err != nil {
		t.Fatal(err)
	}
	if hpcgCfg.FreqKHz != 2_200_000 {
		t.Fatalf("HPCG best = %v, want 2.2 GHz", hpcgCfg)
	}
	if streamCfg.FreqKHz != 1_500_000 {
		t.Fatalf("STREAM best = %v — a bandwidth-bound code should drop to 1.5 GHz", streamCfg)
	}
}
