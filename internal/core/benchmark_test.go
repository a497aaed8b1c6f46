package core

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"testing"
	"time"

	"ecosched/internal/ecoplugin"
	"ecosched/internal/perfmodel"
	"ecosched/internal/slurm"
	"ecosched/internal/workload"
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
	data, err := r.blob.Get(rows[0].TraceKey)
	if err != nil {
		t.Fatalf("trace blob %s: %v", rows[0].TraceKey, err)
	}
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	samples := records[1:]
	if len(samples) < 100 {
		t.Fatalf("trace has %d samples for an ~18-minute run at 3 s", len(samples))
	}
	// The stored samples must reproduce the row's aggregate power; at
	// a uniform interval the plain mean is the time-weighted one.
	var sumW float64
	for _, rec := range samples {
		w, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		sumW += w
	}
	if avg := sumW / float64(len(samples)); math.Abs(avg-rows[0].AvgSystemW)/rows[0].AvgSystemW > 0.01 {
		t.Fatalf("trace avg %.1f vs stored %.1f", avg, rows[0].AvgSystemW)
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

// bandwidthRunner is a second application: a bandwidth-bound code
// planned in closed form. Past a couple of cores the memory roof binds
// at every frequency, so the run takes as long at 1.5 GHz as at
// 2.5 GHz and frequency only costs energy. It is HPCGRunner's sbatch
// submission under its own binary path, running that runtime as a
// sleep shape and reporting the roof-bound throughput.
type bandwidthRunner struct{ *HPCGRunner }

const (
	bandwidthRoofGFLOPS = 11.0
	bandwidthJobGFLOP   = bandwidthRoofGFLOPS * 600 // ~10 minutes at the roof
)

func newBandwidthRunner(c *slurm.Controller, path string) (ApplicationRunner, error) {
	r, err := NewHPCGRunner(c, path, bandwidthJobGFLOP)
	if err != nil {
		return nil, err
	}
	return bandwidthRunner{r}, nil
}

func (r bandwidthRunner) Name() string { return "stream" }

func (r bandwidthRunner) Run(cfg perfmodel.Config) (RunResult, error) {
	g := math.Min(4*float64(cfg.Cores)*float64(cfg.FreqKHz)/1e6, bandwidthRoofGFLOPS)
	r.Controller.RegisterWorkload(r.HPCGPath, workload.Sleep("stream", time.Duration(bandwidthJobGFLOP/g*float64(time.Second))))
	res, err := r.HPCGRunner.Run(cfg)
	res.GFLOPS = g
	return res, err
}

func (r bandwidthRunner) Rebind(c *slurm.Controller) (ApplicationRunner, error) {
	return newBandwidthRunner(c, r.HPCGPath)
}

// TestMultiApplicationModels is the multi-application story: one
// deployment, two binaries, two models — each application gets its own
// energy-efficient configuration, the bandwidth-bound one's differs
// from HPCG's, and the submit path rewrites each binary to its own.
func TestMultiApplicationModels(t *testing.T) {
	r := newRig(t)

	// Benchmark HPCG (memory-bound with a compute knee at 2.2 GHz).
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	hpcgMeta, err := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}

	// Benchmark the second application through a second Chronus over
	// the same repository, blob store and settings.
	const streamPath = "/opt/stream/stream_c"
	runner, err := newBandwidthRunner(r.controller, streamPath)
	if err != nil {
		t.Fatal(err)
	}
	deps := r.chronus.deps
	deps.Runner = runner
	stream, err := New(deps)
	if err != nil {
		t.Fatal(err)
	}
	configs := []perfmodel.Config{
		cfg3(32, 2.5, 1), cfg3(32, 2.2, 1), cfg3(32, 1.5, 1),
		cfg3(16, 2.5, 1), cfg3(16, 1.5, 1), cfg3(8, 1.5, 1),
	}
	if _, err := stream.Benchmark.Run(configs, 0); err != nil {
		t.Fatal(err)
	}
	streamMeta, err := stream.InitModel.Run("brute-force", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if streamMeta.AppHash == hpcgMeta.AppHash {
		t.Fatal("both applications share an app hash")
	}

	// Both models are pre-loaded simultaneously; predictions diverge.
	for _, id := range []int64{hpcgMeta.ID, streamMeta.ID} {
		if _, err := r.chronus.LoadModel.Run(id); err != nil {
			t.Fatal(err)
		}
	}
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
		t.Fatalf("bandwidth-bound best = %v, want 1.5 GHz", streamCfg)
	}

	// The plugin rewrites each opted-in binary to its own optimum.
	for path, want := range map[string]int{hpcgPath: 2_200_000, streamPath: 1_500_000} {
		job, err := r.controller.SubmitScript("#!/bin/bash\n" +
			"#SBATCH --nodes=1\n" +
			"#SBATCH --ntasks=32\n" +
			"#SBATCH --cpu-freq=2500000\n" +
			"#SBATCH --comment \"chronus\"\n" +
			"srun --mpi=pmix_v4 --ntasks-per-core=1 " + path + "\n")
		if err != nil {
			t.Fatal(err)
		}
		done, err := r.controller.WaitFor(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := r.controller.Accounting().Record(done.ID)
		if rec.FreqKHz != want {
			t.Errorf("%s rewritten to %d kHz, want %d", path, rec.FreqKHz, want)
		}
	}
}
