package core

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ecosched/internal/blob"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/perfmodel"
	"ecosched/internal/repository"
	"ecosched/internal/settings"
	"ecosched/internal/slurm"
)

// Failure injection: every collaborator of the application layer can
// fail in production (full disk, unreachable blob store, crashed
// node); the services must surface those errors — and the submit-time
// path must fail open.

// failingRunner errors after n successful runs, counted across every
// cluster it is rebound to (the rig sweeps at parallelism 1, so the
// shared counter is only ever touched by one worker).
type failingRunner struct {
	inner ApplicationRunner
	after int
	runs  *int
}

func (f *failingRunner) Name() string       { return f.inner.Name() }
func (f *failingRunner) BinaryPath() string { return f.inner.BinaryPath() }
func (f *failingRunner) Run(cfg perfmodel.Config) (RunResult, error) {
	if *f.runs >= f.after {
		return RunResult{}, fmt.Errorf("injected: node crashed")
	}
	*f.runs++
	return f.inner.Run(cfg)
}
func (f *failingRunner) Rebind(c *slurm.Controller) (ApplicationRunner, error) {
	inner, err := f.inner.Rebind(c)
	if err != nil {
		return nil, err
	}
	return &failingRunner{inner: inner, after: f.after, runs: f.runs}, nil
}

func TestBenchmarkSurvivesPartialSweepFailure(t *testing.T) {
	r := newRig(t)
	inner := r.chronus.deps.Runner
	r.chronus.deps.Runner = &failingRunner{inner: inner, after: 2, runs: new(int)}
	// Rebuild the service bundle with the wrapped runner.
	chronus, err := New(r.chronus.deps)
	if err != nil {
		t.Fatal(err)
	}
	configs := []perfmodel.Config{cfg3(32, 2.5, 1), cfg3(32, 2.2, 1), cfg3(32, 1.5, 1)}
	if _, err := chronus.Benchmark.Run(configs, 0); err == nil {
		t.Fatal("failing runner not surfaced")
	} else if !strings.Contains(err.Error(), "injected") {
		t.Fatalf("wrong error: %v", err)
	}
	// The two successful benchmarks are persisted — a partial sweep is
	// usable data, not lost work.
	rows, _ := r.repo.ListBenchmarks(0, "")
	if len(rows) != 2 {
		t.Fatalf("%d rows persisted after partial failure, want 2", len(rows))
	}
}

// failingBlob errors on Put.
type failingBlob struct{ blob.Store }

func (failingBlob) Put(string, []byte) error { return fmt.Errorf("injected: blob unreachable") }

func TestInitModelBlobFailureLeavesNoMetadata(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	r.chronus.deps.Blob = failingBlob{r.blob}
	chronus, err := New(r.chronus.deps)
	if err != nil {
		t.Fatal(err)
	}
	systems, _ := chronus.InitModel.Systems()
	if _, err := chronus.InitModel.Run("brute-force", systems[0].ID); err == nil {
		t.Fatal("blob failure not surfaced")
	}
	// No dangling model metadata pointing at a blob that never landed.
	models, _ := r.repo.ListModels()
	if len(models) != 0 {
		t.Fatalf("model metadata saved despite blob failure: %+v", models)
	}
}

// failingSettings errors on Save.
type failingSettings struct{ settings.Store }

func (f failingSettings) Save(settings.Settings) error {
	return fmt.Errorf("injected: /etc is read-only")
}

func TestLoadModelSettingsFailure(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, err := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	r.chronus.deps.Settings = failingSettings{r.settings}
	chronus, err := New(r.chronus.deps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chronus.LoadModel.Run(meta.ID); err == nil {
		t.Fatal("settings failure not surfaced")
	}
}

func TestPredictCorruptLocalModel(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, _ := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	local, err := r.chronus.LoadModel.Run(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the pre-loaded file on "local disk".
	if err := os.WriteFile(local.Path, []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	sysHash, _ := ecoplugin.SystemHash(r.fs)
	if _, _, err := doPredict(r.chronus.Predict, sysHash, ecoplugin.BinaryHash(hpcgPath)); err == nil {
		t.Fatal("corrupt model file accepted")
	}
}

func TestPredictMissingLocalFile(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, _ := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	local, _ := r.chronus.LoadModel.Run(meta.ID)
	os.Remove(local.Path)
	sysHash, _ := ecoplugin.SystemHash(r.fs)
	if _, _, err := doPredict(r.chronus.Predict, sysHash, ecoplugin.BinaryHash(hpcgPath)); err == nil {
		t.Fatal("missing model file accepted")
	}
}

// The end-to-end fail-open property: when the pre-loaded model is
// corrupt, an opted-in submission still succeeds — unmodified.
func TestSubmitFailsOpenOnCorruptModel(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, _ := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	local, _ := r.chronus.LoadModel.Run(meta.ID)
	os.WriteFile(local.Path, []byte("XX"), 0o644)

	script := "#!/bin/bash\n#SBATCH --ntasks=32\n#SBATCH --cpu-freq=2500000\n" +
		"#SBATCH --comment \"chronus\"\nsrun " + hpcgPath + "\n"
	job, err := r.controller.SubmitScript(script)
	if err != nil {
		t.Fatalf("submission rejected on model corruption: %v", err)
	}
	done, err := r.controller.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != slurm.StateCompleted {
		t.Fatalf("job %s", done.State)
	}
	rec, _ := r.controller.Accounting().Record(done.ID)
	if rec.FreqKHz != 2_500_000 {
		t.Fatalf("job frequency %d — a failed prediction must leave the job unmodified", rec.FreqKHz)
	}
	if r.plugin.LastErr == nil {
		t.Fatal("plugin did not record the prediction error")
	}
}

// failingRepo errors on benchmark writes.
type failingRepo struct{ repository.Repository }

func (failingRepo) SaveBenchmarks([]repository.Benchmark) ([]int64, error) {
	return nil, fmt.Errorf("injected: database disk full")
}

func TestBenchmarkRepoWriteFailure(t *testing.T) {
	r := newRig(t)
	r.chronus.deps.Repo = failingRepo{r.repo}
	chronus, err := New(r.chronus.deps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chronus.Benchmark.Run([]perfmodel.Config{cfg3(32, 2.5, 1)}, 0); err == nil {
		t.Fatal("repo write failure not surfaced")
	}
}

// slowPredictor simulates a Chronus that blows the submit budget.
type slowPredictor struct{}

func (slowPredictor) Predict(context.Context, ecoplugin.PredictRequest) (ecoplugin.PredictResult, error) {
	return ecoplugin.PredictResult{Config: perfmodel.BestConfig(), Latency: 10 * time.Second, Source: ecoplugin.SourcePreloaded}, nil
}

func TestSlurmRejectsBudgetBlowingPredictor(t *testing.T) {
	r := newRig(t)
	plugin, err := ecoplugin.New(r.fs, slowPredictor{}, r.settings)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh controller configured with only the slow plugin.
	conf, _ := slurm.ParseConf("JobSubmitPlugins=eco\nPluginBudget=2s\n")
	c2, err := slurm.NewCluster(r.sim, conf, slurm.WithNodes(r.node))
	if err != nil {
		t.Fatal(err)
	}
	c2.RegisterPlugin(plugin)
	desc := slurm.JobDesc{BinaryPath: hpcgPath, NumTasks: 32, Comment: ecoplugin.OptInComment}
	if _, err := c2.Submit(desc); err == nil {
		t.Fatal("10-second plugin decision accepted within a 2-second budget")
	}
}
