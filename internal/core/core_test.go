package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"ecosched/internal/blob"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/hw"
	"ecosched/internal/ipmi"
	"ecosched/internal/paperdata"
	"ecosched/internal/perfmodel"
	"ecosched/internal/procfs"
	"ecosched/internal/repository"
	"ecosched/internal/settings"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/sysinfo"
)

const hpcgPath = "/opt/hpcg/build/bin/xhpcg"

// doPredict adapts the request/result Predict API to the positional
// shape most tests want.
func doPredict(s *PredictService, sysHash, binHash string) (perfmodel.Config, time.Duration, error) {
	res, err := s.Predict(context.Background(), ecoplugin.PredictRequest{SystemHash: sysHash, BinaryHash: binHash})
	return res.Config, res.Latency, err
}

// rig is a fully wired single-node Chronus deployment on simulated
// hardware.
type rig struct {
	sim        *simclock.Sim
	node       *hw.Node
	controller *slurm.Controller
	fs         procfs.FileReader
	repo       repository.Repository
	blob       blob.Store
	settings   settings.Store
	chronus    *Chronus
	plugin     *ecoplugin.Plugin
	slabs      *SampleSlabs // shared by every node the rig provisions
}

// newRig is the default rig: the production sweep at parallelism 1,
// no sampler ledger, no provisioning hook.
func newRig(t *testing.T) *rig {
	t.Helper()
	return newPooledRig(t, 1, nil, nil)
}

// newPooledRig wires the rig with an explicit sweep parallelism.
// ledger, when non-nil, counts sampler starts and stops on every
// provisioned node; hook, when non-nil, runs before each provisioning
// with the configuration index (used to inject cancellations and
// failures mid-sweep).
func newPooledRig(t *testing.T, parallelism int, ledger *samplerLedger, hook func(idx int) error) *rig {
	t.Helper()
	sim := simclock.New()
	calib := perfmodel.Default()
	node := hw.NewNode(sim, hw.DefaultSpec(), calib, 1)
	conf, err := slurm.ParseConf("JobSubmitPlugins=eco\n")
	if err != nil {
		t.Fatal(err)
	}
	controller, err := slurm.NewCluster(sim, conf, slurm.WithNodes(node))
	if err != nil {
		t.Fatal(err)
	}
	fs := procfs.New(node)

	repo, err := repository.OpenDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })

	runner, err := NewHPCGRunner(controller, hpcgPath, calib.JobGFLOP)
	if err != nil {
		t.Fatal(err)
	}

	benchConf, err := slurm.ParseConf("ClusterName=bench\n")
	if err != nil {
		t.Fatal(err)
	}
	slabs := &SampleSlabs{}
	provision := func(idx int) (BenchNode, error) {
		if hook != nil {
			if err := hook(idx); err != nil {
				return BenchNode{}, err
			}
		}
		bsim := simclock.New()
		bnode := hw.NewNode(bsim, hw.DefaultSpec(), calib, 1+uint64(idx)*0x9e3779b9)
		bbmc := ipmi.NewBMC(bnode)
		bbmc.ChmodWorldReadable()
		bcluster, err := slurm.NewCluster(bsim, benchConf, slurm.WithNodes(bnode))
		if err != nil {
			return BenchNode{}, err
		}
		bsystem, err := NewIPMISystemService(bsim, bbmc, bnode, false)
		if err != nil {
			return BenchNode{}, err
		}
		bsystem.Slabs = slabs
		var sys SystemService = bsystem
		if ledger != nil {
			sys = ledger.wrap(sys)
		}
		return BenchNode{Cluster: bcluster, System: sys, Close: bsystem.Release}, nil
	}

	st := settings.NewMemStore()
	chronus, err := New(Deps{
		Repo:        repo,
		Blob:        blob.NewMemory(),
		Settings:    st,
		SysInfo:     sysinfo.NewLscpu(fs),
		FS:          fs,
		Runner:      runner,
		LocalDir:    t.TempDir(),
		Now:         sim.Now,
		Provision:   provision,
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	plugin, err := ecoplugin.New(fs, chronus.Predict, st)
	if err != nil {
		t.Fatal(err)
	}
	controller.RegisterPlugin(plugin)

	return &rig{sim: sim, node: node, controller: controller, fs: fs,
		repo: repo, blob: chronus.deps.Blob, settings: st, chronus: chronus,
		plugin: plugin, slabs: slabs}
}

func cfg3(cores int, ghz float64, tpc int) perfmodel.Config {
	return perfmodel.Config{Cores: cores, FreqKHz: int(ghz * 1e6), ThreadsPerCore: tpc}
}

func TestNewValidatesDeps(t *testing.T) {
	if _, err := New(Deps{}); err == nil {
		t.Fatal("empty deps accepted")
	}
}

func TestParseConfigsJSON(t *testing.T) {
	configs, err := ParseConfigsJSON([]byte(`[{"cores":32,"threads_per_core":2,"frequency":2200000}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 1 || configs[0] != cfg3(32, 2.2, 2) {
		t.Fatalf("configs = %+v", configs)
	}
	// threads_per_core defaults to 1.
	configs, err = ParseConfigsJSON([]byte(`[{"cores":4,"frequency":1500000}]`))
	if err != nil || configs[0].ThreadsPerCore != 1 {
		t.Fatalf("configs = %+v, err = %v", configs, err)
	}
	for _, bad := range []string{`[]`, `{`, `[{"cores":0,"frequency":1}]`, `[{"cores":1}]`} {
		if _, err := ParseConfigsJSON([]byte(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestDefaultConfigsEnumerateSystem(t *testing.T) {
	r := newRig(t)
	configs, err := r.chronus.Benchmark.DefaultConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 32*3*2 {
		t.Fatalf("%d default configs, want 192", len(configs))
	}
}

func TestBenchmarkRunPersistsEverything(t *testing.T) {
	r := newRig(t)
	configs := []perfmodel.Config{cfg3(32, 2.5, 1), cfg3(32, 2.2, 1)}
	runID, err := r.chronus.Benchmark.Run(configs, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	systems, _ := r.repo.ListSystems()
	if len(systems) != 1 {
		t.Fatalf("%d systems registered", len(systems))
	}
	sys := systems[0]
	if sys.ProcHash == "" || sys.Cores != 32 {
		t.Fatalf("system record %+v", sys)
	}
	wantHash, _ := ecoplugin.SystemHash(r.fs)
	if sys.ProcHash != wantHash {
		t.Fatal("stored ProcHash disagrees with the plugin's computation")
	}

	runs, _ := r.repo.ListRuns(sys.ID)
	if len(runs) != 1 || runs[0].ID != runID {
		t.Fatalf("runs = %+v", runs)
	}

	rows, _ := r.repo.ListBenchmarks(sys.ID, "")
	if len(rows) != 2 {
		t.Fatalf("%d benchmark rows", len(rows))
	}
	// The standard configuration must land on Figure 1's 9.348 GFLOPS
	// and Table 4's 0.0432 GFLOPS/W within sampling noise.
	std := rows[0]
	if math.Abs(std.GFLOPS-paperdata.Fig1GFLOPS)/paperdata.Fig1GFLOPS > 0.01 {
		t.Fatalf("standard GFLOPS = %.4f", std.GFLOPS)
	}
	if eff := std.GFLOPSPerWatt(); math.Abs(eff-0.043168)/0.043168 > 0.03 {
		t.Fatalf("standard efficiency = %.5f", eff)
	}
	best := rows[1]
	if best.GFLOPSPerWatt() <= std.GFLOPSPerWatt() {
		t.Fatal("2.2 GHz not more efficient than 2.5 GHz")
	}
	if std.RuntimeSeconds < 1000 || std.RuntimeSeconds > 1200 {
		t.Fatalf("standard runtime = %.0f s", std.RuntimeSeconds)
	}
}

func TestBenchmarkRunRejectsBadInput(t *testing.T) {
	r := newRig(t)
	if _, err := r.chronus.Benchmark.Run(nil, 0); err == nil {
		t.Fatal("empty config list accepted")
	}
	if _, err := r.chronus.Benchmark.Run([]perfmodel.Config{cfg3(64, 2.5, 1)}, 0); err == nil {
		t.Fatal("oversized config accepted")
	}
}

// benchmarkSweep runs a small representative sweep through the full
// pipeline.
func benchmarkSweep(t *testing.T, r *rig) int64 {
	t.Helper()
	configs := []perfmodel.Config{
		cfg3(32, 2.5, 1), cfg3(32, 2.2, 1), cfg3(32, 1.5, 1),
		cfg3(30, 2.2, 1), cfg3(28, 2.2, 1), cfg3(16, 2.2, 1),
		cfg3(32, 2.2, 2), cfg3(16, 2.5, 2),
	}
	runID, err := r.chronus.Benchmark.Run(configs, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return runID
}

func TestInitModelTrainsAndUploads(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, err := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if meta.TrainRows != 8 || meta.Optimizer != "brute-force" {
		t.Fatalf("meta = %+v", meta)
	}
	if !r.blob.Exists(meta.BlobKey) {
		t.Fatal("model blob not uploaded")
	}
	models, _ := r.chronus.LoadModel.Models()
	if len(models) != 1 || models[0].ID != meta.ID {
		t.Fatalf("models = %+v", models)
	}
}

func TestInitModelErrors(t *testing.T) {
	r := newRig(t)
	if _, err := r.chronus.InitModel.Run("perceptron", 1); err == nil {
		t.Fatal("unknown model type accepted")
	}
	if _, err := r.chronus.InitModel.Run("brute-force", 42); err == nil {
		t.Fatal("unknown system accepted")
	}
	// System exists but has no benchmarks for this app: register via a
	// benchmark of another "binary" is impossible here, so instead run
	// a sweep then ask for a different optimizer with zero rows is not
	// reachable; the no-benchmarks path needs a fresh system record.
}

func TestLoadModelPreloads(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, err := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	local, err := r.chronus.LoadModel.Run(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if local.SystemHash != systems[0].ProcHash {
		t.Fatal("local model missing the plugin-visible hash")
	}
	if !strings.HasSuffix(local.Path, "model-1.json") {
		t.Fatalf("local path = %q", local.Path)
	}
	cfg, _ := r.settings.Load()
	if _, ok := cfg.FindModelByHash(systems[0].ProcHash, ecoplugin.BinaryHash(hpcgPath)); !ok {
		t.Fatal("settings registry not updated")
	}
}

func TestLoadModelUnknownID(t *testing.T) {
	r := newRig(t)
	if _, err := r.chronus.LoadModel.Run(99); err == nil {
		t.Fatal("unknown model id accepted")
	}
}

func TestPredictFromPreloadedModel(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, _ := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	if _, err := r.chronus.LoadModel.Run(meta.ID); err != nil {
		t.Fatal(err)
	}

	sysHash, _ := ecoplugin.SystemHash(r.fs)
	binHash := ecoplugin.BinaryHash(hpcgPath)
	got, latency, err := doPredict(r.chronus.Predict, sysHash, binHash)
	if err != nil {
		t.Fatal(err)
	}
	want := perfmodel.BestConfig()
	if got != want {
		t.Fatalf("predicted %v, want %v (Table 1 best)", got, want)
	}
	if latency > 50*time.Millisecond {
		t.Fatalf("pre-loaded prediction took %v — outside the submit budget rationale", latency)
	}
}

func TestPredictWithoutPreloadErrors(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	sysHash, _ := ecoplugin.SystemHash(r.fs)
	if _, _, err := doPredict(r.chronus.Predict, sysHash, ecoplugin.BinaryHash(hpcgPath)); err == nil {
		t.Fatal("prediction without a pre-loaded model succeeded")
	}
}

func TestPredictColdLoadFallback(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	r.chronus.InitModel.Run("brute-force", systems[0].ID)

	r.chronus.Predict.AllowColdLoad = true
	sysHash, _ := ecoplugin.SystemHash(r.fs)
	got, latency, err := doPredict(r.chronus.Predict, sysHash, ecoplugin.BinaryHash(hpcgPath))
	if err != nil {
		t.Fatal(err)
	}
	if got != perfmodel.BestConfig() {
		t.Fatalf("cold prediction = %v", got)
	}
	if latency < LatencyDBQuery+LatencyBlobFetch {
		t.Fatalf("cold latency %v suspiciously low", latency)
	}
}

func TestPredictAppHashMismatch(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, _ := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	r.chronus.LoadModel.Run(meta.ID)
	sysHash, _ := ecoplugin.SystemHash(r.fs)
	if _, _, err := doPredict(r.chronus.Predict, sysHash, "some-other-binary"); err == nil {
		t.Fatal("mismatched application hash accepted")
	}
}

func TestPredictUnknownSystem(t *testing.T) {
	r := newRig(t)
	r.chronus.Predict.AllowColdLoad = true
	if _, _, err := doPredict(r.chronus.Predict, "nope", "nope"); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestSetService(t *testing.T) {
	r := newRig(t)
	set := r.chronus.Set
	if err := set.SetDatabase("/var/lib/chronus/db"); err != nil {
		t.Fatal(err)
	}
	if err := set.SetBlobStorage("/var/lib/chronus/blobs"); err != nil {
		t.Fatal(err)
	}
	if err := set.SetState("active"); err != nil {
		t.Fatal(err)
	}
	cur, _ := set.Current()
	if cur.DatabasePath != "/var/lib/chronus/db" || cur.State != settings.StateActive {
		t.Fatalf("settings = %+v", cur)
	}
	if err := set.SetState("turbo"); err == nil {
		t.Fatal("invalid state accepted")
	}
	if err := set.SetDatabase(""); err == nil {
		t.Fatal("empty database path accepted")
	}
	if err := set.SetBlobStorage(""); err == nil {
		t.Fatal("empty blob path accepted")
	}
}

func TestConfigJSONOutput(t *testing.T) {
	out := ConfigJSONOutput(perfmodel.BestConfig())
	for _, frag := range []string{`"cores":32`, `"frequency":2200000`, `"threads_per_core":1`} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output %q missing %q", out, frag)
		}
	}
}

// TestFullPaperPipeline is the end-to-end reproduction of the system's
// intended use (paper Figure 4): benchmark → init-model → load-model →
// user submits with `--comment "chronus"` → job_submit_eco rewrites →
// the job runs at the energy-efficient configuration.
func TestFullPaperPipeline(t *testing.T) {
	r := newRig(t)

	// Admin: benchmark a sweep and build + pre-load a model.
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, err := r.chronus.InitModel.Run("random-forest", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.chronus.LoadModel.Run(meta.ID); err != nil {
		t.Fatal(err)
	}

	// job_submit_eco is already wired to the Chronus predictor by the
	// rig, exactly as JobSubmitPlugins=eco deploys it.
	plugin := r.plugin

	// User: submit the HPCG batch script with the opt-in comment and
	// the standard (wasteful) configuration.
	script := "#!/bin/bash\n" +
		"#SBATCH --nodes=1\n" +
		"#SBATCH --ntasks=32\n" +
		"#SBATCH --cpu-freq=2500000\n" +
		"#SBATCH --comment \"chronus\"\n" +
		"srun --mpi=pmix_v4 --ntasks-per-core=1 " + hpcgPath + "\n"
	job, err := r.controller.SubmitScript(script)
	if err != nil {
		t.Fatal(err)
	}
	done, err := r.controller.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != slurm.StateCompleted {
		t.Fatalf("job %s (%s)", done.State, done.Reason)
	}

	rec, _ := r.controller.Accounting().Record(done.ID)
	// The forest trained on a sparse 8-point sweep may pick 2.2 or
	// 1.5 GHz (their measured efficiencies differ by <2 %); what must
	// hold is that the plugin moved the job off the wasteful standard
	// configuration and within 3 % of the sweep optimum.
	if rec.FreqKHz == 2_500_000 {
		t.Fatalf("plugin left the job at the standard 2.5 GHz")
	}
	if rec.Cores != 32 {
		t.Fatalf("job ran %d cores, every efficient configuration uses 32", rec.Cores)
	}
	eff := rec.GFLOPSPerWatt()
	if eff < 0.97*paperdata.BestRow().GFLOPSPerWatt {
		t.Fatalf("eco job efficiency %.5f, want ≥0.97×%.5f", eff, paperdata.BestRow().GFLOPSPerWatt)
	}
	if plugin.Rewritten != 1 {
		t.Fatalf("plugin rewrote %d jobs", plugin.Rewritten)
	}
}
