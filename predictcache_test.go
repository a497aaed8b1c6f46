package ecosched

// Tests for the hot-path prediction cache, the eco_budget enforcement
// and the metrics subsystem — the production-hardening layer on top of
// the paper's prediction pipeline.

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"ecosched/internal/core"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/settings"
	"ecosched/internal/slurm"
)

// warmDeployment runs benchmark → train → pre-load and returns the
// deployment plus the request matching its (system, HPCG) pair.
func warmDeployment(t *testing.T, opts ...Option) (*Deployment, ecoplugin.PredictRequest, settings.LocalModel) {
	t.Helper()
	d := newDeployment(t, opts...)
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		t.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		t.Fatal(err)
	}
	local, err := d.PreloadModel(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	sysHash, err := ecoplugin.SystemHash(d.fs)
	if err != nil {
		t.Fatal(err)
	}
	req := ecoplugin.PredictRequest{SystemHash: sysHash, BinaryHash: ecoplugin.BinaryHash(d.HPCGPath)}
	return d, req, local
}

func TestPredictCacheHitSkipsModelFile(t *testing.T) {
	d, req, local := warmDeployment(t)
	ctx := context.Background()

	first, err := d.Chronus.Predict.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != ecoplugin.SourcePreloaded {
		t.Fatalf("first prediction source = %s, want preloaded", first.Source)
	}
	if first.Config != BestConfig() {
		t.Fatalf("predicted %v", first.Config)
	}
	// The warm path costs settings + file read + sweep.
	if want := 2*core.LatencyLocalRead + core.LatencyPredict; first.Latency != want {
		t.Fatalf("preloaded latency = %v, want %v", first.Latency, want)
	}

	// Delete the model file: a true cache hit never touches it.
	if err := os.Remove(local.Path); err != nil {
		t.Fatal(err)
	}
	second, err := d.Chronus.Predict.Predict(ctx, req)
	if err != nil {
		t.Fatalf("cache hit failed after model file removal — the hit still reads the file: %v", err)
	}
	if second.Source != ecoplugin.SourceCache {
		t.Fatalf("second prediction source = %s, want cache", second.Source)
	}
	if second.Latency != core.LatencyLocalRead {
		t.Fatalf("cache-hit latency = %v, want %v (LatencyLocalRead only)", second.Latency, core.LatencyLocalRead)
	}
	if second.Config != first.Config {
		t.Fatal("cache returned a different configuration")
	}

	snap := d.Metrics.Snapshot()
	if snap.Counters["chronus.predict.cache_hit"] != 1 || snap.Counters["chronus.predict.cache_miss"] != 1 {
		t.Fatalf("hit/miss counters = %d/%d, want 1/1",
			snap.Counters["chronus.predict.cache_hit"], snap.Counters["chronus.predict.cache_miss"])
	}
}

// TestPredictCacheInvalidatedByLoadModel: a request that names no model
// (ModelID 0) is answered from the entry cached under no model until
// this process's load-model drops it.
func TestPredictCacheInvalidatedByLoadModel(t *testing.T) {
	d, req, _ := warmDeployment(t)
	ctx := context.Background()

	if _, err := d.Chronus.Predict.Predict(ctx, req); err != nil {
		t.Fatal(err)
	}
	res, err := d.Chronus.Predict.Predict(ctx, req)
	if err != nil || res.Source != ecoplugin.SourceCache {
		t.Fatalf("warm-up did not cache: source %s, err %v", res.Source, err)
	}

	// Retrain and re-load: the next prediction must re-read the new
	// model, not serve the stale cached answer.
	meta2, err := d.TrainModel("brute-force")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PreloadModel(meta2.ID); err != nil {
		t.Fatal(err)
	}
	after, err := d.Chronus.Predict.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Source != ecoplugin.SourcePreloaded {
		t.Fatalf("prediction after load-model served from %s — cache not invalidated", after.Source)
	}
}

// TestPredictionFollowsAModelInstalledElsewhere: deployments A and B
// share a data directory. A's cache holds the answer of the model A
// pre-loaded; B installs a model with another answer, and A's next
// opted-in submission runs B's, with nothing telling A's cache. Kills
// scripts/mutants/predict-cache-ignores-model.patch.
func TestPredictionFollowsAModelInstalledElsewhere(t *testing.T) {
	dir := t.TempDir()
	open := func() *Deployment {
		d, err := New(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	install := func(d *Deployment, configs []Config) {
		if _, err := d.BenchmarkConfigs(configs, 0); err != nil {
			t.Fatal(err)
		}
		meta, err := d.TrainModel("brute-force")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.PreloadModel(meta.ID); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(d *Deployment) Config {
		job, err := d.SubmitHPCGOptIn()
		if err != nil {
			t.Fatal(err)
		}
		return Config{Cores: job.Desc.NumTasks, FreqKHz: job.Desc.MaxFreqKHz, ThreadsPerCore: job.Desc.ThreadsPerCPU}
	}

	// A measures only the standard configuration, so its model picks it.
	a := open()
	standard := QuickSweepConfigs()[0]
	install(a, []Config{standard})
	for range 2 {
		if got := submit(a); got != standard {
			t.Fatalf("A runs %v, want its model's %v", got, standard)
		}
	}
	if hits := a.Metrics.Snapshot().Counters["chronus.predict.cache_hit"]; hits != 1 {
		t.Fatalf("A's second submission made %d cache hits, want 1", hits)
	}

	install(open(), QuickSweepConfigs())
	if got := submit(a); got != BestConfig() {
		t.Fatalf("after B's install A runs %v, want B's model's %v", got, BestConfig())
	}
}

// The eco_budget story: with no pre-loaded model and only the cold
// path available, a 50 ms budget cannot fit the ~557 ms database +
// blob route. The job must still go through — unmodified.
func TestBudgetOverrunSubmitsUnmodified(t *testing.T) {
	conf := "ClusterName=ecosched\nJobSubmitPlugins=eco\nSchedulerParameters=eco_budget=50ms\n"
	d := newDeployment(t, func(o *Options) { o.SlurmConf = conf })
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TrainModel("brute-force"); err != nil {
		t.Fatal(err)
	}
	// No PreloadModel: force the cold path, which blows the budget.
	d.Chronus.Predict.AllowColdLoad = true

	if got := d.Plugin.Budget(); got != 50*time.Millisecond {
		t.Fatalf("plugin budget = %v, want 50ms from SchedulerParameters", got)
	}

	job, err := d.SubmitHPCGOptIn()
	if err != nil {
		t.Fatalf("budget overrun must never reject a job: %v", err)
	}
	done, err := d.Cluster.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != slurm.StateCompleted {
		t.Fatalf("job %s (%s)", done.State, done.Reason)
	}
	rec, _ := d.Cluster.Accounting().Record(done.ID)
	if rec.FreqKHz != 2_500_000 {
		t.Fatalf("job ran at %d kHz — a refused prediction must leave the job unmodified", rec.FreqKHz)
	}
	if d.Plugin.Fallbacks != 1 || d.Plugin.Rewritten != 0 {
		t.Fatalf("fallbacks/rewritten = %d/%d, want 1/0", d.Plugin.Fallbacks, d.Plugin.Rewritten)
	}
	if !errors.Is(d.Plugin.LastErr, ecoplugin.ErrBudgetExceeded) {
		t.Fatalf("LastErr = %v, want ErrBudgetExceeded", d.Plugin.LastErr)
	}
	snap := d.Metrics.Snapshot()
	for _, name := range []string{"chronus.eco.plugin.fallback", "chronus.eco.plugin.budget_violations", "chronus.predict.budget_violations"} {
		if snap.Counters[name] == 0 {
			t.Fatalf("counter %s = 0 after a budget overrun", name)
		}
	}
}

// With a pre-loaded model the 9 ms warm path fits the same 50 ms
// budget, so the rewrite happens as usual.
func TestBudgetFitsPreloadedPath(t *testing.T) {
	conf := "ClusterName=ecosched\nJobSubmitPlugins=eco\nSchedulerParameters=eco_budget=50ms\n"
	d, _, _ := warmDeployment(t, func(o *Options) { o.SlurmConf = conf })
	job, err := d.SubmitHPCGOptIn()
	if err != nil {
		t.Fatal(err)
	}
	done, err := d.Cluster.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := d.Cluster.Accounting().Record(done.ID)
	if rec.FreqKHz != 2_200_000 {
		t.Fatalf("budgeted warm prediction did not rewrite: %d kHz", rec.FreqKHz)
	}
	if d.Plugin.Fallbacks != 0 {
		t.Fatalf("%d fallbacks on the warm path", d.Plugin.Fallbacks)
	}
}

// TestConcurrentPredict hammers one deployment's Predict from many
// goroutines (run with -race): the singleflight must deduplicate the
// cold load and every caller must see the same configuration.
func TestConcurrentPredict(t *testing.T) {
	d, req, _ := warmDeployment(t)
	ctx := context.Background()

	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := d.Chronus.Predict.Predict(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				if res.Config != BestConfig() {
					errs <- errors.New("concurrent Predict returned a wrong configuration")
					return
				}
				// Unknown pairs exercise the error + eviction path.
				if _, err := d.Chronus.Predict.Predict(ctx, ecoplugin.PredictRequest{
					SystemHash: req.SystemHash, BinaryHash: "no-such-binary",
				}); err == nil {
					errs <- errors.New("unknown binary accepted")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := d.Metrics.Snapshot()
	hits := snap.Counters["chronus.predict.cache_hit"]
	misses := snap.Counters["chronus.predict.cache_miss"]
	if hits+misses < goroutines*perG {
		t.Fatalf("hit+miss = %d, want at least %d successful lookups", hits+misses, goroutines*perG)
	}
	if hits == 0 {
		t.Fatal("no cache hits under concurrent load")
	}
}

func TestMetricsPersistAcrossDeployments(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.BenchmarkConfigs(QuickSweepConfigs()[:2], 0); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadMetrics(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs := snap.Counters["chronus.benchmark.runs"]
	if runs != 2 {
		t.Fatalf("persisted benchmark runs = %d, want 2", runs)
	}

	// A second invocation on the same data dir accumulates.
	d2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.BenchmarkConfigs(QuickSweepConfigs()[:1], 0); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err = ReadMetrics(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["chronus.benchmark.runs"]; got != runs+1 {
		t.Fatalf("accumulated benchmark runs = %d, want %d", got, runs+1)
	}

	// Close is idempotent: the second call must not double-merge.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	again, _ := ReadMetrics(dir)
	if again.Counters["chronus.benchmark.runs"] != runs+1 {
		t.Fatal("second Close re-merged the snapshot")
	}
}

func TestControllerMetrics(t *testing.T) {
	d, _, _ := warmDeployment(t)
	job, err := d.SubmitHPCGOptIn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Cluster.WaitFor(job.ID); err != nil {
		t.Fatal(err)
	}
	snap := d.Metrics.Snapshot()
	// The benchmark sweep itself submits jobs, so submitted >> 1.
	if snap.Counters["chronus.slurm.jobs.submitted"] == 0 || snap.Counters["chronus.slurm.jobs.completed"] == 0 {
		t.Fatalf("controller counters empty: %+v", snap.Counters)
	}
	if snap.Histograms["chronus.slurm.plugin.chain_latency"].Count == 0 {
		t.Fatal("plugin chain latency histogram empty")
	}
}
