package ecosched

// Root benchmarks: the ablations with no experiment test of their own,
// the hot paths `make alloc-check` gates and the cluster throughput
// `make profile-cluster` profiles. The paper's tables and figures are
// regenerated by cmd/experiments and asserted by the experiment tests
// (EXPERIMENTS.md names one regenerator each):
//
//	go test -run XXX -bench . -benchmem
import (
	"context"
	"fmt"
	"os"
	"testing"

	"ecosched/internal/core"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/paperdata"
	"ecosched/internal/repository"
	"ecosched/internal/workload"
)

func benchDeployment(b *testing.B) *Deployment {
	b.Helper()
	d, err := New(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	return d
}

// BenchmarkSubmitLatency is ablation A2: the wall-clock cost of one
// job_submit_eco invocation with a pre-loaded model — the code that
// must fit Slurm's submit budget.
func BenchmarkSubmitLatency(b *testing.B) {
	b.ReportAllocs()
	d := benchDeployment(b)
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		b.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := d.SubmitHPCGOptIn()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Cluster.WaitFor(job.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Plugin.Rewritten)/float64(b.N), "rewrites/op")
}

// BenchmarkPredictCacheHit measures the decoded-model cache on the
// hot path. The model file is deleted after the first prediction, so
// every iteration that completes proves the hit does no file read, no
// JSON decode and no optimizer sweep — it is the LatencyLocalRead
// lookup alone.
func BenchmarkPredictCacheHit(b *testing.B) {
	b.ReportAllocs()
	d := benchDeployment(b)
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		b.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		b.Fatal(err)
	}
	local, err := d.PreloadModel(meta.ID)
	if err != nil {
		b.Fatal(err)
	}
	sysHash, err := ecoplugin.SystemHash(d.fs)
	if err != nil {
		b.Fatal(err)
	}
	req := ecoplugin.PredictRequest{SystemHash: sysHash, BinaryHash: ecoplugin.BinaryHash(d.HPCGPath)}
	ctx := context.Background()
	if _, err := d.Chronus.Predict.Predict(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	if err := os.Remove(local.Path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Chronus.Predict.Predict(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Source != ecoplugin.SourceCache || res.Latency != core.LatencyLocalRead {
			b.Fatalf("not a cache hit: source %s, latency %v", res.Source, res.Latency)
		}
	}
	snap := d.Metrics.Snapshot()
	b.ReportMetric(float64(snap.Counters["chronus.predict.cache_hit"])/float64(b.N), "hits/op")
}

// BenchmarkPredictCacheHitTraced is BenchmarkPredictCacheHit with the
// decision tracer (and its journal) enabled — the pair quantifies what
// tracing costs on the hottest path. The untraced variant exercises the
// nil-tracer no-op branches and must stay at its pre-instrumentation
// cost.
func BenchmarkPredictCacheHitTraced(b *testing.B) {
	b.ReportAllocs()
	d, err := New(b.TempDir(), WithTracing())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		b.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		b.Fatal(err)
	}
	sysHash, err := ecoplugin.SystemHash(d.fs)
	if err != nil {
		b.Fatal(err)
	}
	req := ecoplugin.PredictRequest{SystemHash: sysHash, BinaryHash: ecoplugin.BinaryHash(d.HPCGPath)}
	ctx := context.Background()
	if _, err := d.Chronus.Predict.Predict(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	before := len(journaledEvents(b, d))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Chronus.Predict.Predict(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Source != ecoplugin.SourceCache {
			b.Fatalf("not a cache hit: source %s", res.Source)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(journaledEvents(b, d))-before)/float64(b.N), "spans/op")
}

// BenchmarkFullPipeline measures the paper's end-to-end user journey:
// quick sweep, train, pre-load, one rewritten job.
func BenchmarkFullPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := benchDeployment(b)
		if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
			b.Fatal(err)
		}
		meta, err := d.TrainModel("brute-force")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.PreloadModel(meta.ID); err != nil {
			b.Fatal(err)
		}
		job, err := d.SubmitHPCGOptIn()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Cluster.WaitFor(job.ID); err != nil {
			b.Fatal(err)
		}
	}
	_ = paperdata.Fig1GFLOPS
}

// BenchmarkRepositoryBackends is a storage ablation: benchmark-row
// write throughput of the two Repository implementations (the paper's
// SQLite stand-in vs CSV).
func BenchmarkRepositoryBackends(b *testing.B) {
	b.ReportAllocs()
	row := repository.Benchmark{
		SystemID: 1, AppHash: "hpcg",
		Cores: 32, FreqKHz: 2_200_000, ThreadsPerCore: 1,
		GFLOPS: 9.27, AvgSystemW: 190.1, AvgCPUW: 97.4,
		SystemKJ: 214.4, CPUKJ: 109.8, RuntimeSeconds: 1127,
	}
	b.Run("filedb", func(b *testing.B) {
		b.ReportAllocs()
		repo, err := repository.OpenDB(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer repo.Close()
		if _, err := repo.SaveSystem(repository.System{Key: "k", Cores: 32, ThreadsPerCore: 2}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := repo.SaveBenchmarks([]repository.Benchmark{row}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		repo, err := repository.OpenCSV(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer repo.Close()
		if _, err := repo.SaveSystem(repository.System{Key: "k", Cores: 32, ThreadsPerCore: 2}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := repo.SaveBenchmarks([]repository.Benchmark{row}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGovernorAblation is ablation A3: four full HPCG runs, one
// per cpufreq governor.
func BenchmarkGovernorAblation(b *testing.B) {
	b.ReportAllocs()
	var ecoKJ float64
	for i := 0; i < b.N; i++ {
		d := benchDeployment(b)
		rows, err := d.RunGovernorAblation()
		if err != nil {
			b.Fatal(err)
		}
		ecoKJ = rows[len(rows)-1].SystemKJ
	}
	b.ReportMetric(ecoKJ, "eco-pin-kJ")
}

// BenchmarkParallelSweep runs the full 138-configuration sweep through
// the worker pool at different widths. On a multi-core runner the wide
// variants should show near-linear speedup; every variant must land on
// the paper's winner, demonstrating that parallelism changes only the
// wall clock, never the tables.
func BenchmarkParallelSweep(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism-%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := New(b.TempDir(), WithParallelism(p))
				if err != nil {
					b.Fatal(err)
				}
				res, err := d.RunSweepExperiment()
				if err != nil {
					b.Fatal(err)
				}
				best := res.Best()
				if best.Cores != 32 || best.GHz != 2.2 || best.HyperThread {
					b.Fatalf("parallelism %d changed the winner: %+v", p, best)
				}
				d.Close()
			}
		})
	}
}

// BenchmarkClusterThroughput measures the cluster-scale event loop:
// the committed 100k-submission smoke spec (1,024 nodes across two
// partitions, generated workload) run end to end under one shared
// clock, reporting wall-clock submission throughput.
func BenchmarkClusterThroughput(b *testing.B) {
	b.ReportAllocs()
	spec, err := workload.LoadSpec("specs/scale-smoke.json")
	if err != nil {
		b.Fatal(err)
	}
	var report *ClusterReport
	for i := 0; i < b.N; i++ {
		if report, err = RunClusterSpec(spec, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(report.Submissions)*float64(b.N)/b.Elapsed().Seconds(), "submissions/s")
	b.ReportMetric(float64(report.Totals.Completed), "jobs-completed")
}

// BenchmarkClusterPolicyThroughput measures the capped cluster the
// energy-policy checks dominate: bench/specs/cluster-policy.json (24+8
// nodes, freqcap budget, co-scheduling, price deferral, 2,000
// submissions a run) run end to end under ten seeds an op, the i-th op
// taking seeds 10i+1 to 10i+10, reporting wall-clock submission
// throughput. `make profile-cluster` profiles it beside
// BenchmarkClusterThroughput.
func BenchmarkClusterPolicyThroughput(b *testing.B) {
	b.ReportAllocs()
	spec, err := workload.LoadSpec("bench/specs/cluster-policy.json")
	if err != nil {
		b.Fatal(err)
	}
	var subs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 1; s <= 10; s++ {
			spec.Seed = uint64(10*i + s)
			report, err := RunClusterSpec(spec, nil)
			if err != nil {
				b.Fatal(err)
			}
			subs += int64(report.Submissions)
		}
	}
	b.ReportMetric(float64(subs)/b.Elapsed().Seconds(), "submissions/s")
}
