package ecosched

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ecosched/internal/core"
	"ecosched/internal/leakcheck"
	"ecosched/internal/paperdata"
	"ecosched/internal/repository"
	"ecosched/internal/slurm"
)

func newDeployment(t *testing.T, opts ...Option) *Deployment {
	t.Helper()
	d, err := New(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestNewDeploymentRequiresDataDir(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Fatal("missing DataDir accepted")
	}
}

// A repository that fails to open must not leave the tracing New
// already started behind: the async drainer goroutine and the open
// events.jsonl handle are torn down on every error return.
func TestNewDeploymentUnknownRepo(t *testing.T) {
	defer leakcheck.Check(t)()
	fileAsDatabase := t.TempDir()
	if err := os.WriteFile(filepath.Join(fileAsDatabase, "database"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		dir  string
		opts []Option
	}{
		{"unknown repository kind", t.TempDir(), []Option{WithRepository("oracle"), WithTracing()}},
		{"database is a regular file", fileAsDatabase, []Option{WithTracing()}},
	} {
		if _, err := New(tc.dir, tc.opts...); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}

func TestDeploymentDefaults(t *testing.T) {
	d := newDeployment(t)
	if len(d.Nodes) != 1 {
		t.Fatalf("%d nodes", len(d.Nodes))
	}
	if got := d.Nodes[0].Spec().CPUModel; !strings.Contains(got, "EPYC 7502P") {
		t.Fatalf("node CPU = %q", got)
	}
	st, err := d.Settings.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "user" {
		t.Fatalf("plugin state = %q", st.State)
	}
}

func TestCSVRepositoryOption(t *testing.T) {
	d := newDeployment(t, WithRepository(RepoCSV))
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs()[:2], 0); err != nil {
		t.Fatal(err)
	}
	systems, _ := d.Repo.ListSystems()
	if len(systems) != 1 {
		t.Fatalf("%d systems via CSV repo", len(systems))
	}
}

func TestPaperSweepConfigs(t *testing.T) {
	configs := PaperSweepConfigs()
	if len(configs) != len(paperdata.Sweep) {
		t.Fatalf("%d configs", len(configs))
	}
}

func TestQuickSweepContainsBestAndStandard(t *testing.T) {
	var hasBest, hasStd bool
	for _, c := range QuickSweepConfigs() {
		if c == BestConfig() {
			hasBest = true
		}
		if c == StandardConfig() {
			hasStd = true
		}
	}
	if !hasBest || !hasStd {
		t.Fatal("quick sweep must include the best and standard configurations")
	}
}

// TestUserJourney is the README quickstart, verified.
func TestUserJourney(t *testing.T) {
	d := newDeployment(t)
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
	done, err := d.Cluster.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != slurm.StateCompleted {
		t.Fatalf("job %s (%s)", done.State, done.Reason)
	}
	rec, _ := d.Cluster.Accounting().Record(done.ID)
	if rec.FreqKHz != 2_200_000 {
		t.Fatalf("opted-in job ran at %d kHz, want the 2.2 GHz rewrite", rec.FreqKHz)
	}
	if d.Plugin.Rewritten == 0 {
		t.Fatal("plugin reports no rewrites")
	}
}

func TestTrainModelWithoutBenchmarks(t *testing.T) {
	d := newDeployment(t)
	if _, err := d.TrainModel("brute-force"); err == nil {
		t.Fatal("training without benchmarks accepted")
	}
}

func TestTraceExperimentMatchesTable2(t *testing.T) {
	d := newDeployment(t)
	res, err := d.RunTraceExperiment()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want)/want > tol {
			t.Errorf("%s = %.1f, paper %.1f", name, got, want)
		}
	}
	check("std avg sys W", res.StandardAgg.AvgSystemW, paperdata.Table2Standard.AvgSystemWatts, 0.03)
	check("std sys kJ", res.StandardAgg.SystemKJ, paperdata.Table2Standard.SystemKJ, 0.03)
	check("best avg sys W", res.BestAgg.AvgSystemW, paperdata.Table2Best.AvgSystemWatts, 0.03)
	check("best cpu kJ", res.BestAgg.CPUKJ, paperdata.Table2Best.CPUKJ, 0.03)
	check("std temp", res.StandardAgg.AvgCPUTempC, paperdata.Table2Standard.AvgCPUTempC, 0.05)

	if res.SystemReductionPct < 10 || res.SystemReductionPct > 13 {
		t.Errorf("system reduction %.1f%%, paper says 11%%", res.SystemReductionPct)
	}
	if res.CPUReductionPct < 16.5 || res.CPUReductionPct > 20 {
		t.Errorf("CPU reduction %.1f%%, paper says 18%%", res.CPUReductionPct)
	}
	// Figure 15's qualitative claim: the standard trace fluctuates,
	// the best one is stable.
	if res.Standard.PowerSpread() < 2.5*res.Best.PowerSpread() {
		t.Errorf("power spreads %.1f vs %.1f lack the Figure 15 contrast",
			res.Standard.PowerSpread(), res.Best.PowerSpread())
	}
	var buf bytes.Buffer
	res.WriteTable2(&buf)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("WriteTable2 output malformed")
	}
}

func TestPowerAccuracyExperimentMatchesEq1(t *testing.T) {
	d := newDeployment(t)
	res, err := d.RunPowerAccuracyExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PercentDiff-paperdata.Eq1PercentDiff) > 0.6 {
		t.Fatalf("IPMI-vs-wattmeter difference %.2f%%, paper says 5.96%%", res.PercentDiff)
	}
	if res.PSU1Watts >= res.PSU2Watts {
		t.Fatal("PSU1 should draw less than PSU2, as in Figure 13")
	}
	var buf bytes.Buffer
	res.WriteEq1(&buf)
	if !strings.Contains(buf.String(), "percentage difference") {
		t.Fatal("WriteEq1 output malformed")
	}
}

func TestEq2Reduction(t *testing.T) {
	// The paper's Equation 2: a 6 % efficiency improvement is a 5.66 %
	// consumption reduction.
	if got := Eq2ReductionPct(6); math.Abs(got-5.66) > 0.01 {
		t.Fatalf("Eq2ReductionPct(6) = %.3f, want 5.66", got)
	}
	if Eq2ReductionPct(0) != 0 {
		t.Fatal("zero improvement should be zero reduction")
	}
}

func TestPreloadAblation(t *testing.T) {
	d := newDeployment(t)
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		t.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunPreloadAblation(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PreloadWithin {
		t.Fatalf("pre-loaded prediction %v exceeds the %v budget", res.PreloadLatency, res.Budget)
	}
	if res.ColdWithin {
		t.Fatalf("cold prediction %v fits the budget — the pre-load design would be pointless", res.ColdLatency)
	}
	if res.ColdLatency <= res.PreloadLatency {
		t.Fatal("cold path not slower than pre-loaded path")
	}
}

// TestSweepExperiment runs the full 138-configuration reproduction of
// Tables 1 and 4–6 through the whole pipeline. It is the heaviest test
// in the repository (~80 simulated hours).
func TestSweepExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	d := newDeployment(t)
	res, err := d.RunSweepExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(paperdata.Sweep) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(paperdata.Sweep))
	}
	best := res.Best()
	if best.Cores != 32 || best.GHz != 2.2 || best.HyperThread {
		t.Fatalf("best = %+v, paper says 32c @ 2.2 GHz without HT", best)
	}
	if maxErr := res.MaxRelErrorVsPaper(); maxErr > 0.05 {
		t.Fatalf("max relative error vs Tables 4-6 = %.2f%%", 100*maxErr)
	}
	if overlap := res.Top13Overlap(); overlap < 12 {
		t.Fatalf("top-13 overlap with Table 1 = %d/13", overlap)
	}
	std, ok := res.Find(32, 2.5, false)
	if !ok {
		t.Fatal("standard configuration missing from sweep")
	}
	headline := best.GFLOPSPerWatt / std.GFLOPSPerWatt
	if headline < 1.10 || headline > 1.16 {
		t.Fatalf("headline improvement ×%.3f, paper says ×1.13", headline)
	}
	if rho := res.RankCorrelation(); rho < 0.995 {
		t.Fatalf("Spearman rank correlation with the paper's ordering = %.4f", rho)
	}
	// Figure 14 surfaces cover all 23 core counts × 3 frequencies.
	for _, ht := range []bool{true, false} {
		if got := len(res.Surface(ht)); got != 69 {
			t.Fatalf("surface(ht=%v) has %d points", ht, got)
		}
	}
	var buf bytes.Buffer
	res.WriteTable1(&buf)
	res.WriteTables456(&buf)
	res.WriteFig14(&buf)
	for _, frag := range []string{"Table 1", "Tables 4-6", "Figure 14"} {
		if !strings.Contains(buf.String(), frag) {
			t.Fatalf("report missing %q", frag)
		}
	}
}

func TestOptimizerAblationAfterQuickSweep(t *testing.T) {
	d := newDeployment(t)
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		t.Fatal(err)
	}
	rows, err := d.RunOptimizerAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d optimizer rows", len(rows))
	}
	for _, r := range rows {
		if r.RegretPct < -0.01 || r.RegretPct > 100 {
			t.Fatalf("%s regret %.2f%% out of range", r.Name, r.RegretPct)
		}
	}
	// Brute force on a sweep containing the optimum has zero regret.
	for _, r := range rows {
		if r.Name == "brute-force" && r.RegretPct > 0.01 {
			t.Fatalf("brute force regret %.2f%%, should be 0", r.RegretPct)
		}
	}
}

func TestComparisonExperiment(t *testing.T) {
	d := newDeployment(t)
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		t.Fatal(err)
	}
	trace, err := d.RunTraceExperiment()
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunComparisonExperiment(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("%d comparison rows", len(res.Rows))
	}
	if res.Rows[0].SystemReductionPct <= res.Rows[1].SystemReductionPct {
		t.Fatalf("eco (%.2f%%) should beat related work (%.2f%%), as Table 3 reports",
			res.Rows[0].SystemReductionPct, res.Rows[1].SystemReductionPct)
	}
	var buf bytes.Buffer
	res.WriteTable3(&buf)
	if !strings.Contains(buf.String(), "NaN") {
		t.Fatal("related-work CPU column should print NaN, as in the paper")
	}
}

func TestMultiNodeDeployment(t *testing.T) {
	d := newDeployment(t, WithNodes(4))
	if len(d.Nodes) != 4 {
		t.Fatalf("%d nodes", len(d.Nodes))
	}
	var jobs []*slurm.Job
	for i := 0; i < 4; i++ {
		j, err := d.SubmitHPCG(StandardConfig())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	names := map[string]bool{}
	for _, j := range jobs {
		done, err := d.Cluster.WaitFor(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		names[done.NodeName] = true
	}
	if len(names) != 4 {
		t.Fatalf("jobs ran on %d distinct nodes, want 4", len(names))
	}
}

func TestFmtDuration(t *testing.T) {
	if got := fmtDuration(18*time.Minute + 29*time.Second); got != "0:18:29" {
		t.Fatalf("fmtDuration = %q", got)
	}
	if got := fmtDuration(3*time.Hour + 2*time.Minute + 1*time.Second); got != "3:02:01" {
		t.Fatalf("fmtDuration = %q", got)
	}
}

func TestGovernorAblation(t *testing.T) {
	d := newDeployment(t)
	rows, err := d.RunGovernorAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d governor rows", len(rows))
	}
	perf, ondemand, powersave, eco := rows[0], rows[1], rows[2], rows[3]
	// For a saturated batch node, ondemand ≡ performance — the
	// premise for the plugin's explicit pinning.
	if math.Abs(perf.SystemKJ-ondemand.SystemKJ) > 0.5 {
		t.Fatalf("ondemand %.1f kJ vs performance %.1f kJ — should coincide under load",
			ondemand.SystemKJ, perf.SystemKJ)
	}
	// The eco pin is the best of all four.
	for _, r := range rows[:3] {
		if eco.SystemKJ >= r.SystemKJ {
			t.Fatalf("eco pin %.1f kJ not below %s %.1f kJ", eco.SystemKJ, r.Governor, r.SystemKJ)
		}
	}
	// Powersave trades runtime for energy: slowest run of the four.
	for _, r := range []GovernorRow{perf, ondemand, eco} {
		if powersave.Runtime <= r.Runtime {
			t.Fatalf("powersave runtime %v not the slowest (vs %v)", powersave.Runtime, r.Runtime)
		}
	}
}

func TestStreamApplicationThroughSubmitPath(t *testing.T) {
	d := newDeployment(t)
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

	const streamPath = "/opt/stream/stream_c"
	runner, err := core.NewStreamRunner(d.Cluster, streamPath)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := d.Chronus.WithRunner(runner)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Benchmark.Run(QuickSweepConfigs(), 0); err != nil {
		t.Fatal(err)
	}
	systems, _ := stream.InitModel.Systems()
	sMeta, err := stream.InitModel.Run("brute-force", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.LoadModel.Run(sMeta.ID); err != nil {
		t.Fatal(err)
	}

	// The plugin rewrites each binary to its own optimum.
	hpcgJob, err := d.SubmitHPCGOptIn()
	if err != nil {
		t.Fatal(err)
	}
	hpcgDone, _ := d.Cluster.WaitFor(hpcgJob.ID)
	streamJob, err := d.Cluster.SubmitScript(`#!/bin/bash
#SBATCH --nodes=1
#SBATCH --ntasks=32
#SBATCH --cpu-freq=2500000
#SBATCH --comment "chronus"

srun --mpi=pmix_v4 --ntasks-per-core=1 ` + streamPath + "\n")
	if err != nil {
		t.Fatal(err)
	}
	streamDone, _ := d.Cluster.WaitFor(streamJob.ID)

	hRec, _ := d.Cluster.Accounting().Record(hpcgDone.ID)
	sRec, _ := d.Cluster.Accounting().Record(streamDone.ID)
	if hRec.FreqKHz != 2_200_000 {
		t.Fatalf("HPCG rewritten to %d kHz, want 2.2 GHz", hRec.FreqKHz)
	}
	if sRec.FreqKHz != 1_500_000 {
		t.Fatalf("STREAM rewritten to %d kHz, want 1.5 GHz (bandwidth-bound)", sRec.FreqKHz)
	}
}

// TestParallelismDoesNotChangeResults is the deployment-level
// determinism check for the worker-pool sweep: the same configurations
// benchmarked at parallelism 1 and 4 must persist identical rows —
// the paper's tables cannot depend on how many workers measured them.
func TestParallelismDoesNotChangeResults(t *testing.T) {
	configs := QuickSweepConfigs()
	rows := make([][]repository.Benchmark, 2)
	for i, p := range []int{1, 4} {
		d := newDeployment(t, WithParallelism(p))
		if _, err := d.BenchmarkConfigs(configs, 0); err != nil {
			t.Fatal(err)
		}
		systems, err := d.Repo.ListSystems()
		if err != nil || len(systems) != 1 {
			t.Fatalf("systems = %v, err = %v", systems, err)
		}
		rows[i], err = d.Repo.ListBenchmarks(systems[0].ID, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows[i]) != len(configs) {
			t.Fatalf("parallelism %d persisted %d rows, want %d", p, len(rows[i]), len(configs))
		}
	}
	for i := range rows[0] {
		if rows[0][i] != rows[1][i] {
			t.Fatalf("row %d differs between parallelism 1 and 4:\n  %+v\n  %+v", i, rows[0][i], rows[1][i])
		}
	}
}

// The offline sweep's allocation count and volume are properties of the
// code, not of the host: per configuration one provisioned
// node/BMC/controller stack and one CSV buffer, with the sample slab
// handed on from the configuration before — about ninety allocations
// and little beyond the CSV's own bytes. It was ~360 and ~290 KB while
// every stack grew its own sample slice, spent 64 KB on a job table
// for one job and allocated a backing array per calendar bucket its
// ticker touched.
func TestSweepAllocationsPerConfig(t *testing.T) {
	const ceiling, bytesCeiling = 112, 71_000 // measured 89 and 57,010, plus a quarter
	configs := PaperSweepConfigs()
	d := newDeployment(t, WithParallelism(1))
	var sweepErr error
	var sweepBytes uint64
	allocs := testing.AllocsPerRun(1, func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := d.BenchmarkConfigs(configs, 3*time.Second); err != nil {
			sweepErr = err
		}
		runtime.ReadMemStats(&after)
		if sweepBytes == 0 {
			// The deployment's first sweep, slab growth included: what a
			// new (system, application) pair pays.
			sweepBytes = after.TotalAlloc - before.TotalAlloc
		}
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	per := allocs / float64(len(configs))
	t.Logf("%.0f allocations per configuration", per)
	if per > ceiling {
		t.Fatalf("a %d-configuration sweep allocates %.0f times per configuration, ceiling %d", len(configs), per, ceiling)
	}
	perBytes := sweepBytes / uint64(len(configs))
	t.Logf("%d bytes allocated per configuration", perBytes)
	if perBytes > bytesCeiling {
		t.Fatalf("a %d-configuration sweep allocates %d bytes per configuration, ceiling %d", len(configs), perBytes, bytesCeiling)
	}
}
