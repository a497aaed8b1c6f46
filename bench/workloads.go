package main

import (
	"embed"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"ecosched"
	"ecosched/internal/perfmodel"
	"ecosched/internal/slurm"
	"ecosched/internal/workload"
)

// The cluster specs are the benchmark's own copies, so an edit under
// the repository's specs/ cannot shift a workload.
//
//go:embed specs/cluster-nopolicy.json specs/cluster-policy.json
var specFS embed.FS

var workloadNames = []string{"submit-warm", "sweep-paper", "cluster-nopolicy", "cluster-policy"}

func newWorkload(opt options) (closedLoop, error) {
	c := common{opt: opt}
	switch opt.workload {
	case "submit-warm":
		w := &submitWarm{common: c, opsPerBatch: 5000, warmOps: 10000}
		if opt.quick {
			w.opsPerBatch, w.warmOps = 100, 200
		}
		return w, nil
	case "sweep-paper":
		w := &sweepPaper{common: c, warmOps: 7}
		if opt.quick {
			w.warmOps = 1
		}
		return w, nil
	case "cluster-nopolicy":
		w := &clusterRun{common: c, file: "specs/cluster-nopolicy.json", runsPerBatch: 1, warmRuns: 2}
		if opt.quick {
			w.quickSubs, w.warmRuns = 20000, 2
		}
		return w, nil
	case "cluster-policy":
		// The cost of one capped run swings by a quarter with the
		// arrival stream, so a batch holds several runs and a run of
		// the benchmark covers hundreds of streams.
		w := &clusterRun{common: c, file: "specs/cluster-policy.json", runsPerBatch: 10, warmRuns: 20}
		if opt.quick {
			w.quickSubs, w.runsPerBatch, w.warmRuns = 500, 2, 2
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames)
}

// subSeed derives the i-th independent seed from the run's seed
// (splitmix64 finaliser); it never returns 0, which the product reads
// as "use the default seed".
func subSeed(seed uint64, i int64) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1
	}
	return z
}

// ---- submit-warm ----

// submitWarm is the paper's submit path with the model preloaded: one
// op is sbatch of the opted-in HPCG job plus waiting for it to finish.
type submitWarm struct {
	common
	opsPerBatch, warmOps int

	d       *ecosched.Deployment
	dir     string
	opID    int64
	energyJ float64
	jobs    int64
	digest  string
}

func (w *submitWarm) plan() plan {
	if w.opt.quick {
		return plan{segments: 2, batchSeconds: 0.011, minBatches: 2}
	}
	// Four deployments a run bound the retained-job heap (about 1.4 KB
	// a job) and give four set-up samples.
	return plan{segments: 4, batchSeconds: 0.55, minBatches: 8}
}

func (w *submitWarm) setup(seg int) error {
	if err := w.closeDeployment(); err != nil {
		return err
	}
	w.dir = filepath.Join(w.opt.dataDir, fmt.Sprintf("submit-warm-%d", seg))
	d, err := preloadedDeployment(w.dir, subSeed(w.opt.seed, int64(seg)))
	if err != nil {
		return err
	}
	w.d = d
	h := fnv.New64a()
	for i := 0; i < w.warmOps; i++ {
		if done := w.op(); done != nil && seg == 0 {
			fmt.Fprintf(h, "%d %d %d %d %x %d\n", done.ID, done.Desc.NumTasks, done.Desc.MaxFreqKHz,
				done.Desc.ThreadsPerCPU, math.Float64bits(done.SystemJ), done.EndTime.UnixNano())
		}
	}
	if seg == 0 {
		w.digest = fmt.Sprintf("%016x", h.Sum64())
	}
	return nil
}

// preloadedDeployment is the paper's workflow up to the point where
// jobs can be rewritten: quick sweep, brute-force model, load-model.
func preloadedDeployment(dir string, seed uint64, opts ...ecosched.Option) (*ecosched.Deployment, error) {
	d, err := ecosched.New(dir, append([]ecosched.Option{ecosched.WithSeed(seed)}, opts...)...)
	if err != nil {
		return nil, err
	}
	if _, err := d.BenchmarkConfigs(ecosched.QuickSweepConfigs(), 0); err != nil {
		d.Close()
		return nil, err
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		d.Close()
		return nil, err
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (w *submitWarm) batch() (int, error) {
	for i := 0; i < w.opsPerBatch; i++ {
		w.op()
	}
	return w.opsPerBatch, nil
}

// op submits one opted-in job and waits for it. It returns the finished
// job, or nil when the operation failed.
func (w *submitWarm) op() *slurm.Job {
	w.attempted++
	w.opID++
	root := w.tr.start("submit.op", -1, w.opID)
	s := w.tr.start("slurm.submit_script", root, w.opID)
	job, err := w.d.SubmitHPCGOptIn()
	w.tr.end(s)
	if err != nil {
		// Covers a plugin chain over the submit budget: the controller
		// rejects such a submission.
		w.tr.end(root)
		w.fail("submit", err.Error())
		return nil
	}
	s = w.tr.start("slurm.wait_for", root, w.opID)
	done, err := w.d.Cluster.WaitFor(job.ID)
	w.tr.end(s)
	w.tr.end(root)
	if err != nil {
		w.fail("wait", err.Error())
		return nil
	}
	best := perfmodel.BestConfig()
	if done.State != slurm.StateCompleted {
		w.fail("final-state", fmt.Sprintf("job %d ended %s", done.ID, done.State))
		return nil
	}
	if c := done.Desc.Config(); c != best || done.Desc.MinFreqKHz != best.FreqKHz {
		w.fail("rewritten-to-winner", fmt.Sprintf("job %d ran as %v, want %v", done.ID, c, best))
		return nil
	}
	w.energyJ += done.SystemJ
	w.jobs++
	return done
}

func (w *submitWarm) closeDeployment() error {
	if w.d == nil {
		return nil
	}
	p := w.d.Plugin
	if p.Fallbacks != 0 || p.Rewritten != p.Submissions {
		w.fail("plugin-fallbacks", fmt.Sprintf("%d fallbacks, %d of %d submissions rewritten (last error: %v)",
			p.Fallbacks, p.Rewritten, p.Submissions, p.LastErr))
	}
	err := w.d.Close()
	w.d = nil
	if err != nil {
		return err
	}
	return os.RemoveAll(w.dir)
}

func (w *submitWarm) finish() outcome {
	err := w.closeDeployment()
	w.verify("deployments-closed", err == nil, "%v", err)
	w.verify("every-job-rewritten-to-32c-2.2GHz-1tpc", w.jobs == w.attempted, "%d of %d", w.jobs, w.attempted)
	return outcome{attempted: w.attempted, failed: w.failed, checks: w.checks, digest: w.digest,
		simEnergyKJ: w.energyJ / 1e3 / float64(w.jobs)}
}

// ---- sweep-paper ----

// sweepPaper is the offline phase: one op builds a deployment, runs the
// paper's 138-configuration sweep through Chronus, trains the
// brute-force model and closes.
type sweepPaper struct {
	common
	warmOps int

	n        int64  // ops issued; names the data directories
	dir      string // the last op's data directory, removed outside the timed batch
	table1   uint64 // digest of the first op's Table 1
	energyKJ float64
}

func (w *sweepPaper) plan() plan {
	if w.opt.quick {
		return plan{segments: 2, batchSeconds: 0.11, minBatches: 1}
	}
	return plan{segments: 3, batchSeconds: 0.11, minBatches: 10}
}

func (w *sweepPaper) setup(int) error {
	for i := 0; i < w.warmOps; i++ {
		w.op()
		if err := os.RemoveAll(w.dir); err != nil {
			return err
		}
	}
	return nil
}

func (w *sweepPaper) batch() (int, error) {
	w.op()
	return 1, nil
}

// between removes the op's files at once, before the kernel starts
// writing them back: left to pile up, their write-back and bulk
// deletion slowed later ops by up to 45 % on the sandbox's ext4.
func (w *sweepPaper) between() error { return os.RemoveAll(w.dir) }

func (w *sweepPaper) op() {
	w.attempted++
	w.n++
	w.dir = filepath.Join(w.opt.dataDir, fmt.Sprintf("sweep-paper-%d", w.n))

	root := w.tr.start("sweep-paper.op", -1, w.n)
	s := w.tr.start("sweep-paper.new", root, w.n)
	// Every op uses the run's seed, so every op must produce the same table.
	d, err := ecosched.New(w.dir, ecosched.WithSeed(w.opt.seed))
	w.tr.end(s)
	if err != nil {
		w.tr.end(root)
		w.fail("new", err.Error())
		return
	}
	s = w.tr.start("sweep-paper.run_sweep", root, w.n)
	res, err := d.RunSweepExperiment()
	w.tr.end(s)
	if err == nil {
		s = w.tr.start("sweep-paper.train", root, w.n)
		_, err = d.TrainModel("brute-force")
		w.tr.end(s)
	}
	s = w.tr.start("sweep-paper.close", root, w.n)
	cerr := d.Close()
	w.tr.end(s)
	w.tr.end(root)
	if err == nil {
		err = cerr
	}
	if err != nil {
		w.fail("sweep", err.Error())
		return
	}
	if msg := w.checkSweep(res); msg != "" {
		w.fail("sweep-output", msg)
	}
}

// checkSweep holds one sweep against the paper's headline: 138 rows,
// 32 cores / 2.2 GHz / no hyper-threading on top, and a GFLOPS/W gain
// over the standard configuration of about 13 %. No value from an
// earlier commit is stored, so a legitimate model change passes.
func (w *sweepPaper) checkSweep(res *ecosched.SweepResult) string {
	if len(res.Rows) != 138 {
		return fmt.Sprintf("%d rows, want 138", len(res.Rows))
	}
	best := res.Best()
	if best.Cores != 32 || best.GHz != 2.2 || best.HyperThread {
		return fmt.Sprintf("winner %+v, want 32 cores / 2.2 GHz / no HT", best)
	}
	std, ok := res.Find(32, 2.5, false)
	if !ok {
		return "standard configuration missing"
	}
	if gain := best.GFLOPSPerWatt/std.GFLOPSPerWatt - 1; gain < 0.12 || gain > 0.14 {
		return fmt.Sprintf("GFLOPS/W gain %.4f outside 0.12..0.14 (paper 0.13)", gain)
	}
	h := fnv.New64a()
	res.WriteTable1(h)
	if w.table1 == 0 {
		w.table1 = h.Sum64()
	} else if h.Sum64() != w.table1 {
		return fmt.Sprintf("Table 1 digest %016x differs from the first op's %016x", h.Sum64(), w.table1)
	}
	// System energy of one HPCG run at the winning configuration.
	w.energyKJ = best.AvgSystemW * perfmodel.Default().JobGFLOP / best.GFLOPS / 1e3
	return ""
}

func (w *sweepPaper) finish() outcome {
	w.verify("138-rows-winner-32c-2.2GHz-noHT-gain-12..14pct-same-table1", w.failed == 0, "%d of %d ops", w.failed, w.attempted)
	return outcome{attempted: w.attempted, failed: w.failed, checks: w.checks,
		digest: fmt.Sprintf("%016x", w.table1), simEnergyKJ: w.energyKJ}
}

// ---- cluster-nopolicy and cluster-policy ----

// clusterRun drives the cluster simulator: one op is one simulated
// submission, one run is RunClusterSpec on the spec under a seed of its
// own, and a batch is runsPerBatch runs.
type clusterRun struct {
	common
	file                   string
	runsPerBatch, warmRuns int
	quickSubs              int // -quick: submissions per run

	spec       workload.Spec
	runs       int64 // timed runs issued; the i-th gets subSeed(seed, i)
	energyKJ   float64
	warmDigest uint64 // WriteText digest of the run under the run's own seed
}

func (w *clusterRun) plan() plan {
	if w.opt.quick {
		return plan{segments: 2, batchSeconds: 0.05, minBatches: 2}
	}
	// Both specs are sized so that a batch takes about 0.45 s.
	return plan{segments: 3, batchSeconds: 0.45, minBatches: 10}
}

// loadSpec parses one of the benchmark's own specs; the caller sets
// the seed of every run.
func loadSpec(file string) (workload.Spec, error) {
	data, err := specFS.ReadFile(file)
	if err != nil {
		return workload.Spec{}, err
	}
	spec, err := workload.ParseSpec(data)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("%s: %w", file, err)
	}
	return spec, nil
}

func (w *clusterRun) setup(seg int) error {
	s := w.tr.start("cluster.load_spec", -1, int64(seg))
	spec, err := loadSpec(w.file)
	w.tr.end(s)
	if err != nil {
		return err
	}
	if w.quickSubs > 0 {
		spec.MaxSubmissions = w.quickSubs
	}
	w.spec = spec
	// The first warm-up run of every set-up uses the run's own seed:
	// their reports must agree byte for byte. The others each get a
	// stream of their own, so set-up time does not hang on one stream.
	for i := 0; i < w.warmRuns; i++ {
		seed := w.opt.seed
		if i > 0 {
			seed = subSeed(^w.opt.seed, int64(seg*w.warmRuns+i))
		}
		rep, err := w.run(seed)
		if err != nil {
			return err
		}
		if i > 0 {
			continue
		}
		h := fnv.New64a()
		rep.WriteText(h)
		if w.warmDigest == 0 {
			w.warmDigest = h.Sum64()
		} else if h.Sum64() != w.warmDigest {
			w.fail("same-seed-same-report", fmt.Sprintf("report digest %016x, first was %016x", h.Sum64(), w.warmDigest))
		}
	}
	return nil
}

func (w *clusterRun) batch() (int, error) {
	ops := 0
	for i := 0; i < w.runsPerBatch; i++ {
		rep, err := w.run(subSeed(w.opt.seed, w.runs))
		w.runs++
		if err != nil {
			return 0, err
		}
		ops += rep.Submissions
	}
	return ops, nil
}

func (w *clusterRun) run(seed uint64) (*ecosched.ClusterReport, error) {
	spec := w.spec
	spec.Seed = seed
	s := w.tr.start("clustersim.run_cluster_spec", -1, int64(seed))
	rep, err := ecosched.RunClusterSpec(spec, nil)
	w.tr.end(s)
	if err != nil {
		return nil, err
	}
	w.attempted += int64(spec.MaxSubmissions)
	w.energyKJ += rep.ClusterSystemKJ
	w.checkReport(rep, spec)
	return rep, nil
}

// checkReport counts submissions the run lost. A job the model ends at
// its time limit, or cancels because its deadline cannot be met (about
// one arrival stream in five thousand has one), is a simulated outcome,
// not a failure.
func (w *clusterRun) checkReport(rep *ecosched.ClusterReport, spec workload.Spec) {
	if rep.Seed != spec.Seed {
		w.fail("seed-override", fmt.Sprintf("report carries seed %d, run asked for %d", rep.Seed, spec.Seed))
	}
	if lost := spec.MaxSubmissions - rep.Submissions; lost != 0 {
		w.failN("submission-count", abs(lost), fmt.Sprintf("%d submissions, spec asks for %d", rep.Submissions, spec.MaxSubmissions))
	}
	if rep.Rejected != 0 {
		w.failN("rejected", rep.Rejected, fmt.Sprintf("%d submissions rejected (seed %d)", rep.Rejected, spec.Seed))
	}
	t := rep.Totals
	if lost := rep.Submissions - rep.Rejected - t.Completed - t.Failed - t.Cancelled; lost != 0 {
		w.failN("unaccounted", abs(lost), fmt.Sprintf("%d submissions in no terminal state (seed %d)", lost, spec.Seed))
	}
	if pl := rep.Policy; pl != nil {
		if pl.CapViolations != 0 {
			w.fail("cap-violations", fmt.Sprintf("%d instants over the power cap (seed %d)", pl.CapViolations, spec.Seed))
		}
		for _, p := range rep.Partitions {
			if p.PeakDrawW > p.CapW {
				w.fail("peak-draw", fmt.Sprintf("partition %s drew %.1f W over a %.1f W cap (seed %d)", p.Name, p.PeakDrawW, p.CapW, spec.Seed))
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (w *clusterRun) finish() outcome {
	name := "all-submitted-none-rejected-all-accounted-same-seed-same-report"
	if w.spec.Policy != nil {
		name += "-no-cap-violation-peak-under-cap"
	}
	w.verify(name, w.failed == 0, "%d of %d submissions", w.failed, w.attempted)
	runs := float64(w.attempted) / float64(w.spec.MaxSubmissions) // warm-up runs included
	return outcome{attempted: w.attempted, failed: w.failed, checks: w.checks,
		digest: fmt.Sprintf("%016x", w.warmDigest), simEnergyKJ: w.energyKJ / runs}
}
