package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ecosched"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/hw"
	"ecosched/internal/ipmi"
	"ecosched/internal/metrics"
	"ecosched/internal/optimizer"
	"ecosched/internal/perfmodel"
	"ecosched/internal/procfs"
	"ecosched/internal/repository"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/trace"
	"ecosched/internal/workload"
)

// perLayer lists the per-layer metrics in print order. Each is timed
// from this package around calls into one layer's public functions;
// nothing inside the product is instrumented. README.md says which
// end-to-end metric each one should move, and on which workload.
var perLayer = []metricDef{
	// root package: deployment lifecycle and the cluster driver
	{"ecosched.new_ms", "ms"},
	{"ecosched.quick_sweep_ms", "ms"},
	{"ecosched.train_ms", "ms"},
	{"ecosched.preload_ms", "ms"},
	{"ecosched.close_ms", "ms"},
	{"clustersim.ns_per_sub", "ns"},
	{"clustersim.lanes1_ns_per_sub", "ns"},
	{"clustersim.lane_speedup", "ratio"},
	{"clustersim.record_ns_per_sub", "ns"},
	{"clustersim.replay_ns_per_sub", "ns"},
	{"report.write_text_us", "us"},
	{"clustersim.sim_makespan_s", "s"},
	{"clustersim.sim_mean_wait_s", "s"},
	{"clustersim.jobs_completed", "count"},
	{"clustersim.jobs_failed", "count"},
	{"slurm.peak_queue", "count"},
	// slurm
	{"slurm.submit_script_us", "us"},
	{"slurm.parse_script_us", "us"},
	{"slurm.wait_for_us", "us"},
	{"slurm.submit_self_us", "us"},
	{"slurm.new_cluster_ms", "ms"},
	{"slurm.new_cluster_us", "us"},
	{"slurm.submit_desc_ns", "ns"},
	// slurm energy policies: the policy block of the cluster-policy spec, ablated
	{"policy.none_us_per_sub", "us"},
	{"policy.cap_only_us_per_sub", "us"},
	{"policy.cosched_only_us_per_sub", "us"},
	{"policy.defer_only_us_per_sub", "us"},
	{"policy.all_us_per_sub", "us"},
	{"policy.cap_denials_per_sub", "ratio"},
	{"policy.freq_capped", "count"},
	{"policy.deferred", "count"},
	{"policy.forced_dispatches", "count"},
	{"policy.co_scheduled", "count"},
	{"policy.cap_violations", "count"},
	{"policy.deadline_misses", "count"},
	{"policy.dispatch_per_attempt", "ratio"},
	// ecoplugin
	{"ecoplugin.job_submit_us", "us"},
	{"ecoplugin.self_us", "us"},
	{"ecoplugin.system_hash_us", "us"},
	{"ecoplugin.rewrite_ratio", "ratio"},
	// core, optimizer, repository
	{"core.predict_hit_us", "us"},
	{"core.predict_cold_us", "us"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.sweep_ms", "ms"},
	{"core.sweep_p1_ms", "ms"},
	{"core.sweep_p2_ms", "ms"},
	{"core.sweep_parallel_eff_2", "ratio"},
	{"core.sweep_allocs_per_config", "count"},
	{"optimizer.train_us", "us"},
	{"optimizer.best_config_us", "us"},
	{"repository.save_batch_us", "us"},
	{"repository.save_batch_csv_us", "us"},
	{"repository.list_us", "us"},
	// hw, ipmi
	{"hw.new_node_us", "us"},
	{"ipmi.new_bmc_us", "us"},
	// workload, simclock
	{"workload.load_spec_us", "us"},
	{"workload.gen_ns_per_sub", "ns"},
	{"workload.log_write_ns_per_sub", "ns"},
	{"workload.log_read_ns_per_sub", "ns"},
	{"simclock.event_ns", "ns"},
	// metrics, trace
	{"metrics.observe_ns", "ns"},
	{"metrics.snapshot_us", "us"},
	{"trace.span_overhead_us", "us"},
	{"trace.dropped", "count"},
	// submit tails: per-operation wall time, too unsteady to gate
	{"submit.op_p99_us", "us"},
	{"submit.op_p999_us", "us"},
	{"submit.sim_chain_p99_us", "us"},
	// Go runtime and the tracer's own cost, for the traced workload
	{"runtime.gc_cycles_per_mop", "1/Mop"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_us_per_op", "us"},
	{"bench.trace_overhead_frac", "ratio"},
}

// prober runs the layer probes. Every probe records spans on the
// run's tracer and derives its metric from them.
type prober struct {
	opt options
	tr  *tracer
	res *result
	dir string
}

// n picks a size by mode.
func (p *prober) n(normal, quick int) int {
	if p.opt.quick {
		return quick
	}
	return normal
}

// runProbes measures every layer once, whatever the workload: the
// layers are shared, and a trace run reports them all.
func runProbes(ctx context.Context, opt options, tr *tracer, res *result) error {
	p := &prober{opt: opt, tr: tr, res: res, dir: filepath.Join(opt.dataDir, "probes")}
	defer os.RemoveAll(p.dir)
	for _, probe := range []func() error{p.lifecycle, p.submitPath, p.sweepPath, p.nodeStacks, p.clusterPath, p.generator, p.eventQueue, p.policies, p.telemetry} {
		if err := probe(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// spans runs fn reps times, each inside one span that covers calls
// calls; fn makes the calls itself so short ones are timed by the chunk.
func (p *prober) spans(name string, reps, calls int, fn func() error) error {
	for r := 0; r < reps; r++ {
		s := p.tr.startN(name, -1, int64(r), calls)
		err := fn()
		p.tr.end(s)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// report sets a metric to the median per-call time of the named spans,
// converted from nanoseconds by div.
func (p *prober) report(metric, spanName string, div float64) float64 {
	ns := p.tr.perCallNS(spanName)
	v := median(ns) / div
	p.res.set(metric, v, len(ns))
	return v
}

// check records a probe's correctness check on the result.
func (p *prober) check(name string, ok bool, format string, args ...any) {
	p.res.Checks = append(p.res.Checks, newCheck(name, ok, format, args...))
}

// lifecycle times the steps that take a data directory to a deployment
// able to rewrite jobs, and its teardown.
func (p *prober) lifecycle() error {
	for r := 0; r < p.n(8, 2); r++ {
		dir := filepath.Join(p.dir, fmt.Sprintf("lifecycle-%d", r))
		op := int64(r)
		s := p.tr.start("ecosched.new", -1, op)
		d, err := ecosched.New(dir, ecosched.WithSeed(p.opt.seed))
		p.tr.end(s)
		if err != nil {
			return err
		}
		s = p.tr.start("ecosched.quick_sweep", -1, op)
		_, err = d.BenchmarkConfigs(ecosched.QuickSweepConfigs(), 0)
		p.tr.end(s)
		if err == nil {
			s = p.tr.start("ecosched.train", -1, op)
			var meta repository.ModelMeta
			meta, err = d.TrainModel(optimizer.NameBruteForce)
			p.tr.end(s)
			if err == nil {
				s = p.tr.start("ecosched.preload", -1, op)
				_, err = d.PreloadModel(meta.ID)
				p.tr.end(s)
			}
		}
		s = p.tr.start("ecosched.close", -1, op)
		cerr := d.Close()
		p.tr.end(s)
		if err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("lifecycle: %w", err)
		}
	}
	p.report("ecosched.new_ms", "ecosched.new", 1e6)
	p.report("ecosched.quick_sweep_ms", "ecosched.quick_sweep", 1e6)
	p.report("ecosched.train_ms", "ecosched.train", 1e6)
	p.report("ecosched.preload_ms", "ecosched.preload", 1e6)
	p.report("ecosched.close_ms", "ecosched.close", 1e6)
	return nil
}

// optInScript is the batch script Deployment.SubmitHPCGOptIn submits.
func optInScript(hpcgPath string) string {
	return fmt.Sprintf("#!/bin/bash\n#SBATCH --nodes=1\n#SBATCH --ntasks=32\n#SBATCH --cpu-freq=2500000\n#SBATCH --comment %q\n\nsrun --mpi=pmix_v4 --ntasks-per-core=1 %s\n",
		ecoplugin.OptInComment, hpcgPath)
}

// submitPath takes the submit operation apart: the whole op, then each
// layer below it called directly, so a layer's own time is the
// difference between its call and the call it makes.
func (p *prober) submitPath() error {
	d, err := preloadedDeployment(filepath.Join(p.dir, "submit"), p.opt.seed)
	if err != nil {
		return err
	}
	defer d.Close()

	// The op as the workload issues it. Enough of them that ten lie
	// beyond the 99.9th percentile.
	sw := &submitWarm{common: common{opt: p.opt, tr: p.tr}, d: d}
	for i := 0; i < p.n(20000, 300); i++ {
		sw.op()
	}
	p.check("probe-submit-ops", sw.failed == 0, "%d of %d failed: %v", sw.failed, sw.attempted, sw.checks)
	submit := p.report("slurm.submit_script_us", "slurm.submit_script", 1e3)
	p.report("slurm.wait_for_us", "slurm.wait_for", 1e3)
	ops := p.tr.perCallNS("submit.op")
	p.res.set("submit.op_p99_us", quantile(ops, 0.99)/1e3, len(ops))
	p.res.set("submit.op_p999_us", quantile(ops, 0.999)/1e3, len(ops))
	snap := d.Metrics.Snapshot()
	chain := snap.Histograms[slurm.MetricChainLatency]
	p.res.set("submit.sim_chain_p99_us", chain.P99*1e6, int(chain.Count))

	script := optInScript(d.HPCGPath)
	desc, err := slurm.ParseBatchScript(script)
	if err != nil {
		return err
	}
	reps, calls := p.n(50, 5), p.n(200, 20)
	if err := p.spans("slurm.parse_script", reps, calls, func() error {
		for i := 0; i < calls; i++ {
			if _, err := slurm.ParseBatchScript(script); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.report("slurm.parse_script_us", "slurm.parse_script", 1e3)

	// The plugin allocates on every call, so these are timed call by
	// call: a median over chunks would fold collector cycles in, and the
	// per-op spans above, which it is subtracted from, do not.
	ctx := context.Background()
	single := p.n(5000, 100)
	before := *d.Plugin
	if err := p.spans("ecoplugin.job_submit", single, 1, func() error {
		job := desc // the plugin rewrites the description it is handed
		_, err := d.Plugin.JobSubmit(ctx, &job, 0)
		return err
	}); err != nil {
		return err
	}
	plugin := p.report("ecoplugin.job_submit_us", "ecoplugin.job_submit", 1e3)
	p.res.set("ecoplugin.rewrite_ratio", float64(d.Plugin.Rewritten-before.Rewritten)/float64(d.Plugin.Submissions-before.Submissions), single)
	p.res.set("slurm.submit_self_us", submit-plugin, single)

	fs := procfs.New(d.Nodes[0])
	if err := p.spans("ecoplugin.system_hash", single, 1, func() error {
		_, err := ecoplugin.SystemHash(fs)
		return err
	}); err != nil {
		return err
	}
	p.report("ecoplugin.system_hash_us", "ecoplugin.system_hash", 1e3)

	hit, err := p.predictHits(d, "core.predict_hit", reps, calls)
	if err != nil {
		return err
	}
	p.res.set("core.predict_hit_us", hit, reps)
	p.res.set("ecoplugin.self_us", plugin-hit, reps)

	// load-model drops the decoded model, so the next prediction reads
	// and decodes the pre-loaded file again.
	models, err := d.Chronus.LoadModel.Models()
	if err != nil || len(models) == 0 {
		return fmt.Errorf("listing models: %v (%d found)", err, len(models))
	}
	req, err := predictRequest(d)
	if err != nil {
		return err
	}
	for r := 0; r < reps; r++ {
		if _, err := d.PreloadModel(models[0].ID); err != nil {
			return err
		}
		s := p.tr.start("core.predict_cold", -1, int64(r))
		res, err := d.Chronus.Predict.Predict(ctx, req)
		p.tr.end(s)
		if err != nil {
			return err
		}
		if res.Source == ecoplugin.SourceCache {
			return fmt.Errorf("prediction after load-model was served from the cache")
		}
	}
	p.report("core.predict_cold_us", "core.predict_cold", 1e3)

	snap = d.Metrics.Snapshot()
	hits, misses := snap.Counters["chronus.predict.cache_hit"], snap.Counters["chronus.predict.cache_miss"]
	p.res.set("core.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))

	// The same cache hit on a deployment with the decision tracer on.
	dt, err := preloadedDeployment(filepath.Join(p.dir, "submit-traced"), p.opt.seed, ecosched.WithTracing())
	if err != nil {
		return err
	}
	defer dt.Close()
	tracedHit, err := p.predictHits(dt, "core.predict_hit_traced", reps, calls)
	if err != nil {
		return err
	}
	p.res.set("trace.span_overhead_us", tracedHit-hit, reps)
	dt.Tracer.Drain()
	p.res.set("trace.dropped", float64(dt.Metrics.Snapshot().Counters[trace.MetricDropped]), reps*calls)
	return nil
}

func predictRequest(d *ecosched.Deployment) (ecoplugin.PredictRequest, error) {
	sysHash, err := ecoplugin.SystemHash(procfs.New(d.Nodes[0]))
	if err != nil {
		return ecoplugin.PredictRequest{}, err
	}
	return ecoplugin.PredictRequest{SystemHash: sysHash, BinaryHash: ecoplugin.BinaryHash(d.HPCGPath)}, nil
}

// predictHits times cache-hit predictions and returns the median in µs.
func (p *prober) predictHits(d *ecosched.Deployment, spanName string, reps, calls int) (float64, error) {
	req, err := predictRequest(d)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	if _, err := d.Chronus.Predict.Predict(ctx, req); err != nil { // fills the cache
		return 0, err
	}
	err = p.spans(spanName, reps, calls, func() error {
		for i := 0; i < calls; i++ {
			res, err := d.Chronus.Predict.Predict(ctx, req)
			if err != nil {
				return err
			}
			if res.Source != ecoplugin.SourceCache {
				return fmt.Errorf("prediction came from %s, not the cache", res.Source)
			}
		}
		return nil
	})
	return p.tr.medianNS(spanName) / 1e3, err
}

// sweepPath times the 138-configuration sweep at the default and at
// fixed worker counts, then the optimizer and the repository on its rows.
func (p *prober) sweepPath() error {
	var rows []repository.Benchmark
	var sys repository.System
	sweep := func(spanName string, opts ...ecosched.Option) error {
		for r := 0; r < p.n(3, 1); r++ {
			dir := filepath.Join(p.dir, fmt.Sprintf("%s-%d", spanName, r))
			d, err := ecosched.New(dir, append(opts, ecosched.WithSeed(p.opt.seed))...)
			if err != nil {
				return err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			s := p.tr.startN(spanName, -1, int64(r), 1)
			_, err = d.BenchmarkConfigs(ecosched.PaperSweepConfigs(), 3*time.Second)
			p.tr.end(s)
			runtime.ReadMemStats(&m1)
			if err == nil && spanName == "core.sweep" {
				p.res.set("core.sweep_allocs_per_config", float64(m1.Mallocs-m0.Mallocs)/138, 138)
				var systems []repository.System
				if systems, err = d.Repo.ListSystems(); err == nil && len(systems) > 0 {
					sys = systems[0]
					err = p.spans("repository.list", p.n(20, 2), 1, func() error {
						rows, err = d.Repo.ListBenchmarks(sys.ID, "")
						return err
					})
				}
			}
			if cerr := d.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("%s: %w", spanName, err)
			}
		}
		return nil
	}
	if err := sweep("core.sweep"); err != nil {
		return err
	}
	if err := sweep("core.sweep_p1", ecosched.WithParallelism(1)); err != nil {
		return err
	}
	if err := sweep("core.sweep_p2", ecosched.WithParallelism(2)); err != nil {
		return err
	}
	p.report("core.sweep_ms", "core.sweep", 1e6)
	p1 := p.report("core.sweep_p1_ms", "core.sweep_p1", 1e6)
	p2 := p.report("core.sweep_p2_ms", "core.sweep_p2", 1e6)
	p.res.set("core.sweep_parallel_eff_2", p1/(2*p2), p.n(3, 1))
	p.report("repository.list_us", "repository.list", 1e3)
	if len(rows) != 138 {
		return fmt.Errorf("sweep left %d rows, want 138", len(rows))
	}

	reps := p.n(30, 3)
	var opt optimizer.Optimizer
	if err := p.spans("optimizer.train", reps, 1, func() (err error) {
		if opt, err = optimizer.New(optimizer.NameBruteForce); err != nil {
			return err
		}
		return opt.Train(rows)
	}); err != nil {
		return err
	}
	space := optimizer.SpaceFor(sys)
	if err := p.spans("optimizer.best_config", reps, 1, func() error {
		cfg, err := opt.BestConfig(space)
		if err == nil && cfg != perfmodel.BestConfig() {
			err = fmt.Errorf("best configuration %v, want %v", cfg, perfmodel.BestConfig())
		}
		return err
	}); err != nil {
		return err
	}
	p.report("optimizer.train_us", "optimizer.train", 1e3)
	p.report("optimizer.best_config_us", "optimizer.best_config", 1e3)

	// One batch write of the sweep's rows, as the sweep engine does it.
	fresh := make([]repository.Benchmark, len(rows))
	save := func(spanName string, repo repository.Repository) error {
		defer repo.Close()
		id, err := repo.SaveSystem(sys)
		if err != nil {
			return err
		}
		return p.spans(spanName, p.n(10, 2), 1, func() error {
			copy(fresh, rows)
			for i := range fresh {
				fresh[i].ID, fresh[i].SystemID = 0, id
			}
			_, err := repo.SaveBenchmarks(fresh)
			return err
		})
	}
	db, err := repository.OpenDB(filepath.Join(p.dir, "save-db"))
	if err != nil {
		return err
	}
	if err := save("repository.save_batch", db); err != nil {
		return err
	}
	csv, err := repository.OpenCSV(filepath.Join(p.dir, "save-csv"))
	if err != nil {
		return err
	}
	if err := save("repository.save_batch_csv", csv); err != nil {
		return err
	}
	p.report("repository.save_batch_us", "repository.save_batch", 1e3)
	p.report("repository.save_batch_csv_us", "repository.save_batch_csv", 1e3)
	return nil
}

// nodeStacks times what the sweep provisions per configuration and the
// cluster driver per node: a node, its BMC, a controller over it.
func (p *prober) nodeStacks() error {
	calib := perfmodel.Default()
	reps, calls := p.n(30, 3), p.n(100, 10)
	nodes := make([]*hw.Node, calls)
	sim := simclock.New()
	if err := p.spans("hw.new_node", reps, calls, func() error {
		for i := range nodes {
			nodes[i] = hw.NewNode(sim, hw.DefaultSpec(), calib, p.opt.seed+uint64(i))
		}
		return nil
	}); err != nil {
		return err
	}
	if err := p.spans("ipmi.new_bmc", reps, calls, func() error {
		for _, n := range nodes {
			ipmi.NewBMC(n).ChmodWorldReadable()
		}
		return nil
	}); err != nil {
		return err
	}
	conf := slurm.DefaultConf()
	if err := p.spans("slurm.new_cluster_1", reps, calls, func() error {
		for _, n := range nodes {
			if _, err := slurm.NewCluster(sim, conf, slurm.WithNodes(n)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.report("hw.new_node_us", "hw.new_node", 1e3)
	p.report("ipmi.new_bmc_us", "ipmi.new_bmc", 1e3)
	p.report("slurm.new_cluster_us", "slurm.new_cluster_1", 1e3)

	// A controller over 1,024 nodes, then the hot submission call on it:
	// every chunk fits on idle nodes and is drained outside the span.
	big := make([]*hw.Node, 1024)
	for i := range big {
		spec := hw.DefaultSpec()
		spec.Name = fmt.Sprintf("n%04d", i+1)
		big[i] = hw.NewNode(sim, spec, calib, p.opt.seed+uint64(i))
	}
	var ctl *slurm.Controller
	if err := p.spans("slurm.new_cluster_1024", p.n(5, 1), 1, func() (err error) {
		ctl, err = slurm.NewCluster(sim, conf, slurm.WithNodes(big...),
			slurm.WithAggregateAccounting(), slurm.WithBatchedScheduling())
		return err
	}); err != nil {
		return err
	}
	p.report("slurm.new_cluster_ms", "slurm.new_cluster_1024", 1e6)
	shape := workload.Sleep("probe", time.Second)
	desc := slurm.JobDesc{Name: "probe", NumTasks: 1, TimeLimit: time.Minute, Shape: &shape}
	chunk := 1000
	if err := p.spans("slurm.submit_desc", p.n(100, 3), chunk, func() error {
		for i := 0; i < chunk; i++ {
			if _, err := ctl.SubmitDesc(&desc); err != nil {
				return err
			}
			ctl.Flush()
		}
		return nil
	}); err != nil {
		return err
	}
	// spans() drains nothing; the queue is emptied here, between probes.
	sim.Run()
	p.report("slurm.submit_desc_ns", "slurm.submit_desc", 1)
	return nil
}

func reportDigest(rep *ecosched.ClusterReport) uint64 {
	h := fnv.New64a()
	rep.WriteText(h)
	return h.Sum64()
}

// clusterPath runs the policy-free spec at probe size through the
// driver's variants: default lanes, one lane, recording, replay.
func (p *prober) clusterPath() error {
	const file = "specs/cluster-nopolicy.json"
	data, err := specFS.ReadFile(file)
	if err != nil {
		return err
	}
	if err := p.spans("workload.load_spec", p.n(20, 2), 1, func() error {
		_, err := workload.ParseSpec(data)
		return err
	}); err != nil {
		return err
	}
	p.report("workload.load_spec_us", "workload.load_spec", 1e3)

	spec, err := loadSpec(file)
	if err != nil {
		return err
	}
	spec.Seed = p.opt.seed
	spec.MaxSubmissions = p.n(200000, 5000)
	subs := spec.MaxSubmissions
	reps := p.n(3, 1)

	var rep *ecosched.ClusterReport
	if err := p.spans("clustersim.run", reps, subs, func() (err error) {
		rep, err = ecosched.RunClusterSpec(spec, nil)
		return err
	}); err != nil {
		return err
	}
	base := reportDigest(rep)
	if err := p.spans("clustersim.run_lanes1", reps, subs, func() error {
		r, err := ecosched.RunClusterSpec(spec, nil, ecosched.WithLanes(1))
		if err == nil && reportDigest(r) != base {
			err = fmt.Errorf("WithLanes(1) changed the report")
		}
		return err
	}); err != nil {
		return err
	}
	var log bytes.Buffer
	if err := p.spans("clustersim.record", reps, subs, func() error {
		log.Reset()
		r, err := ecosched.RunClusterSpec(spec, &log)
		if err == nil && reportDigest(r) != base {
			err = fmt.Errorf("recording changed the report")
		}
		return err
	}); err != nil {
		return err
	}
	if err := p.spans("clustersim.replay", reps, subs, func() error {
		r, err := ecosched.ReplayClusterLog(bytes.NewReader(log.Bytes()))
		if err == nil && reportDigest(r) != base {
			err = fmt.Errorf("replay differs from the recorded run")
		}
		return err
	}); err != nil {
		return err
	}
	p.check("probe-lanes1-record-replay-same-report", true, "")
	run := p.report("clustersim.ns_per_sub", "clustersim.run", 1)
	lanes1 := p.report("clustersim.lanes1_ns_per_sub", "clustersim.run_lanes1", 1)
	p.res.set("clustersim.lane_speedup", lanes1/run, reps)
	p.report("clustersim.record_ns_per_sub", "clustersim.record", 1)
	p.report("clustersim.replay_ns_per_sub", "clustersim.replay", 1)

	calls := p.n(100, 10)
	if err := p.spans("report.write_text", p.n(20, 2), calls, func() error {
		for i := 0; i < calls; i++ {
			rep.WriteText(io.Discard)
		}
		return nil
	}); err != nil {
		return err
	}
	p.report("report.write_text_us", "report.write_text", 1e3)

	// What the simulated cluster did, in simulated units.
	p.res.set("clustersim.sim_makespan_s", rep.Makespan.Seconds(), subs)
	wait := 0.0
	if started := rep.Totals.Completed + rep.Totals.Failed; started > 0 {
		wait = rep.Totals.WaitSeconds / float64(started)
	}
	p.res.set("clustersim.sim_mean_wait_s", wait, subs)
	p.res.set("clustersim.jobs_completed", float64(rep.Totals.Completed), subs)
	p.res.set("clustersim.jobs_failed", float64(rep.Totals.Failed), subs)
	peak := 0
	for _, part := range rep.Partitions {
		if part.PeakQueueDepth > peak {
			peak = part.PeakQueueDepth
		}
	}
	p.res.set("slurm.peak_queue", float64(peak), subs)
	return nil
}

// generator times the submission stream alone, and the log codec.
func (p *prober) generator() error {
	spec, err := loadSpec("specs/cluster-nopolicy.json")
	if err != nil {
		return err
	}
	spec.Seed = p.opt.seed
	spec.MaxSubmissions = p.n(100000, 2000)
	subs := make([]workload.Submission, spec.MaxSubmissions)
	if err := p.spans("workload.generate", p.n(5, 1), len(subs), func() error {
		gen, err := workload.NewGenerator(spec, simclock.Epoch)
		if err != nil {
			return err
		}
		for i := range subs {
			ok, err := gen.NextInto(&subs[i])
			if err != nil || !ok {
				return fmt.Errorf("generator stopped at %d of %d: %v", i, len(subs), err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var log bytes.Buffer
	if err := p.spans("workload.log_write", p.n(5, 1), len(subs), func() error {
		log.Reset()
		lw, err := workload.NewLogWriter(&log, spec, simclock.Epoch)
		if err != nil {
			return err
		}
		for i := range subs {
			if err := lw.Record(subs[i]); err != nil {
				return err
			}
		}
		return lw.Flush()
	}); err != nil {
		return err
	}
	if err := p.spans("workload.log_read", p.n(5, 1), len(subs), func() error {
		lr, err := workload.NewLogReader(bytes.NewReader(log.Bytes()))
		if err != nil {
			return err
		}
		n := 0
		for {
			_, ok, err := lr.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			n++
		}
		if n != len(subs) {
			return fmt.Errorf("read %d of %d records", n, len(subs))
		}
		return nil
	}); err != nil {
		return err
	}
	p.report("workload.gen_ns_per_sub", "workload.generate", 1)
	p.report("workload.log_write_ns_per_sub", "workload.log_write", 1)
	p.report("workload.log_read_ns_per_sub", "workload.log_read", 1)
	return nil
}

type nopAction struct{ fired int }

func (a *nopAction) Fire(uint64) { a.fired++ }

// eventQueue times scheduling and firing one event on the calendar
// queue, spread over an hour so both of its tiers are used.
func (p *prober) eventQueue() error {
	sim := simclock.New()
	act := &nopAction{}
	events := p.n(100000, 5000)
	rng := simclock.NewRNG(p.opt.seed)
	delays := make([]time.Duration, events)
	for i := range delays {
		delays[i] = time.Duration(rng.Float64() * float64(time.Hour))
	}
	if err := p.spans("simclock.event", p.n(10, 2), events, func() error {
		for _, d := range delays {
			sim.AfterAction(d, act, 0)
		}
		sim.Run()
		return nil
	}); err != nil {
		return err
	}
	if want := events * p.n(10, 2); act.fired != want {
		return fmt.Errorf("simclock fired %d of %d events", act.fired, want)
	}
	p.report("simclock.event_ns", "simclock.event", 1)
	return nil
}

// policies ablates the policy block of the cluster-policy spec: the
// same arrival streams with no policy, each policy alone, and all three.
func (p *prober) policies() error {
	spec, err := loadSpec("specs/cluster-policy.json")
	if err != nil {
		return err
	}
	spec.MaxSubmissions = p.n(spec.MaxSubmissions, 300)
	all := *spec.Policy
	variants := []struct {
		name   string
		policy *workload.PolicySpec
	}{
		{"none", nil},
		{"cap_only", &workload.PolicySpec{PowerCapW: all.PowerCapW, PartitionCapsW: all.PartitionCapsW, CapMode: all.CapMode}},
		{"cosched_only", &workload.PolicySpec{CoSchedule: true, InterferencePenalty: all.InterferencePenalty}},
		{"defer_only", &workload.PolicySpec{Deferral: all.Deferral}},
		{"all", &all},
	}
	streams := p.n(8, 2)
	var tot ecosched.PolicyReport
	var placed, subs int64
	for _, v := range variants {
		spec.Policy = v.policy
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("policy variant %s: %w", v.name, err)
		}
		for i := 0; i < streams; i++ {
			spec.Seed = subSeed(p.opt.seed, int64(i))
			s := p.tr.startN("policy."+v.name, -1, int64(i), spec.MaxSubmissions)
			rep, err := ecosched.RunClusterSpec(spec, nil)
			p.tr.end(s)
			if err != nil {
				return fmt.Errorf("policy variant %s: %w", v.name, err)
			}
			if v.name != "all" {
				continue
			}
			pl := rep.Policy
			tot.CapDenials += pl.CapDenials
			tot.FreqCapped += pl.FreqCapped
			tot.DeferredJobs += pl.DeferredJobs
			tot.ForcedDispatches += pl.ForcedDispatches
			tot.CoScheduled += pl.CoScheduled
			tot.CapViolations += pl.CapViolations
			tot.DeadlineMisses += pl.DeadlineMisses
			placed += int64(rep.Totals.Completed + rep.Totals.Failed)
			subs += int64(rep.Submissions)
		}
		p.report("policy."+v.name+"_us_per_sub", "policy."+v.name, 1e3)
	}
	n := int(subs)
	p.res.set("policy.cap_denials_per_sub", float64(tot.CapDenials)/float64(subs), n)
	p.res.set("policy.freq_capped", float64(tot.FreqCapped), n)
	p.res.set("policy.deferred", float64(tot.DeferredJobs), n)
	p.res.set("policy.forced_dispatches", float64(tot.ForcedDispatches), n)
	p.res.set("policy.co_scheduled", float64(tot.CoScheduled), n)
	p.res.set("policy.cap_violations", float64(tot.CapViolations), n)
	p.res.set("policy.deadline_misses", float64(tot.DeadlineMisses), n)
	// The share of dispatch attempts that placed a job; the rest were
	// denied by the cap and tried again on a later pass.
	p.res.set("policy.dispatch_per_attempt", float64(placed)/float64(placed+tot.CapDenials), n)
	return nil
}

// Names of the registry entries the telemetry probe creates.
const (
	probeHistogram     = "chronus.bench.probe_latency"
	probeCounterPrefix = "chronus.bench.probe_counter."
)

// telemetry times the metrics registry's hot call and its snapshot.
func (p *prober) telemetry() error {
	reg := metrics.New()
	h := reg.BucketedHistogram(probeHistogram)
	for i := 0; i < 32; i++ {
		reg.Counter(probeCounterPrefix + strconv.Itoa(i)).Inc()
	}
	calls := p.n(100000, 5000)
	if err := p.spans("metrics.observe", p.n(20, 2), calls, func() error {
		for i := 0; i < calls; i++ {
			h.Observe(float64(i&1023) * 1e-6)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := p.spans("metrics.snapshot", p.n(50, 5), 1, func() error {
		if snap := reg.Snapshot(); len(snap.Counters) != 32 {
			return fmt.Errorf("snapshot holds %d counters", len(snap.Counters))
		}
		return nil
	}); err != nil {
		return err
	}
	p.report("metrics.observe_ns", "metrics.observe", 1)
	p.report("metrics.snapshot_us", "metrics.snapshot", 1e3)
	return nil
}
