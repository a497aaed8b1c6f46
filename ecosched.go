// Package ecosched is a Go reproduction of "Automatic Energy-Efficient
// Job Scheduling in HPC: A Novel Slurm Plugin Approach" (Springborg,
// 2023): the eco plugin (job_submit_eco) and the Chronus service, plus
// every substrate the paper's evaluation rests on — a discrete-event
// Slurm simulator, a calibrated node model of the paper's EPYC 7502P
// server with DVFS/power/thermal/IPMI simulation, an HPCG solver, an
// embedded database, and the optimizer models (brute force, linear
// regression, random forest, genetic).
//
// The entry point is New, which wires a complete simulated cluster for
// a data directory: hardware nodes, slurmctld with the eco plugin
// enabled, Chronus with repository/blob/settings storage, and the
// IPMI telemetry path. From there the paper's whole workflow runs in
// simulated time:
//
//	d, _ := ecosched.New(dir, ecosched.WithSeed(7))
//	d.BenchmarkConfigs(ecosched.PaperSweepConfigs(), 0) // chronus benchmark
//	meta, _ := d.TrainModel("brute-force")              // chronus init-model
//	d.PreloadModel(meta.ID)                             // chronus load-model
//	job, _ := d.SubmitHPCGOptIn()                       // sbatch --comment "chronus"
//	done, _ := d.Cluster.WaitFor(job.ID)
//
// Experiment regenerators for every table and figure in the paper live
// in experiments.go and are exercised by cmd/experiments and the
// root-level benchmarks.
package ecosched

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ecosched/internal/blob"
	"ecosched/internal/core"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/fault"
	"ecosched/internal/hw"
	"ecosched/internal/ipmi"
	"ecosched/internal/metrics"
	"ecosched/internal/paperdata"
	"ecosched/internal/perfmodel"
	"ecosched/internal/procfs"
	"ecosched/internal/repository"
	"ecosched/internal/settings"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/trace"
)

// Config is a job resource configuration: scheduled cores, CPU
// frequency in kHz, threads per core.
type Config = perfmodel.Config

// Re-exported configuration helpers.
var (
	// StandardConfig is what Slurm runs without the plugin: all cores
	// at maximum frequency (Table 1's blue row).
	StandardConfig = perfmodel.StandardConfig
	// BestConfig is the winning configuration: 32 cores at 2.2 GHz
	// without hyper-threading (Table 1's first row).
	BestConfig = perfmodel.BestConfig
)

// RepositoryKind selects the Chronus repository implementation.
type RepositoryKind string

// Repository implementations, mirroring the paper's SQLite and CSV.
const (
	RepoFileDB RepositoryKind = "filedb"
	RepoCSV    RepositoryKind = "csv"
)

// Options configure a simulated deployment.
type Options struct {
	// Nodes is the cluster size (default 1, the paper's setup).
	Nodes int
	// Seed drives all simulation randomness (default 1).
	Seed uint64
	// DataDir is where the repository, blob storage, settings file and
	// pre-loaded models live. Required.
	DataDir string
	// Repository selects the storage backend (default RepoFileDB).
	Repository RepositoryKind
	// SlurmConf overrides the slurm.conf text (default enables the eco
	// plugin with the stock budget).
	SlurmConf string
	// LogW receives Chronus log output (default discard).
	LogW io.Writer
	// Trace enables end-to-end decision tracing: every submission
	// produces spans covering plugin → predict → (cache|load|optimize),
	// journalled to DataDir/events.jsonl. Off by default so the hot
	// path stays allocation-free (every trace type is nil-safe).
	Trace bool
	// Tracer injects an externally-built tracer (tests); when set,
	// Trace is ignored and the deployment does not own a journal.
	Tracer *trace.Tracer
	// Parallelism is the benchmark sweep's worker-pool width: how many
	// configurations are measured concurrently, each on its own
	// deterministically seeded simulated node. <= 0 means GOMAXPROCS.
	// Results (rows, ids, winner) are identical at every setting; only
	// wall-clock time changes.
	Parallelism int
	// FaultSpec is a fault.ParsePlan schedule (the CLI's -fault flag,
	// e.g. "blob.get:error:0.3;repo.*:latency:lat=5ms") activated from
	// construction on. Empty injects nothing; the injector is still
	// wired, so tests can add rules at runtime through Deployment.Fault.
	FaultSpec string
	// FaultSeed seeds the fault injector's deterministic schedule
	// (default Seed), so a chaos run reproduces from its seed alone.
	FaultSeed uint64
	// Retry tunes Chronus's bounded retry-with-backoff on transient
	// load stages (core.DefaultRetryPolicy is the chaos tuning). The
	// zero value disables retrying.
	Retry core.RetryPolicy
}

// Option mutates Options — the functional configuration of New.
type Option func(*Options)

// WithNodes sets the cluster size.
func WithNodes(n int) Option { return func(o *Options) { o.Nodes = n } }

// WithSeed sets the simulation seed.
func WithSeed(seed uint64) Option { return func(o *Options) { o.Seed = seed } }

// WithRepository selects the storage backend.
func WithRepository(kind RepositoryKind) Option { return func(o *Options) { o.Repository = kind } }

// WithSlurmConf overrides the slurm.conf text.
func WithSlurmConf(conf string) Option { return func(o *Options) { o.SlurmConf = conf } }

// WithLogWriter directs Chronus log output.
func WithLogWriter(w io.Writer) Option { return func(o *Options) { o.LogW = w } }

// WithTracing enables decision tracing with a journal at
// DataDir/events.jsonl.
func WithTracing() Option { return func(o *Options) { o.Trace = true } }

// WithTracer injects an externally-built tracer.
func WithTracer(t *trace.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithParallelism sets the benchmark sweep's worker-pool width.
func WithParallelism(n int) Option { return func(o *Options) { o.Parallelism = n } }

// WithFault activates a fault-injection schedule (fault.ParsePlan
// syntax) from construction on — the CLI's -fault flag.
func WithFault(spec string) Option { return func(o *Options) { o.FaultSpec = spec } }

// WithFaultSeed seeds the fault injector independently of the
// simulation seed.
func WithFaultSeed(seed uint64) Option { return func(o *Options) { o.FaultSeed = seed } }

// WithRetryPolicy enables bounded retry-with-backoff on Chronus's
// transient load stages.
func WithRetryPolicy(p core.RetryPolicy) Option { return func(o *Options) { o.Retry = p } }

// hpcgPath is where the paper installs the benchmark binary.
const hpcgPath = "/opt/hpcg/build/bin/xhpcg"

// Deployment is a wired, running simulated installation.
type Deployment struct {
	Sim      *simclock.Sim
	Cluster  *slurm.Controller
	Nodes    []*hw.Node
	BMCs     []*ipmi.BMC
	Chronus  *core.Chronus
	Plugin   *ecoplugin.Plugin
	Repo     repository.Repository
	Blob     blob.Store
	Settings settings.Store
	HPCGPath string
	// Metrics is the deployment-wide observability registry shared by
	// the controller, the plugin and Chronus. Close merges its
	// snapshot into DataDir/metrics.json so counters accumulate across
	// CLI invocations (`chronus metrics` reads that file).
	Metrics *metrics.Registry
	// Tracer is the deployment-wide decision tracer (nil unless
	// tracing was enabled). Completed spans land in its in-memory ring
	// and, via the journal, in DataDir/events.jsonl.
	Tracer *trace.Tracer
	// Fault is the deployment-wide fault injector, always wired across
	// every storage, procfs and IPMI integration point. With no rules
	// (the default) every operation passes through untouched; chaos
	// tests add rules at runtime with Fault.Use, and the -fault CLI
	// flag installs a schedule at construction.
	Fault *fault.Injector

	fs      procfs.FileReader
	dataDir string
	// closers tear down everything acquired during construction, in
	// reverse acquisition order. Both New's error paths and Close run
	// the same list, so a store acquired after a failing
	// step can never leak.
	closers []func() error
}

// New builds the full stack of the paper's Figure 2 in simulation for
// dataDir — head node (slurmctld + Chronus + eco plugin), compute
// node(s) with BMCs, and the storage substrate — configured by
// functional options:
//
//	d, err := ecosched.New(dir, ecosched.WithNodes(4), ecosched.WithSeed(7))
func New(dataDir string, options ...Option) (_ *Deployment, err error) {
	opts := Options{DataDir: dataDir}
	for _, opt := range options {
		opt(&opts)
	}
	if opts.DataDir == "" {
		return nil, fmt.Errorf("ecosched: a data directory is required")
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Repository == "" {
		opts.Repository = RepoFileDB
	}
	if opts.SlurmConf == "" {
		opts.SlurmConf = "ClusterName=ecosched\nJobSubmitPlugins=eco\n"
	}

	sim := simclock.New()
	calib := perfmodel.Default()

	nodes := make([]*hw.Node, opts.Nodes)
	bmcs := make([]*ipmi.BMC, opts.Nodes)
	for i := range nodes {
		spec := hw.DefaultSpec()
		if opts.Nodes > 1 {
			spec.Name = fmt.Sprintf("%s%02d", spec.Name, i+1)
		}
		nodes[i] = hw.NewNode(sim, spec, calib, opts.Seed+uint64(i))
		bmcs[i] = ipmi.NewBMC(nodes[i])
		bmcs[i].ChmodWorldReadable() // the paper's chmod o+r /dev/ipmi0
	}

	conf, err := slurm.ParseConf(opts.SlurmConf)
	if err != nil {
		return nil, err
	}
	cluster, err := slurm.NewCluster(sim, conf, slurm.WithNodes(nodes...))
	if err != nil {
		return nil, err
	}
	reg := metrics.New()
	cluster.SetMetrics(reg)

	// Everything acquired from here on registers a closer; on any
	// construction error the same closers run (in reverse) that Close
	// would, so no store outlives a failed wiring.
	var closers []func() error
	defer func() {
		if err == nil {
			return
		}
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]() //nolint:errcheck — construction already failed
		}
	}()

	tracer := opts.Tracer
	if tracer == nil && opts.Trace {
		journal, err := trace.OpenJournal(filepath.Join(opts.DataDir, EventsFile), trace.DefaultJournalMaxBytes)
		if err != nil {
			return nil, err
		}
		closers = append(closers, journal.Close)
		tracer = trace.New(trace.WithJournal(journal), trace.WithMetrics(reg))
		// Appended after journal.Close so the reversed teardown stops
		// the async drainer (final flush included) before the journal
		// file closes underneath it.
		closers = append(closers, tracer.Close)
	}
	cluster.SetTracer(tracer)

	// The fault injector is always wired — with no rules every decorated
	// operation passes straight through — so chaos tests can flip faults
	// on mid-flight (Deployment.Fault.Use) and the -fault flag can replay
	// a schedule from its seed.
	faultSeed := opts.FaultSeed
	if faultSeed == 0 {
		faultSeed = opts.Seed
	}
	inj := fault.New(faultSeed, fault.WithClock(sim.Now), fault.WithMetrics(reg), fault.WithTracer(tracer))
	if opts.FaultSpec != "" {
		rules, err := fault.ParsePlan(opts.FaultSpec)
		if err != nil {
			return nil, err
		}
		inj.Use(rules...)
	}

	var repo repository.Repository
	switch opts.Repository {
	case RepoFileDB:
		repo, err = repository.OpenDB(filepath.Join(opts.DataDir, "database"))
	case RepoCSV:
		repo, err = repository.OpenCSV(filepath.Join(opts.DataDir, "database"))
	default:
		return nil, fmt.Errorf("ecosched: unknown repository kind %q", opts.Repository)
	}
	if err != nil {
		return nil, err
	}
	closers = append(closers, repo.Close)
	// The decorators consult the injector before every operation; the
	// closers above keep the raw handles, so teardown is never faulted.
	repo = fault.Repository(repo, inj)

	rawBlob, err := blob.NewDir(filepath.Join(opts.DataDir, "blobs"))
	if err != nil {
		return nil, err
	}
	blobStore := fault.Blob(rawBlob, inj)
	rawSettings := settings.NewEtcStore(filepath.Join(opts.DataDir, "etc", "chronus", "settings.json"))
	initial, err := rawSettings.Load()
	if err != nil {
		return nil, err
	}
	initial.State = settings.StateUser // opt-in via the chronus comment
	initial.DatabasePath = filepath.Join(opts.DataDir, "database")
	initial.BlobStoragePath = filepath.Join(opts.DataDir, "blobs")
	if err := rawSettings.Save(initial); err != nil {
		return nil, err
	}
	settingsStore := fault.Settings(rawSettings, inj)

	fs := fault.FileReader(procfs.New(nodes[0]), inj)
	runner, err := core.NewHPCGRunner(cluster, hpcgPath, calib.JobGFLOP)
	if err != nil {
		return nil, err
	}

	// The benchmark sweep measures each configuration on its own
	// single-node cluster, built here. Seeding by configuration index
	// (never by worker or arrival order) makes each measurement a pure
	// function of (configuration, calibration, seed), which is what
	// lets the worker pool promise byte-identical sweep results at any
	// parallelism. The one thing a stack inherits is the sample slab of
	// a configuration measured before it — capacity only, handed back
	// by Close.
	benchConf, err := slurm.ParseConf("ClusterName=bench\n")
	if err != nil {
		return nil, err
	}
	seed := opts.Seed
	slabs := &core.SampleSlabs{}
	provision := func(idx int) (core.BenchNode, error) {
		bsim := simclock.New()
		bnode := hw.NewNode(bsim, hw.DefaultSpec(), calib, seed+uint64(idx)*0x9e3779b9)
		bbmc := ipmi.NewBMC(bnode)
		bbmc.ChmodWorldReadable()
		bcluster, err := slurm.NewCluster(bsim, benchConf, slurm.WithNodes(bnode))
		if err != nil {
			return core.BenchNode{}, err
		}
		bsystem, err := core.NewIPMISystemService(bsim, bbmc, bnode, false)
		if err != nil {
			return core.BenchNode{}, err
		}
		bsystem.Slabs = slabs
		return core.BenchNode{Cluster: bcluster, System: fault.System(bsystem, inj), Close: bsystem.Release}, nil
	}

	chronus, err := core.New(core.Deps{
		Repo:     repo,
		Blob:     blobStore,
		Settings: settingsStore,
		SysInfo:  newSysInfo(fs),
		FS:       fs,
		Runner:   runner,
		LocalDir: filepath.Join(opts.DataDir, "opt", "chronus", "optimizer"),
		Now:      sim.Now,
		LogW:     opts.LogW,
		Metrics:  reg,
		Tracer:   tracer,
		Retry:    retryPolicy(opts),
		ReadFile: fault.ReadFile(os.ReadFile, inj),

		Provision:   provision,
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}

	plugin, err := ecoplugin.New(fs, chronus.Predict, settingsStore,
		ecoplugin.WithBudget(conf.EcoBudget), ecoplugin.WithMetrics(reg),
		ecoplugin.WithTracer(tracer))
	if err != nil {
		return nil, err
	}
	cluster.RegisterPlugin(plugin)

	d := &Deployment{
		Sim: sim, Cluster: cluster, Nodes: nodes, BMCs: bmcs,
		Chronus: chronus, Plugin: plugin,
		Repo: repo, Blob: blobStore, Settings: settingsStore,
		HPCGPath: hpcgPath, Metrics: reg, Tracer: tracer, Fault: inj,
		fs: fs, dataDir: opts.DataDir,
	}
	// Registered last → run first on Close: drain in-flight predictions
	// (and the retry backoffs inside them) before anything persists or
	// closes, then flush metrics while the stores are still alive.
	closers = append(closers, d.persistMetrics, func() error { chronus.Drain(); return nil })
	d.closers = closers
	return d, nil
}

// retryPolicy resolves the deployment's retry policy, defaulting its
// jitter seed to the simulation seed so one seed reproduces the run.
func retryPolicy(opts Options) core.RetryPolicy {
	p := opts.Retry
	if p.Seed == 0 {
		p.Seed = opts.Seed
	}
	return p
}

// Close tears down everything the deployment acquired, in reverse
// acquisition order, and reports every failure (not just the first).
// It also flushes the metrics registry to DataDir/metrics.json.
func (d *Deployment) Close() error {
	var errs []error
	for i := len(d.closers) - 1; i >= 0; i-- {
		if err := d.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	d.closers = nil
	return errors.Join(errs...)
}

// MetricsFile is the DataDir-relative file metric snapshots accumulate
// in across CLI invocations.
const MetricsFile = "metrics.json"

// EventsFile is the DataDir-relative decision-trace journal (plus a
// rotated EventsFile.old generation once the size cap is hit).
const EventsFile = "events.jsonl"

// persistMetrics merges the registry's snapshot into
// DataDir/metrics.json: counters add up across invocations, gauges
// and percentiles keep the most recent run's values. The merged file
// is written to a temp file and renamed so a crash mid-flush can
// never truncate the accumulated counters.
func (d *Deployment) persistMetrics() error {
	current := d.Metrics.Snapshot()
	path := filepath.Join(d.dataDir, MetricsFile)
	accumulated, err := ReadMetrics(d.dataDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	accumulated.Merge(current)
	data, err := json.MarshalIndent(accumulated, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dataDir, MetricsFile+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// DecisionTrace returns the completed spans of the submission trace
// for a job, from the tracer's in-memory ring — the live counterpart
// of `chronus trace <job>`, which replays the journal. It returns nil
// when tracing is off or the job's trace has aged out of the ring.
func (d *Deployment) DecisionTrace(jobID int) []trace.Event {
	return trace.TraceFor(d.Tracer.Recent(), fmt.Sprint(jobID))
}

// ReadMetrics loads the accumulated metrics snapshot for a data
// directory — what `chronus metrics` prints.
func ReadMetrics(dataDir string) (metrics.Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dataDir, MetricsFile))
	if err != nil {
		return metrics.Snapshot{}, err
	}
	var s metrics.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("ecosched: %s: %w", MetricsFile, err)
	}
	return s, nil
}

// PaperSweepConfigs returns the 138 configurations of Tables 4–6.
func PaperSweepConfigs() []Config {
	out := make([]Config, 0, len(paperdata.Sweep))
	for _, r := range paperdata.Sweep {
		tpc := 1
		if r.HyperThread {
			tpc = 2
		}
		out = append(out, Config{Cores: r.Cores, FreqKHz: int(r.GHz * 1e6), ThreadsPerCore: tpc})
	}
	return out
}

// QuickSweepConfigs returns a small representative subset of the sweep
// that still contains the best and standard configurations — enough to
// train a useful model in seconds (`chronus benchmark -quick`, the
// ecosim demo, loadgen's self-provisioning).
func QuickSweepConfigs() []Config {
	ghz := func(g float64) int { return int(g * 1e6) }
	return []Config{
		{Cores: 32, FreqKHz: ghz(2.5), ThreadsPerCore: 1},
		{Cores: 32, FreqKHz: ghz(2.2), ThreadsPerCore: 1},
		{Cores: 32, FreqKHz: ghz(1.5), ThreadsPerCore: 1},
		{Cores: 32, FreqKHz: ghz(2.2), ThreadsPerCore: 2},
		{Cores: 30, FreqKHz: ghz(2.2), ThreadsPerCore: 1},
		{Cores: 28, FreqKHz: ghz(2.2), ThreadsPerCore: 1},
		{Cores: 24, FreqKHz: ghz(2.5), ThreadsPerCore: 1},
		{Cores: 16, FreqKHz: ghz(2.2), ThreadsPerCore: 1},
		{Cores: 16, FreqKHz: ghz(2.5), ThreadsPerCore: 2},
		{Cores: 8, FreqKHz: ghz(2.5), ThreadsPerCore: 1},
	}
}

// BenchmarkConfigs runs `chronus benchmark` over the configurations.
// A zero interval uses the paper's default sampling rate.
func (d *Deployment) BenchmarkConfigs(configs []Config, interval time.Duration) (int64, error) {
	return d.Chronus.Benchmark.Run(configs, interval)
}

// TrainModel runs `chronus init-model` for the deployment's (single)
// registered system.
func (d *Deployment) TrainModel(modelType string) (repository.ModelMeta, error) {
	systems, err := d.Chronus.InitModel.Systems()
	if err != nil {
		return repository.ModelMeta{}, err
	}
	if len(systems) == 0 {
		return repository.ModelMeta{}, fmt.Errorf("ecosched: no systems registered — run BenchmarkConfigs first")
	}
	return d.Chronus.InitModel.Run(modelType, systems[0].ID)
}

// PreloadModel runs `chronus load-model`.
func (d *Deployment) PreloadModel(modelID int64) (settings.LocalModel, error) {
	return d.Chronus.LoadModel.Run(modelID)
}

// SubmitHPCGOptIn submits the paper's user journey: an HPCG batch job
// with the standard (wasteful) request and the chronus opt-in comment.
func (d *Deployment) SubmitHPCGOptIn() (*slurm.Job, error) {
	script := fmt.Sprintf(`#!/bin/bash
#SBATCH --nodes=1
#SBATCH --ntasks=%d
#SBATCH --cpu-freq=2500000
#SBATCH --comment "chronus"

srun --mpi=pmix_v4 --ntasks-per-core=1 %s
`, paperdata.CPUCores, d.HPCGPath)
	return d.Cluster.SubmitScript(script)
}

// SubmitHPCG submits an HPCG job in an explicit configuration without
// opting in to the plugin.
func (d *Deployment) SubmitHPCG(cfg Config) (*slurm.Job, error) {
	script := slurm.RenderBatchScript(d.HPCGPath, cfg.Cores, cfg.FreqKHz, cfg.ThreadsPerCore)
	return d.Cluster.SubmitScript(script)
}
