// Command chronus is the CLI of the paper's §3.3: benchmark,
// init-model, load-model, slurm-config and set, operating on a
// simulated single-node cluster whose state (database, blob storage,
// settings, pre-loaded models) persists in a data directory across
// invocations — plus the observability surface: metrics, the decision
// journal (trace, events) and a long-running exposition server.
//
// Usage:
//
//	chronus -data DIR [-parallelism N] benchmark [HPCG_PATH] [-configurations FILE] [-quick]
//	chronus -data DIR init-model -model TYPE [-system ID]
//	chronus -data DIR load-model [-model ID]
//	chronus -data DIR slurm-config [-n COUNT] SYSTEM_HASH BINARY_HASH
//	chronus -data DIR set (database|blob-storage|state) VALUE
//	chronus -data DIR metrics
//	chronus -data DIR slo [-metric NAME] [-budget DUR] [-objective FRAC]
//	chronus -data DIR trace JOB_ID
//	chronus -data DIR events [-since DUR]
//	chronus -data DIR serve [-addr HOST:PORT] [-pprof]
//	chronus -data DIR loadgen [-mode submit|predict] [-n COUNT] [-rate R] [-train]
//	chronus simulate -spec FILE [-record FILE] [-lanes N] [-timing]
//	chronus simulate -replay FILE [-lanes N] [-timing]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ecosched"
	"ecosched/internal/core"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/metrics"
	"ecosched/internal/perfmodel"
	"ecosched/internal/slurm"
	"ecosched/internal/trace"
	"ecosched/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chronus:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("chronus", flag.ContinueOnError)
	dataDir := global.String("data", "./chronus-data", "state directory (database, blobs, settings)")
	parallelism := global.Int("parallelism", 0, "benchmark sweep worker count (0 = GOMAXPROCS); results are identical at any setting")
	faultSpec := global.String("fault", "", `fault-injection schedule for chaos reproduction, e.g. "blob.get:error:0.3;repo.*:latency:lat=5ms" (see internal/fault)`)
	faultSeed := global.Uint64("fault-seed", 0, "seed for the fault injector's deterministic schedule (0 = the simulation seed)")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: chronus [-data DIR] (benchmark|init-model|load-model|slurm-config|set|metrics|slo|trace|events|serve|loadgen|simulate) ...")
	}

	// metrics, slo, trace, events and simulate are stateless with
	// respect to the data directory; they need no deployment (and must
	// not wire one, or it would flush an empty snapshot on Close).
	switch rest[0] {
	case "metrics":
		return cmdMetrics(*dataDir, rest[1:])
	case "slo":
		return cmdSLO(*dataDir, rest[1:])
	case "trace":
		return cmdTrace(*dataDir, rest[1:])
	case "events":
		return cmdEvents(*dataDir, rest[1:])
	case "simulate":
		return cmdSimulate(rest[1:])
	}

	// Every stateful command traces into <data>/events.jsonl, so a
	// later `chronus trace <job>` can replay its decisions.
	buildOpts := []ecosched.Option{
		ecosched.WithLogWriter(os.Stdout), ecosched.WithTracing(),
		ecosched.WithParallelism(*parallelism),
	}
	if *faultSpec != "" {
		buildOpts = append(buildOpts, ecosched.WithFault(*faultSpec))
	}
	if *faultSeed != 0 {
		buildOpts = append(buildOpts, ecosched.WithFaultSeed(*faultSeed))
	}
	d, err := ecosched.New(*dataDir, buildOpts...)
	if err != nil {
		return err
	}
	defer d.Close()

	switch cmd, cmdArgs := rest[0], rest[1:]; cmd {
	case "benchmark":
		return cmdBenchmark(d, cmdArgs)
	case "init-model":
		return cmdInitModel(d, cmdArgs)
	case "load-model":
		return cmdLoadModel(d, cmdArgs)
	case "slurm-config":
		return cmdSlurmConfig(d, cmdArgs)
	case "set":
		return cmdSet(d, cmdArgs)
	case "serve":
		return cmdServe(d, cmdArgs)
	case "loadgen":
		return cmdLoadgen(d, cmdArgs)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func cmdBenchmark(d *ecosched.Deployment, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	configPath := fs.String("configurations", "", "JSON array of configurations to benchmark")
	quick := fs.Bool("quick", false, "benchmark a 10-point representative subset instead of all configurations")
	resume := fs.Bool("resume", false, "skip configurations already benchmarked for this system")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// An optional positional HPCG path, as in the paper's CLI. The
	// simulated binary path is fixed at deployment time; the argument
	// is accepted for interface parity.
	if fs.NArg() > 1 {
		return fmt.Errorf("benchmark takes at most one positional argument (HPCG path)")
	}

	var configs []perfmodel.Config
	switch {
	case *configPath != "":
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		configs, err = core.ParseConfigsJSON(data)
		if err != nil {
			return err
		}
	case *quick:
		configs = ecosched.QuickSweepConfigs()
	default:
		// The paper's default: every configuration the CPU supports.
		var err error
		configs, err = d.Chronus.Benchmark.DefaultConfigs()
		if err != nil {
			return err
		}
	}
	fmt.Printf("benchmarking %d configurations (simulated time)...\n", len(configs))
	if *resume {
		runID, skipped, err := d.Chronus.Benchmark.RunResume(configs, 0)
		if err != nil {
			return err
		}
		fmt.Printf("resumed: %d skipped, run %d.\n", skipped, runID)
		return nil
	}
	runID, err := d.BenchmarkConfigs(configs, 0)
	if err != nil {
		return err
	}
	fmt.Printf("Run data has been saved to the database (run %d).\n", runID)
	return nil
}

func cmdInitModel(d *ecosched.Deployment, args []string) error {
	fs := flag.NewFlagSet("init-model", flag.ContinueOnError)
	model := fs.String("model", "linear-regression", "model type: brute-force|linear-regression|random-forest|random-tree|genetic")
	system := fs.Int64("system", -1, "the id of the system to use")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *system < 0 {
		systems, err := d.Chronus.InitModel.Systems()
		if err != nil {
			return err
		}
		if len(systems) == 0 {
			return fmt.Errorf("no systems in the database — run `chronus benchmark` first")
		}
		fmt.Println("Available systems:")
		for _, s := range systems {
			fmt.Printf("  %d: %s (%d cores, %d threads/core, %d MB)\n",
				s.ID, s.CPUName, s.Cores, s.ThreadsPerCore, s.RAMMB)
		}
		fmt.Println("Specify the system id with --system <id>")
		return nil
	}
	meta, err := d.Chronus.InitModel.Run(*model, *system)
	if err != nil {
		return err
	}
	fmt.Printf("model %d of type %s trained on %d benchmarks, uploaded to %s\n",
		meta.ID, meta.Optimizer, meta.TrainRows, meta.BlobKey)
	return nil
}

func cmdLoadModel(d *ecosched.Deployment, args []string) error {
	fs := flag.NewFlagSet("load-model", flag.ContinueOnError)
	model := fs.Int64("model", -1, "the id of the model to load")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model < 0 {
		models, err := d.Chronus.LoadModel.Models()
		if err != nil {
			return err
		}
		if len(models) == 0 {
			return fmt.Errorf("no models in the database — run `chronus init-model` first")
		}
		fmt.Println("Available Models:")
		for _, m := range models {
			fmt.Printf("  %d: %s (system %d, %d rows, %s)\n",
				m.ID, m.Optimizer, m.SystemID, m.TrainRows, m.Created.Format("2006-01-02 15:04"))
		}
		fmt.Println("Specify the model id with --model <id>")
		return nil
	}
	local, err := d.PreloadModel(*model)
	if err != nil {
		return err
	}
	fmt.Printf("model %d pre-loaded to %s\n", local.ModelID, local.Path)
	fmt.Printf("predict with: chronus slurm-config %s %s\n", local.SystemHash, local.AppHash)
	return nil
}

func cmdSlurmConfig(d *ecosched.Deployment, args []string) error {
	fs := flag.NewFlagSet("slurm-config", flag.ContinueOnError)
	repeat := fs.Int("n", 1, "repeat the prediction COUNT times (a submission burst; repeats hit the cache)")
	budget := fs.Duration("budget", 0, "refuse predictions whose latency would exceed this budget (0 = unenforced)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: chronus slurm-config [-n COUNT] [-budget DUR] SYSTEM_HASH BINARY_HASH")
	}
	if *repeat < 1 {
		*repeat = 1
	}
	req := ecoplugin.PredictRequest{SystemHash: fs.Arg(0), BinaryHash: fs.Arg(1), Budget: *budget}
	for i := 0; i < *repeat; i++ {
		res, err := d.Chronus.Predict.Predict(context.Background(), req)
		if err != nil {
			return err
		}
		fmt.Println(core.ConfigJSONOutput(res.Config))
		fmt.Fprintf(os.Stderr, "decision latency: %v (%s)\n", res.Latency, res.Source)
	}
	return nil
}

// cmdLoadgen runs the sustained-load harness against the deployment:
// throughput, wall and simulated latency percentiles, and the submit
// SLO. -train first runs the quick benchmark/train/preload pipeline so
// predictions hit the warm path.
func cmdLoadgen(d *ecosched.Deployment, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	mode := fs.String("mode", ecosched.LoadgenModeSubmit, "submit (drive the controller) or predict (fan out over the prediction service)")
	count := fs.Int("n", 1000, "number of operations")
	rate := fs.Float64("rate", 100, "arrival rate in submissions per simulated second (submit mode)")
	conc := fs.Int("concurrency", 8, "goroutine fan-out width (predict mode)")
	budget := fs.Duration("budget", 0, "SLO latency threshold (0 = the deployment's configured budget)")
	objective := fs.Float64("objective", 0, "SLO objective in (0,1); 0 = the 0.99 default")
	train := fs.Bool("train", false, "quick-benchmark, train and preload a model first so predictions hit the warm path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: chronus loadgen [-mode submit|predict] [-n COUNT] [-rate R] [-concurrency N] [-budget DUR] [-objective FRAC] [-train]")
	}
	if *train {
		if _, err := d.BenchmarkConfigs(ecosched.QuickSweepConfigs(), 0); err != nil {
			return err
		}
		meta, err := d.TrainModel("brute-force")
		if err != nil {
			return err
		}
		if _, err := d.PreloadModel(meta.ID); err != nil {
			return err
		}
	}
	rep, err := d.RunLoadgen(ecosched.LoadgenOptions{
		Mode: *mode, Count: *count, Rate: *rate, Concurrency: *conc,
		Budget: *budget, Objective: *objective,
	})
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	return nil
}

// cmdSLO evaluates a submit-latency SLO against the accumulated
// metrics snapshot — stateless, like `chronus metrics`.
func cmdSLO(dataDir string, args []string) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	metric := fs.String("metric", slurm.MetricChainLatency, "bucketed latency histogram to evaluate")
	budget := fs.Duration("budget", 0, "latency threshold (0 = the stock submit-plugin budget)")
	objective := fs.Float64("objective", metrics.DefaultObjective, "attainment objective in (0,1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: chronus slo [-metric NAME] [-budget DUR] [-objective FRAC]")
	}
	if *budget <= 0 {
		*budget = slurm.DefaultConf().PluginBudget
	}
	snap, err := ecosched.ReadMetrics(dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("no metrics recorded yet in %s — run a command first", dataDir)
		}
		return err
	}
	rep, err := metrics.EvalSLO(snap, metrics.SLO{Metric: *metric, Threshold: *budget, Objective: *objective})
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	if rep.NoData {
		return fmt.Errorf("no data: histogram %q has no observations — nothing to attain", *metric)
	}
	if !rep.Met {
		return fmt.Errorf("SLO violated (attainment %.4f%% < objective %.4f%%)",
			rep.Attainment*100, rep.Objective*100)
	}
	return nil
}

func cmdMetrics(dataDir string, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: chronus metrics")
	}
	snap, err := ecosched.ReadMetrics(dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("no metrics recorded yet in %s — run a command first", dataDir)
		}
		return err
	}
	snap.WriteText(os.Stdout)
	return nil
}

func cmdTrace(dataDir string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: chronus trace JOB_ID")
	}
	if _, err := strconv.Atoi(args[0]); err != nil {
		return fmt.Errorf("trace takes a numeric job id, got %q", args[0])
	}
	events, err := readJournal(dataDir)
	if err != nil {
		return err
	}
	t := trace.TraceFor(events, args[0])
	if len(t) == 0 {
		return fmt.Errorf("no trace for job %s in %s", args[0], filepath.Join(dataDir, ecosched.EventsFile))
	}
	trace.WriteTree(os.Stdout, t)
	return nil
}

func cmdEvents(dataDir string, args []string) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	since := fs.Duration("since", 0, "only events newer than this (e.g. 1h; 0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: chronus events [-since DUR]")
	}
	events, err := readJournal(dataDir)
	if err != nil {
		return err
	}
	if *since > 0 {
		events = trace.Since(events, time.Now().Add(-*since))
	}
	trace.WriteEvents(os.Stdout, events)
	return nil
}

func readJournal(dataDir string) ([]trace.Event, error) {
	events, err := trace.ReadJournal(filepath.Join(dataDir, ecosched.EventsFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("no event journal in %s — run a traced command first", dataDir)
		}
		return nil, err
	}
	return events, nil
}

// cmdSimulate runs a cluster-scale simulation from a workload spec
// (or replays a recorded submission log) entirely in memory: no data
// directory, no deployment, deterministic for a given (spec, seed).
func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	specPath := fs.String("spec", "", "workload spec (JSON) describing the cluster and its clients")
	recordPath := fs.String("record", "", "record the generated submission stream to this JSONL log")
	replayPath := fs.String("replay", "", "replay a submission log instead of generating one")
	lanes := fs.Int("lanes", 0, "max partition lanes running a window at once (0 = one per CPU); any setting produces byte-identical output")
	timing := fs.Bool("timing", false, "print where the run's wall clock went, per pipeline stage, to stderr; output is unchanged")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: chronus simulate (-spec FILE [-record FILE] | -replay FILE) [-lanes N] [-timing]")
	}
	opts := []ecosched.RunOption{ecosched.WithLanes(*lanes)}
	var stages ecosched.PipelineTiming
	if *timing {
		opts = append(opts, ecosched.WithTiming(time.Now, &stages))
	}
	switch {
	case *lanes < 0:
		return fmt.Errorf("-lanes %d: want 0 (one per CPU) or a positive lane count", *lanes)
	case *specPath != "" && *replayPath != "":
		return fmt.Errorf("-spec and -replay are mutually exclusive")
	case *replayPath != "" && *recordPath != "":
		return fmt.Errorf("-record only applies to generated runs (-spec)")
	case *replayPath != "":
		f, err := os.Open(*replayPath)
		if err != nil {
			return err
		}
		defer f.Close()
		report, err := ecosched.ReplayClusterLog(f, opts...)
		if err != nil {
			return err
		}
		report.WriteText(os.Stdout)
		if *timing {
			stages.WriteText(os.Stderr)
		}
		return nil
	case *specPath == "":
		return fmt.Errorf("usage: chronus simulate (-spec FILE [-record FILE] | -replay FILE) [-lanes N] [-timing]")
	}

	spec, err := workload.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	var rec io.Writer
	var recFile *os.File
	if *recordPath != "" {
		if recFile, err = os.Create(*recordPath); err != nil {
			return err
		}
		rec = recFile
	}
	report, err := ecosched.RunClusterSpec(spec, rec, opts...)
	if recFile != nil {
		if cerr := recFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	report.WriteText(os.Stdout)
	if *recordPath != "" {
		fmt.Printf("recorded     %s (replay with `chronus simulate -replay %s`)\n", *recordPath, *recordPath)
	}
	if *timing {
		stages.WriteText(os.Stderr)
	}
	return nil
}

func cmdServe(d *ecosched.Deployment, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address")
	withPprof := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: chronus serve [-addr HOST:PORT] [-pprof]")
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving /metrics /trace /healthz on http://%s\n", ln.Addr())
	return http.Serve(ln, d.Handler(ecosched.ServeConfig{Pprof: *withPprof}))
}

func cmdSet(d *ecosched.Deployment, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: chronus set (database|blob-storage|state) VALUE")
	}
	key, value := args[0], args[1]
	switch key {
	case "database":
		return d.Chronus.Set.SetDatabase(value)
	case "blob-storage":
		return d.Chronus.Set.SetBlobStorage(value)
	case "state":
		if err := d.Chronus.Set.SetState(value); err != nil {
			return err
		}
		fmt.Printf("plugin state set to %s\n", value)
		return nil
	default:
		// Keep parity with the paper's help text.
		if _, err := strconv.Atoi(key); err == nil {
			return fmt.Errorf("set takes a key, not an id")
		}
		return fmt.Errorf("unknown setting %q (want database, blob-storage or state)", key)
	}
}
