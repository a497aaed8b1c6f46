// Loadgen is the fleet-rate sustained-load harness: it drives the
// simulated cluster controller (or the prediction service directly) at
// a configurable rate and reports what the telemetry pipeline saw —
// throughput, wall-clock p50/p99/p999 of the submit hot path, the
// simulated decision-latency percentiles, and a submit-latency SLO
// evaluation against the slurm.conf eco_budget. The wall-clock numbers
// measure the *host* cost of a submission (sharded metric updates,
// async trace enqueue — the pieces this harness exists to regress),
// while the simulated numbers measure the *modelled* decision latency
// the paper's budget argument is about.
package ecosched

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ecosched/internal/core"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/metrics"
	"ecosched/internal/slurm"
	"ecosched/internal/trace"
)

// MetricLoadgenLatency is the bucketed histogram of the harness's
// wall-clock per-operation latency — the host-side cost of one submit
// (plugin chain, sharded metrics, async trace enqueue), not the
// simulated decision latency.
const MetricLoadgenLatency = "chronus.loadgen.submit_latency"

// Loadgen modes.
const (
	// LoadgenModeSubmit drives Controller.Submit serially (the
	// controller, like slurmctld, processes submissions on one
	// goroutine), advancing the simulated clock between arrivals so
	// jobs start and finish like a running fleet.
	LoadgenModeSubmit = "submit"
	// LoadgenModePredict fans Concurrency goroutines out over the
	// thread-safe prediction service — the plugin's hot path without
	// the controller serialization, where sharded metrics and async
	// trace emission earn their keep.
	LoadgenModePredict = "predict"
)

// LoadgenOptions configure one harness run. The zero value is a valid
// submit-mode run with the defaults below.
type LoadgenOptions struct {
	// Mode is LoadgenModeSubmit (default) or LoadgenModePredict.
	Mode string
	// Count is the number of operations (default 1000).
	Count int
	// Rate is the submission arrival rate in operations per simulated
	// second, submit mode only (default 100).
	Rate float64
	// Concurrency is the predict-mode fan-out width (default 8).
	Concurrency int
	// Budget is the SLO latency threshold; 0 falls back to the eco
	// plugin's configured budget (slurm.conf eco_budget) and, when that
	// is unenforced too, the chain-wide PluginBudget (always set).
	Budget time.Duration
	// Objective is the SLO attainment target in (0, 1); 0 uses
	// metrics.DefaultObjective.
	Objective float64
}

// LoadgenReport is the harness outcome.
type LoadgenReport struct {
	Mode string `json:"mode"`
	Ops  int    `json:"ops"`
	// Rejected counts submissions the controller refused (submit mode).
	Rejected int `json:"rejected"`
	// Fallbacks counts fail-open submissions — the plugin left the job
	// unmodified because prediction failed (submit mode).
	Fallbacks int `json:"fallbacks"`
	// Errors counts failed predictions (predict mode).
	Errors      int     `json:"errors"`
	WallSeconds float64 `json:"wall_seconds"`
	// Throughput is operations per wall-clock second.
	Throughput float64 `json:"throughput_ops_per_s"`
	// P50/P99/P999 are the harness's wall-clock per-operation latency.
	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	// SimP50/SimP99/SimP999 are the simulated decision-latency
	// percentiles (plugin-chain latency in submit mode, prediction
	// latency in predict mode).
	SimP50  time.Duration `json:"sim_p50_ns"`
	SimP99  time.Duration `json:"sim_p99_ns"`
	SimP999 time.Duration `json:"sim_p999_ns"`
	// SLO evaluates the simulated latency histogram against the budget;
	// nil when no budget is configured.
	SLO *metrics.SLOReport `json:"slo,omitempty"`
	// DroppedTraceEvents is the chronus.trace.dropped count after the
	// run's trace drain — nonzero means the async rings overflowed and
	// the journal is incomplete.
	DroppedTraceEvents int64 `json:"dropped_trace_events"`
}

// RunLoadgen runs the sustained-load harness against the deployment.
func (d *Deployment) RunLoadgen(opts LoadgenOptions) (LoadgenReport, error) {
	mode := opts.Mode
	if mode == "" {
		mode = LoadgenModeSubmit
	}
	count := opts.Count
	if count <= 0 {
		count = 1000
	}
	rate := opts.Rate
	if rate <= 0 {
		rate = 100
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 8
	}
	objective := opts.Objective
	if objective == 0 {
		objective = metrics.DefaultObjective
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = d.sloBudget()
	}

	wall := d.Metrics.BucketedHistogram(MetricLoadgenLatency)
	rep := LoadgenReport{Mode: mode, Ops: count}
	var simMetric string
	start := time.Now()

	switch mode {
	case LoadgenModeSubmit:
		simMetric = slurm.MetricChainLatency
		gap := time.Duration(float64(time.Second) / rate)
		desc := slurm.JobDesc{
			Name:       "loadgen",
			BinaryPath: d.HPCGPath,
			Comment:    ecoplugin.OptInComment,
			NumTasks:   1,
			TimeLimit:  time.Minute,
		}
		fallbacksBefore := d.Plugin.Fallbacks
		for i := 0; i < count; i++ {
			t0 := time.Now()
			_, err := d.Cluster.Submit(desc)
			wall.ObserveDuration(time.Since(t0))
			if err != nil {
				rep.Rejected++
			}
			// The arrival process: advance simulated time by the
			// inter-arrival gap so queued jobs start and finish while
			// the next submissions arrive.
			d.Sim.RunFor(gap)
		}
		rep.Fallbacks = d.Plugin.Fallbacks - fallbacksBefore

	case LoadgenModePredict:
		simMetric = core.MetricPredictLatency
		sysHash, err := ecoplugin.SystemHash(d.fs)
		if err != nil {
			return rep, err
		}
		req := ecoplugin.PredictRequest{
			SystemHash: sysHash,
			BinaryHash: ecoplugin.BinaryHash(d.HPCGPath),
			Budget:     budget,
		}
		var issued, errs atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for issued.Add(1) <= int64(count) {
					t0 := time.Now()
					_, err := d.Chronus.Predict.Predict(context.Background(), req)
					wall.ObserveDuration(time.Since(t0))
					if err != nil {
						errs.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		rep.Errors = int(errs.Load())

	default:
		return rep, fmt.Errorf("ecosched: unknown loadgen mode %q (want %q or %q)",
			mode, LoadgenModeSubmit, LoadgenModePredict)
	}

	rep.WallSeconds = time.Since(start).Seconds()
	if rep.WallSeconds > 0 {
		rep.Throughput = float64(count) / rep.WallSeconds
	}
	qs := wall.Quantiles(0.50, 0.99, 0.999)
	rep.P50, rep.P99, rep.P999 = secDur(qs[0]), secDur(qs[1]), secDur(qs[2])

	// Flush the async trace rings before reading the drop counter, so
	// the report describes the finished run, not a moving one.
	d.Tracer.Drain()
	snap := d.Metrics.Snapshot()
	rep.DroppedTraceEvents = snap.Counters[trace.MetricDropped]
	if st, ok := snap.Histograms[simMetric]; ok && st.Count > 0 {
		rep.SimP50, rep.SimP99, rep.SimP999 = secDur(st.P50), secDur(st.P99), secDur(st.P999)
	}
	if budget > 0 {
		if slo, err := metrics.EvalSLO(snap, metrics.SLO{
			Metric: simMetric, Threshold: budget, Objective: objective,
		}); err == nil && !slo.NoData {
			rep.SLO = &slo
		}
	}
	return rep, nil
}

// sloBudget resolves the deployment's submit-latency threshold: the
// eco plugin's eco_budget when enforced, otherwise the chain-wide
// PluginBudget slurmctld itself holds the submit path to.
func (d *Deployment) sloBudget() time.Duration {
	if b := d.Plugin.Budget(); b > 0 {
		return b
	}
	return d.Cluster.Conf().PluginBudget
}

// secDur converts a seconds-valued quantile to a duration; NaN (empty
// histogram) becomes zero.
func secDur(v float64) time.Duration {
	if math.IsNaN(v) {
		return 0
	}
	return time.Duration(v * float64(time.Second))
}

// WriteText renders the report in a stable human-readable layout.
func (r LoadgenReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "loadgen     %s\n", r.Mode)
	switch r.Mode {
	case LoadgenModePredict:
		fmt.Fprintf(w, "ops         %d (%d errors)\n", r.Ops, r.Errors)
	default:
		fmt.Fprintf(w, "ops         %d (%d rejected, %d fallbacks)\n", r.Ops, r.Rejected, r.Fallbacks)
	}
	fmt.Fprintf(w, "wall        %.3fs (%.0f ops/s)\n", r.WallSeconds, r.Throughput)
	fmt.Fprintf(w, "wall lat    p50=%v p99=%v p999=%v\n",
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.P999.Round(time.Microsecond))
	fmt.Fprintf(w, "sim lat     p50=%v p99=%v p999=%v\n",
		r.SimP50.Round(time.Microsecond), r.SimP99.Round(time.Microsecond), r.SimP999.Round(time.Microsecond))
	fmt.Fprintf(w, "trace drops %d\n", r.DroppedTraceEvents)
	if r.SLO != nil {
		r.SLO.WriteText(w)
	}
}
