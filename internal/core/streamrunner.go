package core

import (
	"fmt"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/slurm"
)

// StreamRunner is a second Application Runner implementation — the
// paper's Application Runner interface exists so Chronus can
// "integrate with all applications" (§3.2), and "the best energy
// efficiency configuration changes for each application". STREAM-style
// triads are almost purely bandwidth-bound: per-core compute capacity
// dwarfs the memory roof at every frequency, so unlike HPCG the
// energy-optimal configuration drops to the lowest P-state.
type StreamRunner struct {
	Controller *slurm.Controller
	StreamPath string
	model      *perfmodel.Roofline
}

// StreamModel returns the bandwidth-bound throughput model the runner
// plans with: the same node power envelope, but compute so
// over-provisioned that frequency only costs energy.
func StreamModel() *perfmodel.Roofline {
	r := perfmodel.DefaultRoofline()
	r.GFLOPSPerCoreGHz = 4.0 // per-core compute far above the memory roof
	r.MemRoofGFLOPS = 11.0   // slightly higher achievable bandwidth (pure streaming)
	r.MemHalfCores = 2.5
	return r
}

// streamWorkload plans STREAM jobs on a node: fixed work at the
// bandwidth-bound rate.
type streamWorkload struct {
	model *perfmodel.Roofline
	gflop float64
}

func (w streamWorkload) Name() string { return "stream" }

func (w streamWorkload) Plan(node *hw.Node, cfg perfmodel.Config) (time.Duration, float64) {
	g := w.model.GFLOPS(cfg)
	if g <= 0 {
		return 0, 0
	}
	return time.Duration(w.gflop / g * float64(time.Second)), g
}

// NewStreamRunner wires the runner and registers its workload model.
// Jobs are sized to ~10 minutes at full configuration.
func NewStreamRunner(c *slurm.Controller, streamPath string) (*StreamRunner, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil controller")
	}
	if streamPath == "" {
		return nil, fmt.Errorf("core: empty STREAM path")
	}
	model := StreamModel()
	full := perfmodel.Config{Cores: model.TotalCores, FreqKHz: 2_500_000, ThreadsPerCore: 1}
	gflop := model.GFLOPS(full) * 600
	c.RegisterWorkload(streamPath, streamWorkload{model: model, gflop: gflop})
	return &StreamRunner{Controller: c, StreamPath: streamPath, model: model}, nil
}

// Rebind implements ApplicationRunner: the same STREAM application on a
// freshly provisioned cluster.
func (r *StreamRunner) Rebind(c *slurm.Controller) (ApplicationRunner, error) {
	return NewStreamRunner(c, r.StreamPath)
}

// Name implements ApplicationRunner.
func (r *StreamRunner) Name() string { return "stream" }

// BinaryPath implements ApplicationRunner.
func (r *StreamRunner) BinaryPath() string { return r.StreamPath }

// Run implements ApplicationRunner.
func (r *StreamRunner) Run(cfg perfmodel.Config) (RunResult, error) {
	script := slurm.RenderBatchScript(r.StreamPath, cfg.Cores, cfg.FreqKHz, cfg.ThreadsPerCore)
	job, err := r.Controller.SubmitScript(script)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: stream submit: %w", err)
	}
	done, err := r.Controller.WaitFor(job.ID)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: stream wait: %w", err)
	}
	if done.State != slurm.StateCompleted {
		return RunResult{}, fmt.Errorf("core: stream job %d ended %s (%s)", done.ID, done.State, done.Reason)
	}
	rec, ok := r.Controller.Accounting().Record(done.ID)
	if !ok {
		return RunResult{}, fmt.Errorf("core: stream job %d has no accounting record", done.ID)
	}
	return RunResult{GFLOPS: rec.GFLOPS, Runtime: rec.Runtime()}, nil
}

// WithRunner returns a Chronus bundle identical to c but benchmarking
// a different application — how one deployment manages models for
// several binaries (one model per (system, application) pair).
func (c *Chronus) WithRunner(r ApplicationRunner) (*Chronus, error) {
	deps := c.deps
	deps.Runner = r
	// Share the prediction cache: a load-model through the new handle
	// must invalidate what the old handle's PredictService serves.
	return newWithCache(deps, c.cache)
}
