package core

import (
	"fmt"
	"sync"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/ipmi"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/telemetry"
	"ecosched/internal/workload"
)

// HPCGRunner is the HPCG Application Runner (paper §3.2, §4.2.3): it
// renders the sbatch file of Listing 6, submits it through Slurm, and
// waits for the accounting record.
type HPCGRunner struct {
	Controller *slurm.Controller
	HPCGPath   string  // path to the xhpcg binary, as the CLI takes it
	jobGFLOP   float64 // job size, kept so Rebind can re-register it
}

// NewHPCGRunner wires the runner and registers the HPCG workload model
// (fixed work, runtime from the node's calibrated throughput) with the
// controller.
func NewHPCGRunner(c *slurm.Controller, hpcgPath string, jobGFLOP float64) (*HPCGRunner, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil controller")
	}
	if hpcgPath == "" {
		return nil, fmt.Errorf("core: empty HPCG path")
	}
	if jobGFLOP <= 0 {
		return nil, fmt.Errorf("core: non-positive job size %v GFLOP", jobGFLOP)
	}
	c.RegisterWorkload(hpcgPath, workload.FixedWork("hpcg", jobGFLOP))
	return &HPCGRunner{Controller: c, HPCGPath: hpcgPath, jobGFLOP: jobGFLOP}, nil
}

// Rebind implements ApplicationRunner: the same HPCG application and job
// size on a freshly provisioned cluster.
func (r *HPCGRunner) Rebind(c *slurm.Controller) (ApplicationRunner, error) {
	return NewHPCGRunner(c, r.HPCGPath, r.jobGFLOP)
}

// Name implements ApplicationRunner.
func (r *HPCGRunner) Name() string { return "hpcg" }

// BinaryPath implements ApplicationRunner.
func (r *HPCGRunner) BinaryPath() string { return r.HPCGPath }

// Run implements ApplicationRunner.
func (r *HPCGRunner) Run(cfg perfmodel.Config) (RunResult, error) {
	script := slurm.RenderBatchScript(r.HPCGPath, cfg.Cores, cfg.FreqKHz, cfg.ThreadsPerCore)
	job, err := r.Controller.SubmitScript(script)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: hpcg submit: %w", err)
	}
	done, err := r.Controller.WaitFor(job.ID)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: hpcg wait: %w", err)
	}
	if done.State != slurm.StateCompleted {
		return RunResult{}, fmt.Errorf("core: hpcg job %d ended %s (%s)", done.ID, done.State, done.Reason)
	}
	rec, ok := r.Controller.Accounting().Record(done.ID)
	if !ok {
		return RunResult{}, fmt.Errorf("core: hpcg job %d has no accounting record", done.ID)
	}
	return RunResult{GFLOPS: rec.GFLOPS, Runtime: rec.Runtime()}, nil
}

// IPMISystemService is the System Service integration over the BMC
// (paper §3.2): it samples Total_Power, CPU_Power and CPU_Temp while
// a benchmark runs.
type IPMISystemService struct {
	Sim  *simclock.Sim
	Conn *ipmi.Conn
	Node *hw.Node
	// Slabs, when set, lends the trace its sample storage; Release
	// hands it back. The sweep provisioner shares one across the node
	// stacks it builds, so consecutive configurations fill the same
	// slab instead of each growing its own.
	Slabs *SampleSlabs
	trace *telemetry.Trace // the trace being (or last) filled, until Release
}

// NewIPMISystemService opens the BMC connection (needing root or the
// paper's `chmod o+r /dev/ipmi0`) and returns the service.
func NewIPMISystemService(sim *simclock.Sim, bmc *ipmi.BMC, node *hw.Node, asRoot bool) (*IPMISystemService, error) {
	conn, err := bmc.Open(asRoot)
	if err != nil {
		return nil, err
	}
	return &IPMISystemService{Sim: sim, Conn: conn, Node: node}, nil
}

// StartSampling implements SystemService.
func (s *IPMISystemService) StartSampling(interval time.Duration) func() *telemetry.Trace {
	trace := &telemetry.Trace{Samples: s.Slabs.take()}
	s.trace = trace
	sampler := ipmi.NewSampler(s.Sim, s.Conn, s.Node, trace)
	sampler.Start(interval)
	return func() *telemetry.Trace {
		sampler.Stop()
		return trace
	}
}

// Release ends the life of the trace StartSampling returned: its
// sample storage goes back to Slabs, so the caller must be done
// reading it. It is BenchNode.Close for a provisioned stack.
func (s *IPMISystemService) Release() {
	if s.trace != nil {
		s.Slabs.give(s.trace.Samples)
		s.trace = nil
	}
}

// SampleSlabs passes the sample storage of a finished trace on to the
// next one. A slab is only ever capacity: it is lent out empty and
// every sample in a trace was appended by that trace's own sampler, so
// which slab a measurement happens to get cannot show in its result.
// At most one slab is out per sweep worker, and each grows to the
// longest trace that worker has met. Safe for concurrent use; the nil
// value lends nothing.
type SampleSlabs struct {
	mu   sync.Mutex
	free [][]telemetry.Sample
}

func (p *SampleSlabs) take() []telemetry.Sample {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	slab := p.free[n-1]
	p.free = p.free[:n-1]
	return slab
}

func (p *SampleSlabs) give(slab []telemetry.Sample) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, slab[:0])
	p.mu.Unlock()
}
