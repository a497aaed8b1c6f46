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
	Slabs *Slabs
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
	trace := &telemetry.Trace{Samples: s.Slabs.takeSamples()}
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
		s.Slabs.giveSamples(s.trace.Samples)
		s.trace = nil
	}
}

// Slabs is the sweep's one free list of per-configuration storage: the
// simulator a node stack runs on, the sample slab its trace fills and
// the buffer its CSV is encoded into, each passed on from a
// configuration already measured to the next. A slab is only ever
// capacity: it is lent out empty (a simulator reset to Epoch), and
// everything in it was written by the measurement holding it, so which
// slab a measurement happens to get cannot show in its result. A
// simulator and a sample slab come back when their node stack closes;
// a CSV buffer once the blob store's Put of it has returned (Put
// retains nothing). At most one of each is out per sweep worker plus
// the results waiting to commit, and each grows to the longest trace
// it has met. Safe for concurrent use. A nil *Slabs lends nothing: a
// stack built outside a sweep makes its own.
type Slabs struct {
	mu      sync.Mutex
	sims    []*simclock.Sim
	samples [][]telemetry.Sample
	csv     [][]byte
}

// TakeSim lends a simulator whose clock starts at Epoch with nothing
// pending: one a closed stack handed back, or a new one.
func (p *Slabs) TakeSim() *simclock.Sim {
	if p != nil {
		if sim := take(&p.mu, &p.sims); sim != nil {
			return sim
		}
	}
	return simclock.New()
}

// GiveSim hands back a simulator that nothing will run again. Its
// pending events are dropped here, so it holds no reference into the
// stack it ran.
func (p *Slabs) GiveSim(sim *simclock.Sim) {
	if p != nil {
		sim.Reset(simclock.Epoch)
		give(&p.mu, &p.sims, sim)
	}
}

func (p *Slabs) takeSamples() []telemetry.Sample {
	if p == nil {
		return nil
	}
	return take(&p.mu, &p.samples)
}

func (p *Slabs) giveSamples(slab []telemetry.Sample) {
	if p != nil {
		give(&p.mu, &p.samples, slab[:0])
	}
}

func (p *Slabs) takeCSV() []byte { return take(&p.mu, &p.csv) }

func (p *Slabs) giveCSV(buf []byte) { give(&p.mu, &p.csv, buf[:0]) }

func take[T any](mu *sync.Mutex, free *[]T) T {
	mu.Lock()
	defer mu.Unlock()
	var slab T
	if n := len(*free); n > 0 {
		slab = (*free)[n-1]
		*free = (*free)[:n-1]
	}
	return slab
}

func give[T any](mu *sync.Mutex, free *[]T, slab T) {
	mu.Lock()
	*free = append(*free, slab)
	mu.Unlock()
}
