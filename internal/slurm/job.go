// Package slurm simulates the slice of Slurm the eco plugin lives in:
// a controller (slurmctld) with a FIFO queue and exclusive node
// allocation, per-node daemons (slurmd) driving the simulated
// hardware, the job-submit plugin chain with its latency budget, a
// slurm.conf parser for the JobSubmitPlugins line, an #SBATCH batch
// script parser, accounting (slurmdbd), and the user commands the
// paper exercises: sbatch, srun, squeue, scontrol, scancel, sinfo.
//
// The simulator is single-threaded over internal/simclock: submitting
// is immediate, and callers advance simulated time to let jobs run.
package slurm

import (
	"context"
	"fmt"
	"time"

	"ecosched/internal/perfmodel"
	"ecosched/internal/workload"
)

// JobState is the lifecycle state of a job, mirroring Slurm's.
type JobState string

// Job states (the subset the simulation needs).
const (
	StatePending   JobState = "PENDING"
	StateRunning   JobState = "RUNNING"
	StateCompleted JobState = "COMPLETED"
	StateCancelled JobState = "CANCELLED"
	StateFailed    JobState = "FAILED"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateCompleted, StateCancelled, StateFailed:
		return true
	}
	return false
}

// JobDesc mirrors the fields of Slurm's job_desc_msg_t that the eco
// plugin reads and rewrites (paper §4.2.2): num_tasks,
// threads_per_cpu, min/max frequency — plus the submission metadata
// the plugin keys on (comment, binary path).
type JobDesc struct {
	Name          string
	Script        string // batch script contents (sbatch jobs)
	BinaryPath    string // executable the job runs
	Comment       string // --comment; "chronus" opts in to the eco plugin
	NumTasks      int    // cores to schedule
	ThreadsPerCPU int    // threads per core (hyper-threading when 2)
	MemoryMB      int    // --mem request; 0 = no constraint
	MinFreqKHz    int    // --cpu-freq lower bound
	MaxFreqKHz    int    // --cpu-freq upper bound
	TimeLimit     time.Duration
	Partition     string
	UserID        uint32
	// Deadline is the §6.2.1 extension: the job must finish by this
	// time (zero = none).
	Deadline time.Time
	// BeginTime is the §6.2.4 extension: do not start before this
	// time (zero = as soon as possible).
	BeginTime time.Time
	// ArrayLo/ArrayHi describe an sbatch --array=lo-hi request (both
	// zero = not an array job). Slurm expands arrays into independent
	// tasks; so does the controller.
	ArrayLo, ArrayHi int
	// ArrayIndex is this task's index within its array (meaningful
	// only on expanded tasks).
	ArrayIndex int
	// AfterOK lists job ids that must COMPLETE successfully before
	// this job may start (sbatch --dependency=afterok:ID[:ID...]).
	// If any listed job fails or is cancelled, this job is cancelled
	// with reason DependencyNeverSatisfied, as Slurm does.
	AfterOK []int
	// Exclusive demands the whole node (sbatch --exclusive): the job is
	// never co-scheduled, as primary or secondary.
	Exclusive bool
	// Deferrable marks the job eligible for energy-aware deferral: a
	// deferral policy may hold it while the price/carbon signal is high,
	// until its deadline (or the policy's max-defer bound) forces
	// dispatch.
	Deferrable bool
	// Shape, when set, describes the job's behaviour directly in the
	// workload vocabulary and takes precedence over the BinaryPath
	// workload registry. Generated and replayed submissions carry one.
	Shape *workload.Shape
}

// IsArray reports whether the description requests an array job.
func (d *JobDesc) IsArray() bool {
	return d.ArrayHi > d.ArrayLo || (d.ArrayHi == d.ArrayLo && d.ArrayHi > 0)
}

// Config extracts the hardware configuration the job asks for. Zero
// fields mean "node defaults" and are filled by slurmd.
func (d *JobDesc) Config() perfmodel.Config {
	tpc := d.ThreadsPerCPU
	if tpc == 0 {
		tpc = 1
	}
	return perfmodel.Config{Cores: d.NumTasks, FreqKHz: d.MaxFreqKHz, ThreadsPerCore: tpc}
}

// Job is a queued, running or finished job.
type Job struct {
	ID         int
	Desc       JobDesc
	State      JobState
	Reason     string // why pending/failed/cancelled
	SubmitTime time.Time
	StartTime  time.Time
	EndTime    time.Time
	NodeName   string
	// Accounting, filled at completion.
	SystemJ float64
	CPUJ    float64
	GFLOPS  float64 // sustained application throughput during the run

	node *nodeD // allocated node while running

	// Completion bookkeeping stashed at start so the completion event
	// carries only the job id: energy counters at start, and (timedOut,
	// below) whether the plan was truncated by the time limit.
	sys0, cpu0 float64
	// Tick (UnixNano) mirrors of SubmitTime/StartTime/EndTime, stamped
	// wherever those are for a job that starts: submission, start,
	// completion and cancellation. Accounting and fair share read run
	// and wait times from them, not from the time.Time fields.
	submitTick, startTick, endTick int64
	// releaseTick is the instant the deferral policy's hold on the job
	// ends whatever the signal says — min(SubmitTime + max defer,
	// Deadline − TimeLimit) — derived the first time hold sees the job
	// (0 = not yet; energy.go).
	releaseTick int64
	// userSlot indexes the controller's dense fair-share usage slice
	// (Controller.usageBy) for Desc.UserID, assigned at submission.
	userSlot int32
	// The three flags share userSlot's word: Job is one record per
	// submission, and a word more per job shows in the simulator's
	// bytes per submission (TestJobSize).
	timedOut bool
	// Cluster-policy bookkeeping (energy.go): coSecondary marks a job
	// running as a node's co-scheduled secondary; drawDeltaW is the
	// partition draw attributed at start and returned at completion;
	// estSysW/estCPUW are the secondary's estimated steady power deltas
	// (the hw stack models one job per node, so the secondary's energy
	// is integrated from the power model); deferred records that the
	// deferral policy held the job at least once.
	coSecondary bool
	deferred    bool
	drawDeltaW  float64
	estSysW     float64
	estCPUW     float64
	// shape is the job-owned copy of Desc.Shape, so descriptions built
	// in caller-reused buffers survive past Submit without a per-job
	// heap allocation.
	shape workload.Shape
}

// shapeProfile returns the job shape's resource profile ("compute",
// "memory", or "") — the co-scheduling pairing key.
func (j *Job) shapeProfile() string {
	if j.Desc.Shape != nil {
		return j.Desc.Shape.Profile
	}
	return ""
}

// Runtime returns how long the job ran (so far, if still running is
// not supported — terminal jobs only).
func (j *Job) Runtime() time.Duration {
	if j.StartTime.IsZero() || j.EndTime.IsZero() {
		return 0
	}
	return j.EndTime.Sub(j.StartTime)
}

func (j *Job) String() string {
	return fmt.Sprintf("job %d (%s) %s", j.ID, j.Desc.Name, j.State)
}

// SubmitPlugin is the job-submit plugin interface — Slurm's
// job_submit_plugin_t reduced to the one call the eco plugin
// implements. JobSubmit may rewrite desc before the job is queued.
// The context carries the submission's decision trace, so a plugin's
// spans nest under the controller's submit span.
//
// The returned duration is the simulated time the plugin spent
// deciding; the controller enforces its plugin latency budget against
// it ("Slurm has a very short time to make a decision when a job is
// submitted ... and raises an error if a plugin takes too long",
// §3.1.2).
type SubmitPlugin interface {
	Name() string
	JobSubmit(ctx context.Context, desc *JobDesc, submitUID uint32) (time.Duration, error)
}
