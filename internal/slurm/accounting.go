package slurm

import (
	"sort"
	"time"
)

// AcctRecord is one slurmdbd accounting row: what the cluster knows
// about a finished job, including the energy accounting the eco
// plugin's evaluation reads back.
type AcctRecord struct {
	JobID      int
	Name       string
	State      JobState
	NodeName   string
	Cores      int
	FreqKHz    int
	ThreadsPer int
	Submit     time.Time
	Start      time.Time
	End        time.Time
	SystemKJ   float64
	CPUKJ      float64
	GFLOPS     float64
}

// Runtime returns the executed wall time.
func (r AcctRecord) Runtime() time.Duration {
	if r.Start.IsZero() || r.End.IsZero() {
		return 0
	}
	return r.End.Sub(r.Start)
}

// AvgSystemW is the mean system power over the run.
func (r AcctRecord) AvgSystemW() float64 {
	secs := r.Runtime().Seconds()
	if secs <= 0 {
		return 0
	}
	return r.SystemKJ * 1000 / secs
}

// GFLOPSPerWatt is the efficiency metric of the evaluation.
func (r AcctRecord) GFLOPSPerWatt() float64 {
	w := r.AvgSystemW()
	if w <= 0 {
		return 0
	}
	return r.GFLOPS / w
}

// AcctTotals are running aggregates over every terminal job,
// maintained in both accounting modes. They are the byte-comparable
// outcome of a cluster run: two runs agree iff their totals agree.
type AcctTotals struct {
	Jobs           int
	Completed      int
	Failed         int
	Cancelled      int
	SystemKJ       float64
	CPUKJ          float64
	CPUSeconds     float64 // cores × runtime, summed
	RuntimeSeconds float64
	WaitSeconds    float64 // submit → start, for jobs that started
}

// Accounting is the simulated slurmdbd. In the default mode it keeps
// one row per job; in aggregate-only mode (WithAggregateAccounting)
// it keeps only the running totals, bounding memory for runs with
// millions of submissions.
type Accounting struct {
	records       []AcctRecord
	totals        AcctTotals
	aggregateOnly bool
}

func (a *Accounting) record(job *Job) {
	a.totals.Jobs++
	switch job.State {
	case StateCompleted:
		a.totals.Completed++
	case StateFailed:
		a.totals.Failed++
	case StateCancelled:
		a.totals.Cancelled++
	}
	a.totals.SystemKJ += job.SystemJ / 1000
	a.totals.CPUKJ += job.CPUJ / 1000
	if !job.StartTime.IsZero() {
		// The controller stamps tick mirrors on every path a started job
		// ends by; the duration arithmetic is identical to Sub on the
		// time.Time fields.
		secs := time.Duration(job.endTick - job.startTick).Seconds()
		a.totals.RuntimeSeconds += secs
		a.totals.CPUSeconds += float64(job.Desc.NumTasks) * secs
		a.totals.WaitSeconds += time.Duration(job.startTick - job.submitTick).Seconds()
	}
	if a.aggregateOnly {
		return
	}
	a.records = append(a.records, AcctRecord{
		JobID:      job.ID,
		Name:       job.Desc.Name,
		State:      job.State,
		NodeName:   job.NodeName,
		Cores:      job.Desc.NumTasks,
		FreqKHz:    job.Desc.MaxFreqKHz,
		ThreadsPer: job.Desc.ThreadsPerCPU,
		Submit:     job.SubmitTime,
		Start:      job.StartTime,
		End:        job.EndTime,
		SystemKJ:   job.SystemJ / 1000,
		CPUKJ:      job.CPUJ / 1000,
		GFLOPS:     job.GFLOPS,
	})
}

// Records returns all accounting rows ordered by job id.
func (a *Accounting) Records() []AcctRecord {
	out := append([]AcctRecord(nil), a.records...)
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Record returns the accounting row for one job.
func (a *Accounting) Record(jobID int) (AcctRecord, bool) {
	for _, r := range a.records {
		if r.JobID == jobID {
			return r, true
		}
	}
	return AcctRecord{}, false
}

// Totals returns the running aggregates over all terminal jobs.
func (a *Accounting) Totals() AcctTotals { return a.totals }

// TotalSystemKJ sums system energy over all terminal jobs.
func (a *Accounting) TotalSystemKJ() float64 {
	return a.totals.SystemKJ
}
