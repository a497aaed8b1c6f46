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
//
// Rows are kept in chunks that are never copied once full: chunk 0
// doubles in place up to acctChunkSize rows, so a controller that runs
// one job pays for one row, and every later chunk is born full.
type Accounting struct {
	chunk0        []AcctRecord
	chunks        [][]AcctRecord // chunks 1…, each acctChunkSize rows when full
	totals        AcctTotals
	aggregateOnly bool
}

// acctChunkSize is the row capacity of a full chunk (about 88 KB).
const acctChunkSize = 512

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
	a.appendRow(AcctRecord{
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

// appendRow adds a row to the last chunk, growing chunk 0 or opening a
// full-size chunk when it has no room.
func (a *Accounting) appendRow(r AcctRecord) {
	if n := len(a.chunk0); n < acctChunkSize {
		if n == cap(a.chunk0) {
			a.chunk0 = append(make([]AcctRecord, 0, min(max(2*n, 1), acctChunkSize)), a.chunk0...)
		}
		a.chunk0 = append(a.chunk0, r)
		return
	}
	if last := len(a.chunks) - 1; last < 0 || len(a.chunks[last]) == acctChunkSize {
		a.chunks = append(a.chunks, make([]AcctRecord, 0, acctChunkSize))
	}
	last := &a.chunks[len(a.chunks)-1]
	*last = append(*last, r)
}

// Records returns all accounting rows ordered by job id.
func (a *Accounting) Records() []AcctRecord {
	out := append([]AcctRecord(nil), a.chunk0...)
	for _, c := range a.chunks {
		out = append(out, c...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Record returns the accounting row for one job. It is the only lookup
// by id once a job has ended, and the row asked for is usually the one
// just written, so the search runs newest first; a job has one row.
func (a *Accounting) Record(jobID int) (AcctRecord, bool) {
	for ci := len(a.chunks) - 1; ci >= -1; ci-- {
		rows := a.chunk0
		if ci >= 0 {
			rows = a.chunks[ci]
		}
		for i := len(rows) - 1; i >= 0; i-- {
			if rows[i].JobID == jobID {
				return rows[i], true
			}
		}
	}
	return AcctRecord{}, false
}

// Totals returns the running aggregates over all terminal jobs.
func (a *Accounting) Totals() AcctTotals { return a.totals }
