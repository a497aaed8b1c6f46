package slurm

import (
	"sort"
	"time"
	"unsafe"

	"ecosched/internal/simclock"
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
	chunk0        []acctRow
	chunks        [][]acctRow // chunks 1…, each acctChunkSize rows when full
	totals        AcctTotals
	aggregateOnly bool
}

// acctRow is the stored form of an AcctRecord, rebuilt on read (rec).
// A long-lived controller keeps one per finished job, so it holds the
// times as the job's ticks and the state as a code: 104 B, where the
// record's three time.Time values and state string take it to 176.
// Cores and threads fit 16 bits because NewCluster accepts no node
// wider (maxNodeWidth) and submission caps both at the node's.
type acctRow struct {
	name, nodeName     string
	submit, start, end simclock.Tick // start is zero for a job that never started
	systemKJ, cpuKJ    float64
	gflops             float64
	jobID, freqKHz     int
	cores, threadsPer  uint16
	state              uint8 // index in acctStates
}

// acctStates decodes a row's state code, the state's index here;
// completion first, the state almost every row has.
var acctStates = [...]JobState{StateCompleted, StateFailed, StateCancelled, StatePending, StateRunning}

// acctChunkSize is the row capacity of a full chunk: as many rows as
// fit 64 KB, eight whole pages, since a chunk is past the largest size
// class (630 rows; 512 would leave 16 B a row of a seventh page idle).
const acctChunkSize = 64 << 10 / int(unsafe.Sizeof(acctRow{}))

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
	if start := job.StartTime; !start.IsZero() {
		secs := time.Duration(job.EndTime - start).Seconds()
		a.totals.RuntimeSeconds += secs
		a.totals.CPUSeconds += float64(job.Desc.NumTasks) * secs
		a.totals.WaitSeconds += time.Duration(start - job.SubmitTime).Seconds()
	}
	if a.aggregateOnly {
		return
	}
	// A job that never started ends where it is refused, which stamps
	// EndTime alone.
	a.appendRow(acctRow{
		name:       job.Desc.Name,
		nodeName:   job.NodeName,
		submit:     job.SubmitTime,
		start:      job.StartTime,
		end:        job.EndTime,
		systemKJ:   job.SystemJ / 1000,
		cpuKJ:      job.CPUJ / 1000,
		gflops:     job.GFLOPS,
		jobID:      job.ID,
		freqKHz:    job.Desc.MaxFreqKHz,
		cores:      uint16(job.Desc.NumTasks),
		threadsPer: uint16(job.Desc.ThreadsPerCPU),
		state:      acctStateCode(job.State),
	})
}

// acctStateCode is the state's index in acctStates; the controller
// records a job only in a state listed there.
func acctStateCode(s JobState) uint8 {
	for i, v := range acctStates {
		if v == s {
			return uint8(i)
		}
	}
	panic("slurm: accounting a job in unknown state " + string(s))
}

// rec rebuilds the record the row stores, its times in UTC.
func (r *acctRow) rec() AcctRecord {
	return AcctRecord{
		JobID:      r.jobID,
		Name:       r.name,
		State:      acctStates[r.state],
		NodeName:   r.nodeName,
		Cores:      int(r.cores),
		FreqKHz:    r.freqKHz,
		ThreadsPer: int(r.threadsPer),
		Submit:     r.submit.Time(),
		Start:      r.start.Time(),
		End:        r.end.Time(),
		SystemKJ:   r.systemKJ,
		CPUKJ:      r.cpuKJ,
		GFLOPS:     r.gflops,
	}
}

// appendRow adds a row to the last chunk, growing chunk 0 or opening a
// full-size chunk when it has no room.
func (a *Accounting) appendRow(r acctRow) {
	if n := len(a.chunk0); n < acctChunkSize {
		if n == cap(a.chunk0) {
			a.chunk0 = append(make([]acctRow, 0, min(max(2*n, 1), acctChunkSize)), a.chunk0...)
		}
		a.chunk0 = append(a.chunk0, r)
		return
	}
	if last := len(a.chunks) - 1; last < 0 || len(a.chunks[last]) == acctChunkSize {
		a.chunks = append(a.chunks, make([]acctRow, 0, acctChunkSize))
	}
	last := &a.chunks[len(a.chunks)-1]
	*last = append(*last, r)
}

// Records returns all accounting rows ordered by job id.
func (a *Accounting) Records() []AcctRecord {
	n := len(a.chunk0)
	for _, c := range a.chunks {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	out := make([]AcctRecord, 0, n)
	for i := range a.chunk0 {
		out = append(out, a.chunk0[i].rec())
	}
	for _, c := range a.chunks {
		for i := range c {
			out = append(out, c[i].rec())
		}
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
			if rows[i].jobID == jobID {
				return rows[i].rec(), true
			}
		}
	}
	return AcctRecord{}, false
}

// Totals returns the running aggregates over all terminal jobs.
func (a *Accounting) Totals() AcctTotals { return a.totals }
