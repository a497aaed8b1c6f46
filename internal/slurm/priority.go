package slurm

import (
	"sort"
	"time"
)

// SchedulingPolicy orders the pending queue each scheduling pass. The
// default is FIFO; Multifactor reproduces (in miniature) the
// multifactor priority plugin the paper's related work describes for
// Niagara: "balance various factors used in priority computation, such
// as job age and size ... and the user's fair share of the system"
// (§2.1).
type SchedulingPolicy interface {
	Name() string
	// prioritySlot is the job's priority at now: a pass schedules in
	// descending priority, ties broken by submission order. usageBy is
	// the controller's fair-share store (consumed CPU-seconds), indexed
	// by the job's userSlot.
	prioritySlot(j *Job, now time.Time, usageBy []float64) float64
}

// FIFOPolicy schedules strictly in submission order.
type FIFOPolicy struct{}

// Name implements SchedulingPolicy.
func (FIFOPolicy) Name() string { return "fifo" }

// prioritySlot implements SchedulingPolicy: every job ties, so the
// tie-break — submission order — is the order. (A pending queue is
// already in that order, which is why a FIFO partition never sorts.)
func (FIFOPolicy) prioritySlot(*Job, time.Time, []float64) float64 { return 0 }

// MultifactorPolicy weights job age, job size and the submitting
// user's fair share. All factors are normalised to [0, 1]; a job's
// priority is the weighted sum, ties broken by submission order.
type MultifactorPolicy struct {
	AgeWeight       float64       // rises as the job waits
	SizeWeight      float64       // favours smaller jobs (easier to place)
	FairShareWeight float64       // favours users who have consumed less
	MaxAge          time.Duration // wait time at which the age factor saturates
	MaxCores        int           // normalisation for the size factor
	UsageHalfLife   float64       // CPU-seconds at which fair share halves
}

// DefaultMultifactor returns weights resembling a small production
// setup: fair share dominates, age breaks starvation, size nudges.
func DefaultMultifactor(maxCores int) MultifactorPolicy {
	return MultifactorPolicy{
		AgeWeight:       1000,
		SizeWeight:      100,
		FairShareWeight: 2000,
		MaxAge:          24 * time.Hour,
		MaxCores:        maxCores,
		UsageHalfLife:   32 * 3600, // one node-day
	}
}

// Name implements SchedulingPolicy.
func (MultifactorPolicy) Name() string { return "multifactor" }

// prioritySlot implements SchedulingPolicy: the weighted sum of the
// age, size and fair-share factors.
func (p MultifactorPolicy) prioritySlot(j *Job, now time.Time, usageBy []float64) float64 {
	age := 0.0
	if p.MaxAge > 0 {
		age = float64(now.Sub(j.SubmitTime)) / float64(p.MaxAge)
		if age > 1 {
			age = 1
		}
	}
	size := 0.0
	if p.MaxCores > 0 {
		size = 1 - float64(j.Desc.NumTasks)/float64(p.MaxCores)
		if size < 0 {
			size = 0
		}
	}
	fair := 1.0
	if p.UsageHalfLife > 0 {
		fair = p.UsageHalfLife / (p.UsageHalfLife + usageBy[j.userSlot])
	}
	return p.AgeWeight*age + p.SizeWeight*size + p.FairShareWeight*fair
}

// prioSorter sorts jobs by cached priority key, descending, with the
// job id as a strict tiebreaker — a total order, so the result is
// identical to a stable sort by key.
type prioSorter struct {
	jobs []*Job
	keys []float64
}

func (s *prioSorter) Len() int { return len(s.jobs) }

func (s *prioSorter) Less(i, j int) bool {
	if s.keys[i] != s.keys[j] {
		return s.keys[i] > s.keys[j]
	}
	return s.jobs[i].ID < s.jobs[j].ID
}

func (s *prioSorter) Swap(i, j int) {
	s.jobs[i], s.jobs[j] = s.jobs[j], s.jobs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// orderKeyed orders the partition's pending queue by its policy:
// each job's priority is computed once per pass, then the queue sorts
// on the cached keys (a comparison-time priority would be recomputed
// O(n log n) times), reusing the partition's key buffer and sorter.
func (p *partition) orderKeyed(now time.Time, usageBy []float64) {
	if cap(p.prios) < len(p.pending) {
		p.prios = make([]float64, len(p.pending))
	}
	p.prios = p.prios[:len(p.pending)]
	for i, j := range p.pending {
		p.prios[i] = p.policy.prioritySlot(j, now, usageBy)
	}
	p.sorter.jobs = p.pending
	p.sorter.keys = p.prios
	sort.Sort(&p.sorter)
	p.sorter.jobs = nil
	p.sorter.keys = nil
}
