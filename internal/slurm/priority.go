package slurm

import (
	"sort"
	"time"
)

// The multifactor priority reproduces (in miniature) the plugin the
// paper's related work describes for Niagara: "balance various factors
// used in priority computation, such as job age and size ... and the
// user's fair share of the system" (§2.1). Each factor is normalised to
// [0, 1]; a job's priority is their weighted sum. Fair share dominates,
// age breaks starvation, size nudges.
const (
	ageWeight       = 1000           // rises as the job waits
	sizeWeight      = 100            // favours smaller jobs (easier to place)
	fairShareWeight = 2000           // favours users who have consumed less
	maxAge          = 24 * time.Hour // wait time at which the age factor saturates
	usageHalfLife   = 32 * 3600      // CPU-seconds at which fair share halves: one node-day
)

// priority is the job's multifactor priority at tick now: a pass schedules
// in descending priority, ties broken by submission order. usageBy is
// the controller's fair-share store (consumed CPU-seconds), indexed by
// the job's userSlot; the size factor is relative to the widest node in
// the pool.
func (p *partition) priority(j *Job, now int64, usageBy []float64) float64 {
	age := float64(now-int64(j.SubmitTime)) / float64(maxAge)
	if age > 1 {
		age = 1
	}
	size := 1 - float64(j.Desc.NumTasks)/float64(p.maxCores)
	if size < 0 {
		size = 0
	}
	fair := usageHalfLife / (usageHalfLife + usageBy[j.userSlot])
	return ageWeight*age + sizeWeight*size + fairShareWeight*fair
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

// orderKeyed orders a multifactor partition's pending queue: each
// job's priority is computed once per pass, then the queue sorts on the
// cached keys (a comparison-time priority would be recomputed
// O(n log n) times), reusing the partition's key buffer and sorter.
func (p *partition) orderKeyed(now int64, usageBy []float64) {
	if cap(p.prios) < len(p.pending) {
		p.prios = make([]float64, len(p.pending))
	}
	p.prios = p.prios[:len(p.pending)]
	for i, j := range p.pending {
		p.prios[i] = p.priority(j, now, usageBy)
	}
	p.sorter.jobs = p.pending
	p.sorter.keys = p.prios
	sort.Sort(&p.sorter)
	p.sorter.jobs = nil
	p.sorter.keys = nil
}
