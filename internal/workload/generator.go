package workload

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"ecosched/internal/simclock"
)

// Submission is one generated (or replayed) job submission: when it
// arrives, who submits it, what it asks for, and what its executable
// does. It carries everything a cluster driver needs to build a job
// description, so generated, recorded and replayed runs share one
// vocabulary.
type Submission struct {
	// Seq is the submission's position in the merged stream (0-based).
	Seq int
	// At is the absolute simulated arrival instant.
	At     simclock.Tick
	Client string
	// ClientSeq is the submission's 1-based position in its client's
	// own stream; with Client it names the job (see JobName).
	ClientSeq int
	Partition string // "" = the cluster's default partition
	Tasks     int
	// ThreadsPerCPU is the hyper-threading request (0 = 1).
	ThreadsPerCPU int
	UserID        uint32
	// Comment carries the eco plugin's opt-in marker when set.
	Comment   string
	TimeLimit time.Duration // 0 = cluster default
	Shape     Shape
	// Exclusive jobs demand a whole node and are never co-scheduled.
	Exclusive bool
	// Deferrable jobs accept energy-aware deferral.
	Deferrable bool
	// Deadline is the latest acceptable completion instant (zero =
	// none); only set for deferrable jobs with a deadline_slack dist.
	Deadline simclock.Tick
}

// JobName returns the job's name, "<client>-<n>" with n the ClientSeq:
// what a submission log records and what a job name would read. The
// stream carries the parts, so a run that names no job formats none.
func (s *Submission) JobName() string {
	return s.Client + "-" + strconv.Itoa(s.ClientSeq)
}

// Source is a stream of time-ordered submissions: the generator for
// fresh runs, the log reader for replays.
type Source interface {
	// NextInto fills s with the next submission, in place, so a pump
	// loop that reuses one Submission per pull copies no large struct.
	// ok reports whether one was produced; err is non-nil for a corrupt
	// replay log or a sampled duration the clock cannot represent.
	NextInto(s *Submission) (ok bool, err error)
}

// OptInComment is the eco plugin's submission opt-in marker,
// duplicated here (internal/ecoplugin imports internal/slurm, which
// imports this package) and cross-checked by a test.
const OptInComment = "chronus"

// Generator merges the spec's client streams into one time-ordered,
// fully deterministic submission sequence. It is pull-based and O(1)
// in memory: each NextInto samples exactly one submission.
type Generator struct {
	spec    Spec
	horizon simclock.Tick
	clients []*clientState
	seq     int
}

type clientState struct {
	spec Client
	rng  *simclock.RNG
	next simclock.Tick
	done bool
	err  error // the first duration seconds refused; it ends the stream
	// interMeanS is the flat mean interarrival gap in seconds.
	interMeanS float64
	// scale is the precomputed gamma/weibull scale parameter that
	// yields the requested mean rate at the configured shape.
	scale  float64
	userLo uint32
	userN  int
	jobSeq int
	// sleepName/workName are the client's fixed shape labels,
	// precomputed so the hot sample path does no string concatenation.
	sleepName string
	workName  string
}

// NewGenerator builds a generator for the spec, with submissions
// starting after the given simulated start instant (normally
// simclock.Epoch).
func NewGenerator(spec Spec, start time.Time) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t0 := simclock.Tick(start.UnixNano())
	g := &Generator{spec: spec, horizon: math.MaxInt64}
	if h := int64(spec.Horizon); h < math.MaxInt64-int64(t0) {
		g.horizon = t0 + simclock.Tick(h)
	}
	for i, cs := range spec.Clients {
		// Each client owns an RNG derived from (seed, client index), so
		// client streams are independent: editing one client's spec
		// never shifts another's samples.
		st := &clientState{
			spec:       cs,
			rng:        simclock.NewRNG(spec.Seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))),
			interMeanS: 3600 / cs.Arrival.RatePerHour,
			userLo:     uint32(1000 * (i + 1)),
			userN:      cs.Users,
			sleepName:  cs.Name + "-sleep",
			workName:   cs.Name + "-work",
		}
		if st.userN <= 0 {
			st.userN = 1
		}
		switch cs.Arrival.Process {
		case ArrivalGamma:
			st.scale = st.interMeanS / cs.Arrival.Shape
		case ArrivalWeibull:
			st.scale = st.interMeanS / math.Gamma(1+1/cs.Arrival.Shape)
		}
		st.next = t0 + simclock.Tick(st.gap(t0))
		if st.err != nil {
			return nil, st.err
		}
		if st.next >= g.horizon {
			st.done = true
		}
		g.clients = append(g.clients, st)
	}
	return g, nil
}

// NextInto implements Source: the earliest pending client arrival, ties
// broken by client order. A sampled duration the simulated clock
// cannot represent (see seconds), or a task count no int holds (see
// tasks), is an error.
func (g *Generator) NextInto(s *Submission) (bool, error) {
	if g.spec.MaxSubmissions > 0 && g.seq >= g.spec.MaxSubmissions {
		return false, nil
	}
	var pick *clientState
	for _, st := range g.clients {
		if st.done {
			continue
		}
		if pick == nil || st.next < pick.next {
			pick = st
		}
	}
	if pick == nil {
		return false, nil
	}
	pick.sampleInto(s, g.seq)
	g.seq++
	// Advance the client to its next arrival.
	pick.next += simclock.Tick(pick.gap(pick.next))
	if pick.err != nil {
		return false, pick.err
	}
	if pick.next >= g.horizon {
		pick.done = true
	}
	return true, nil
}

// gap samples the next interarrival gap at the given instant,
// applying the diurnal window weight in effect (rate modulation: a
// 2× window halves the sampled gap).
func (st *clientState) gap(now simclock.Tick) time.Duration {
	var raw float64
	switch st.spec.Arrival.Process {
	case ArrivalGamma:
		raw = Gamma(st.rng, st.spec.Arrival.Shape, st.scale)
	case ArrivalWeibull:
		raw = Weibull(st.rng, st.spec.Arrival.Shape, st.scale)
	default: // poisson
		raw = Exponential(st.rng, st.interMeanS)
	}
	if len(st.spec.Windows) > 0 {
		// A tick is positive (the clock starts after the Unix epoch), so
		// the modular arithmetic equals now.Time().Hour() without
		// time.Time's calendar decoding.
		hour := int(int64(now)/int64(time.Second)%86400) / 3600
		if w := st.weight(hour); w != 1 {
			raw /= w
		}
	}
	if raw < 1e-6 {
		raw = 1e-6 // keep the stream strictly advancing
	}
	return st.seconds(now, raw, "arrival gap")
}

// seconds converts a sampled number of seconds into a Duration from
// base.
// A tick is nanoseconds since the Unix epoch, so an instant past
// time.Unix(0, math.MaxInt64) cannot be scheduled, and seconds × 1e9
// past the int64 range would wrap negative into the past. Such a value
// yields 0 and records an error naming the client and the spec field;
// NextInto returns it.
func (st *clientState) seconds(base simclock.Tick, sec float64, field string) time.Duration {
	// Any float below the (rounded) bound converts to at most
	// MaxInt64 − base; NaN fails the comparison.
	if ns := sec * float64(time.Second); ns < float64(math.MaxInt64-int64(base)) {
		return time.Duration(ns)
	}
	if st.err == nil {
		st.err = fmt.Errorf("workload: client %q: %s of %gs from %s lands past the simulated clock's last instant",
			st.spec.Name, field, sec, base.Time().Format(time.RFC3339))
	}
	return 0
}

// tasks rounds a sampled task count to the nearest int, at least 1. A
// count that is not finite or does not fit an int, whose conversion Go
// leaves to the platform (on amd64, 1e19 converts to math.MinInt64),
// yields 1 and records an error naming the client; NextInto returns it.
func (st *clientState) tasks(n float64) int {
	// Both bounds are exact or round up to a power of two, so every
	// float between them converts; NaN fails the comparison.
	if r := n + 0.5; r >= math.MinInt && r < math.MaxInt {
		return max(int(r), 1)
	}
	if st.err == nil {
		st.err = fmt.Errorf("workload: client %q: tasks sample %g does not fit an int", st.spec.Name, n)
	}
	return 1
}

func (st *clientState) weight(hour int) float64 {
	for _, w := range st.spec.Windows {
		if hour >= w.FromHour && hour < w.ToHour {
			return w.Weight
		}
	}
	return 1
}

// sampleInto draws one submission into s, overwriting every field. The
// draw order below is fixed: it is part of the log format's determinism
// contract (same spec + seed → byte-identical submission log).
func (st *clientState) sampleInto(s *Submission, seq int) {
	// Field-wise reset: writing through s directly spares the compiler's
	// temp-and-copy of the ~200-byte struct. Every field is assigned on
	// every call — the conditional ones are cleared here first.
	j := &st.spec.Jobs
	s.Seq = seq
	s.At = st.next
	s.Client = st.spec.Name
	s.ThreadsPerCPU = j.ThreadsPerCPU
	s.Partition = ""
	s.Comment = ""
	s.TimeLimit = 0
	s.Exclusive = false
	s.Deferrable = false
	s.Deadline = 0
	// 1. shape kind
	sleep := false
	switch {
	case j.SleepFraction >= 1:
		sleep = true
	case j.SleepFraction > 0:
		sleep = st.rng.Float64() < j.SleepFraction
	}
	// 2. shape size
	if sleep {
		d := j.Sleep.Sample(st.rng)
		if d < 0.001 {
			d = 0.001
		}
		s.Shape = Sleep(st.sleepName, st.seconds(s.At, d, "sleep"))
	} else {
		w := j.Work.Sample(st.rng)
		if w < 0.001 {
			w = 0.001
		}
		s.Shape = FixedWork(st.workName, w)
	}
	s.Shape.Profile = j.Profile
	// 3. tasks
	s.Tasks = 1
	if !j.Tasks.IsZero() {
		s.Tasks = st.tasks(j.Tasks.Sample(st.rng))
	}
	// 4. time limit
	if !j.TimeLimit.IsZero() {
		if tl := j.TimeLimit.Sample(st.rng); tl > 0 {
			s.TimeLimit = st.seconds(s.At, tl, "time_limit")
		}
	}
	// 5. partition
	if len(j.Partitions) > 0 {
		s.Partition = choosePartition(st.rng, j.Partitions)
	}
	// 6. opt-in
	if j.OptInFraction > 0 && st.rng.Float64() < j.OptInFraction {
		s.Comment = OptInComment
	}
	// 7. user
	s.UserID = st.userLo
	if st.userN > 1 {
		s.UserID += uint32(st.rng.Intn(st.userN))
	}
	// 8. exclusivity — like steps 1 and 6, the RNG is consumed only for
	// fractions strictly inside (0, 1), so specs without the new fields
	// keep their original sample streams.
	switch {
	case j.ExclusiveFraction >= 1:
		s.Exclusive = true
	case j.ExclusiveFraction > 0:
		s.Exclusive = st.rng.Float64() < j.ExclusiveFraction
	}
	// 9. deferral + deadline
	switch {
	case j.DeferrableFraction >= 1:
		s.Deferrable = true
	case j.DeferrableFraction > 0:
		s.Deferrable = st.rng.Float64() < j.DeferrableFraction
	}
	if s.Deferrable && !j.DeadlineSlack.IsZero() {
		slack := j.DeadlineSlack.Sample(st.rng)
		if slack < 0 {
			slack = 0
		}
		base := s.At + simclock.Tick(s.TimeLimit)
		s.Deadline = base + simclock.Tick(st.seconds(base, slack, "deadline_slack"))
	}
	st.jobSeq++
	s.ClientSeq = st.jobSeq
}

func choosePartition(r *simclock.RNG, parts []PartitionWeight) string {
	total := 0.0
	for _, p := range parts {
		total += p.Weight
	}
	u := r.Float64() * total
	for _, p := range parts {
		u -= p.Weight
		if u < 0 {
			return p.Name
		}
	}
	return parts[len(parts)-1].Name
}
