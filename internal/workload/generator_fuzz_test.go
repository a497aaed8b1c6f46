package workload

import (
	"math"
	"testing"
	"time"
)

// fuzzDist maps a fuzzed three-bit kind selector (the low bits of kind)
// and two parameters onto one of the distribution families, or the
// unset Dist; Spec.Validate decides whether the result is acceptable.
func fuzzDist(kind uint16, a, b float64) Dist {
	switch kind & 7 {
	case 1:
		return Dist{Kind: DistConstant, Value: a}
	case 2:
		return Dist{Kind: DistUniform, Min: a, Max: b}
	case 3:
		return Dist{Kind: DistExponential, Mean: a}
	case 4:
		return Dist{Kind: DistLogNormal, Mu: a, Sigma: b}
	case 5:
		return Dist{Kind: DistGamma, Shape: a, Scale: b}
	case 6:
		return Dist{Kind: DistWeibull, Shape: a, Scale: b}
	}
	return Dist{}
}

// FuzzGeneratorSamples drives the generator with hostile job
// distributions — huge, negative, infinite or NaN parameters for the
// sleep, work, tasks, time_limit and deadline_slack fields. For any
// spec Spec.Validate accepts, NextInto either returns an error or
// yields submissions with at least one task, a non-negative time limit
// and a deadline that is none or no earlier than the arrival; a
// constant task count is the constant rounded, or an error when no int
// holds it. kinds holds one selector per field (three bits each); its
// top bit makes every job a sleep job and every job deferrable.
func FuzzGeneratorSamples(f *testing.F) {
	const uniform, constant, gamma, logNormal = 2, 1, 5, 4
	// powercap-smoke.json's compute client, then hostile variants of it.
	smoke := uint16(logNormal | gamma<<3 | uniform<<6 | constant<<9 | uniform<<12)
	f.Add(smoke, 5.5, 0.5, 2.0, 900.0, 4.0, 16.0, 7200.0, 0.0, 14400.0, 43200.0)
	f.Add(smoke&^(7<<6)|constant<<6, 5.5, 0.5, 2.0, 900.0, 1e19, 0.0, 7200.0, 0.0, 14400.0, 43200.0)
	f.Add(smoke, 5.5, 0.5, 2.0, 900.0, -1e300, 1e300, 1e300, 0.0, math.Inf(1), math.Inf(1))
	f.Add(uint16(1<<15|logNormal|constant<<6|constant<<9|constant<<12), 5.5, 0.5, 0.0, 0.0, math.NaN(), 0.0, math.NaN(), 0.0, -1.0, 0.0)
	f.Add(uint16(1<<15|constant|constant<<6|logNormal<<9|logNormal<<12), 1e12, 0.0, 0.0, 0.0, 8.0, 0.0, 700.0, 1.0, 700.0, 1.0)
	f.Fuzz(func(t *testing.T, kinds uint16, sleepA, sleepB, workA, workB, tasksA, tasksB, limitA, limitB, slackA, slackB float64) {
		jobs := JobSpec{
			Sleep:         fuzzDist(kinds, sleepA, sleepB),
			Work:          fuzzDist(kinds>>3, workA, workB),
			Tasks:         fuzzDist(kinds>>6, tasksA, tasksB),
			TimeLimit:     fuzzDist(kinds>>9, limitA, limitB),
			DeadlineSlack: fuzzDist(kinds>>12, slackA, slackB),
		}
		if kinds>>15 != 0 {
			jobs.SleepFraction, jobs.DeferrableFraction = 1, 1
		} else {
			jobs.SleepFraction, jobs.DeferrableFraction = 0.5, 0.5
		}
		spec := Spec{
			Version:        SpecVersion,
			Name:           "fuzz",
			Seed:           1,
			Horizon:        Duration(24 * time.Hour),
			MaxSubmissions: 40,
			Cluster:        ClusterSpec{Partitions: []PartitionSpec{{Name: "batch", Nodes: 2, Default: true}}},
			Clients: []Client{{
				Name:    "c",
				Arrival: ArrivalSpec{Process: ArrivalPoisson, RatePerHour: 120},
				Jobs:    jobs,
			}},
		}
		if spec.Validate() != nil {
			return
		}
		g, err := NewGenerator(spec, time.Date(2023, 5, 10, 0, 0, 0, 0, time.UTC))
		if err != nil {
			return
		}
		wantTasks := -1 // the constant's rounded count; -1: not a constant
		if jobs.Tasks.Kind == DistConstant {
			if r := jobs.Tasks.Value + 0.5; r >= math.MinInt && r < math.MaxInt {
				wantTasks = max(int(r), 1)
			}
		}
		var s Submission
		for {
			ok, err := g.NextInto(&s)
			if err != nil || !ok {
				return
			}
			if s.Tasks < 1 {
				t.Fatalf("submission %d has %d tasks", s.Seq, s.Tasks)
			}
			if jobs.Tasks.Kind == DistConstant && s.Tasks != wantTasks {
				t.Fatalf("submission %d has %d tasks for a constant %g", s.Seq, s.Tasks, jobs.Tasks.Value)
			}
			if s.TimeLimit < 0 {
				t.Fatalf("submission %d has time limit %v", s.Seq, s.TimeLimit)
			}
			if !s.Deadline.IsZero() && s.Deadline < s.At {
				t.Fatalf("submission %d arrives at %v after its deadline %v", s.Seq, s.At, s.Deadline)
			}
		}
	})
}
