package slurm

import (
	"sort"
	"strings"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/simclock"
)

// Order and Priority are the ordering oracles: the comparison-time,
// map-reading statement of each policy that the production form
// (prioritySlot keys cached per pass and sorted by orderKeyed) must
// agree with — TestOrderKeyedMatchesOracle compares them directly.

// Order is the FIFO oracle: submission order is queue order.
func (FIFOPolicy) Order(pending []*Job, _ time.Time, _ map[uint32]float64) {
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })
}

// Priority is the multifactor oracle's per-job value. usage maps user
// id → consumed CPU-seconds.
func (p MultifactorPolicy) Priority(j *Job, now time.Time, usage map[uint32]float64) float64 {
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
		fair = p.UsageHalfLife / (p.UsageHalfLife + usage[j.Desc.UserID])
	}
	return p.AgeWeight*age + p.SizeWeight*size + p.FairShareWeight*fair
}

// Order is the multifactor oracle: descending Priority, ties broken by
// submission order.
func (p MultifactorPolicy) Order(pending []*Job, now time.Time, usage map[uint32]float64) {
	sort.SliceStable(pending, func(i, j int) bool {
		pi := p.Priority(pending[i], now, usage)
		pj := p.Priority(pending[j], now, usage)
		if pi != pj {
			return pi > pj
		}
		return pending[i].ID < pending[j].ID
	})
}

func TestFIFOPolicyOrder(t *testing.T) {
	jobs := []*Job{{ID: 3}, {ID: 1}, {ID: 2}}
	FIFOPolicy{}.Order(jobs, time.Time{}, nil)
	for i, want := range []int{1, 2, 3} {
		if jobs[i].ID != want {
			t.Fatalf("order = %v", ids(jobs))
		}
	}
}

func ids(jobs []*Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func TestMultifactorAgeBeatsNewer(t *testing.T) {
	p := DefaultMultifactor(32)
	now := time.Now()
	old := &Job{ID: 2, SubmitTime: now.Add(-20 * time.Hour), Desc: JobDesc{NumTasks: 32, UserID: 1}}
	young := &Job{ID: 1, SubmitTime: now, Desc: JobDesc{NumTasks: 32, UserID: 1}}
	jobs := []*Job{young, old}
	p.Order(jobs, now, map[uint32]float64{})
	if jobs[0] != old {
		t.Fatal("aged job did not overtake the newer one")
	}
}

func TestMultifactorFairShare(t *testing.T) {
	p := DefaultMultifactor(32)
	now := time.Now()
	heavyUser := &Job{ID: 1, SubmitTime: now, Desc: JobDesc{NumTasks: 32, UserID: 100}}
	lightUser := &Job{ID: 2, SubmitTime: now, Desc: JobDesc{NumTasks: 32, UserID: 200}}
	usage := map[uint32]float64{100: 500_000, 200: 0}
	jobs := []*Job{heavyUser, lightUser}
	p.Order(jobs, now, usage)
	if jobs[0] != lightUser {
		t.Fatal("light user did not get fair-share priority")
	}
}

func TestMultifactorSizeFactor(t *testing.T) {
	p := MultifactorPolicy{SizeWeight: 100, MaxCores: 32}
	now := time.Now()
	big := &Job{ID: 1, SubmitTime: now, Desc: JobDesc{NumTasks: 32}}
	small := &Job{ID: 2, SubmitTime: now, Desc: JobDesc{NumTasks: 2}}
	jobs := []*Job{big, small}
	p.Order(jobs, now, map[uint32]float64{})
	if jobs[0] != small {
		t.Fatal("small job did not get the size bonus")
	}
}

func TestMultifactorTieBreaksBySubmission(t *testing.T) {
	p := DefaultMultifactor(32)
	now := time.Now()
	a := &Job{ID: 1, SubmitTime: now, Desc: JobDesc{NumTasks: 16, UserID: 1}}
	b := &Job{ID: 2, SubmitTime: now, Desc: JobDesc{NumTasks: 16, UserID: 1}}
	jobs := []*Job{b, a}
	p.Order(jobs, now, map[uint32]float64{})
	if jobs[0] != a {
		t.Fatal("equal priorities should keep submission order")
	}
}

// orderOracle is the Order method both policies' oracles share.
type orderOracle interface {
	SchedulingPolicy
	Order(pending []*Job, now time.Time, usage map[uint32]float64)
}

// TestOrderKeyedMatchesOracle drives the production ordering
// (orderKeyed over prioritySlot and the slot-indexed usage store)
// against the Order oracles on random queues: random ages, sizes,
// users and usage, with duplicated jobs so equal keys occur and the
// submission-order tie-break is exercised.
func TestOrderKeyedMatchesOracle(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	policies := []orderOracle{
		FIFOPolicy{},
		DefaultMultifactor(32),
		MultifactorPolicy{SizeWeight: 1, MaxCores: 4}, // few distinct keys: mostly ties
		MultifactorPolicy{},                           // every key equal
	}
	for seed := uint64(1); seed <= 50; seed++ {
		rng := simclock.NewRNG(seed)
		users := 1 + rng.Intn(6)
		usage := make(map[uint32]float64)
		usageBy := make([]float64, users)
		for u := range usageBy {
			if rng.Intn(3) > 0 {
				usageBy[u] = 1e6 * rng.Float64()
				usage[uint32(100+u)] = usageBy[u]
			}
		}
		queue := make([]*Job, 1+rng.Intn(60))
		for i := range queue {
			if i > 0 && rng.Intn(4) == 0 {
				// Same submit time, size and user as an earlier job: an
				// exactly equal key under every policy.
				twin := *queue[rng.Intn(i)]
				queue[i] = &twin
			} else {
				u := rng.Intn(users)
				queue[i] = &Job{
					SubmitTime: now.Add(-time.Duration(rng.Intn(30*3600)) * time.Second),
					Desc:       JobDesc{NumTasks: 1 + rng.Intn(40), UserID: uint32(100 + u)},
					userSlot:   int32(u),
				}
			}
		}
		// Unique ids, then a shuffle, so neither form can pass by
		// leaving its input alone.
		for i, j := range queue {
			j.ID = i + 1
		}
		for i := len(queue) - 1; i > 0; i-- {
			k := rng.Intn(i + 1)
			queue[i], queue[k] = queue[k], queue[i]
		}
		for _, pol := range policies {
			want := append([]*Job(nil), queue...)
			pol.Order(want, now, usage)
			p := &partition{pending: append([]*Job(nil), queue...)}
			p.setPolicy(pol)
			p.orderKeyed(now, usageBy)
			for i := range want {
				if p.pending[i] != want[i] {
					t.Fatalf("seed %d, %s: orderKeyed = %v, oracle = %v", seed, pol.Name(), ids(p.pending), ids(want))
				}
			}
		}
	}
}

// Integration: with the multifactor policy, a second user's job jumps
// ahead of a heavy user's queued backlog.
func TestMultifactorSchedulingEndToEnd(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1, WithPolicy(DefaultMultifactor(32)))
	if c.Policy().Name() != "multifactor" {
		t.Fatal("policy not installed")
	}

	// User 1 fills the node and queues two more jobs.
	run1 := hpcgDesc(32, 2_500_000, 1)
	run1.UserID = 1
	first, _ := c.Submit(run1)
	q1 := hpcgDesc(32, 2_500_000, 1)
	q1.UserID = 1
	queued1, _ := c.Submit(q1)

	// User 1 accumulates usage as the first job completes; then user 2
	// arrives.
	if _, err := c.WaitFor(first.ID); err != nil {
		t.Fatal(err)
	}
	if c.UserUsageCPUSeconds(1) == 0 {
		t.Fatal("usage not accumulated")
	}
	// queued1 is now running (it was alone in the queue). Queue two
	// more: user 1 again, then user 2. Fair share must pick user 2
	// first when the node frees.
	q2 := hpcgDesc(32, 2_500_000, 1)
	q2.UserID = 1
	user1Third, _ := c.Submit(q2)
	q3 := hpcgDesc(32, 2_500_000, 1)
	q3.UserID = 2
	user2First, _ := c.Submit(q3)

	done2, err := c.WaitFor(user2First.ID)
	if err != nil {
		t.Fatal(err)
	}
	user1ThirdJob, _ := c.Job(user1Third.ID)
	if user1ThirdJob.State == StateCompleted && user1ThirdJob.EndTime.Before(done2.StartTime) {
		t.Fatal("heavy user's job ran before the light user's despite fair share")
	}
	if done2.StartTime.Before(queued1.EndTime) {
		t.Fatal("user 2 started before the node was free")
	}
}

func TestFormatSinfo(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 2)
	c.Submit(hpcgDesc(32, 2_500_000, 1))
	out := c.FormatSinfo()
	if !strings.Contains(out, "alloc") || !strings.Contains(out, "idle") {
		t.Fatalf("sinfo output:\n%s", out)
	}
}

func TestClockFormat(t *testing.T) {
	if got := clockFormat(90 * time.Second); got != "1:30" {
		t.Fatalf("clockFormat = %q", got)
	}
	if got := clockFormat(25*time.Hour + 30*time.Minute); got != "25:30:00" {
		t.Fatalf("clockFormat = %q", got)
	}
}

func TestFormatSacct(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	job, _ := c.Submit(hpcgDesc(32, 2_200_000, 1))
	c.WaitFor(job.ID)
	out := c.FormatSacct()
	if !strings.Contains(out, "COMPLETED") || !strings.Contains(out, "GFLOPS/W") {
		t.Fatalf("sacct output:\n%s", out)
	}
}

func TestSlurmdPinsAndRestoresGovernor(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	node := c.Nodes()[0]
	if node.Governor() != hw.GovernorPerformance {
		t.Fatalf("initial governor %s", node.Governor())
	}
	job, _ := c.Submit(hpcgDesc(32, 2_200_000, 1))
	if node.Governor() != hw.GovernorUserspace || node.CurrentFreqKHz() != 2_200_000 {
		t.Fatalf("during --cpu-freq job: governor=%s freq=%d", node.Governor(), node.CurrentFreqKHz())
	}
	c.WaitFor(job.ID)
	if node.Governor() != hw.GovernorPerformance {
		t.Fatalf("governor not restored: %s", node.Governor())
	}
}

func TestPartitionsParsedAndEnforced(t *testing.T) {
	// A controller schedules one partition: a second line is an error.
	if _, err := ParseConf("PartitionName=debug MaxTime=30\nPartitionName=batch\n"); err == nil || !strings.Contains(err.Error(), "conf line 2") {
		t.Fatalf("two partitions: err = %v, want a line-2 error", err)
	}
	conf, err := ParseConf("PartitionName=debug MaxTime=30 Default=YES\n")
	if err != nil {
		t.Fatal(err)
	}
	if conf.Partition != (Partition{Name: "debug", MaxTime: 30 * time.Minute}) {
		t.Fatalf("partition = %+v", conf.Partition)
	}
	_, c := newCluster(t, conf, 1)

	// The partition fills in.
	j, err := c.Submit(hpcgDesc(4, 2_200_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if j.Desc.Partition != "debug" {
		t.Fatalf("partition = %q", j.Desc.Partition)
	}

	// Any other partition is rejected.
	bad := hpcgDesc(4, 2_200_000, 1)
	bad.Partition = "batch"
	if _, err := c.Submit(bad); err == nil {
		t.Fatal("unknown partition accepted")
	}

	// Debug partition caps the time limit: the ~18.5-minute HPCG job
	// fits inside 30 minutes, but a long request is clipped to MaxTime.
	dbg := hpcgDesc(32, 2_500_000, 1)
	dbg.Partition = "debug"
	dbg.TimeLimit = 10 * time.Hour
	job, err := c.Submit(dbg)
	if err != nil {
		t.Fatal(err)
	}
	if job.Desc.TimeLimit != 30*time.Minute {
		t.Fatalf("time limit = %v, want the partition's 30m cap", job.Desc.TimeLimit)
	}
	done, _ := c.WaitFor(job.ID)
	if done.State != StateCompleted {
		t.Fatalf("job %s (%s)", done.State, done.Reason)
	}
	// And a 15-minute partition kills it.
	conf2, _ := ParseConf("PartitionName=short MaxTime=15 Default=YES\n")
	_, c2 := newCluster(t, conf2, 1)
	killed, _ := c2.Submit(hpcgDesc(32, 2_500_000, 1))
	doneKilled, _ := c2.WaitFor(killed.ID)
	if doneKilled.State != StateFailed || doneKilled.Reason != "TimeLimit" {
		t.Fatalf("job in short partition: %s (%s)", doneKilled.State, doneKilled.Reason)
	}
}

func TestBadPartitionConf(t *testing.T) {
	if _, err := ParseConf("PartitionName=debug MaxTime=soon\n"); err == nil {
		t.Fatal("bad MaxTime accepted")
	}
	if _, err := ParseConf("PartitionName=debug Oops\n"); err == nil {
		t.Fatal("bad attribute accepted")
	}
}
