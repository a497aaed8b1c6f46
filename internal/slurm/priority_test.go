package slurm

import (
	"slices"
	"strings"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/simclock"
)

// queuedJob is one job of a hand-built queue: how long it has waited,
// its size and its user's usage slot.
type queuedJob struct {
	waited time.Duration
	tasks  int
	user   int32
}

// orderedIDs queues jobs latest-submitted first (job i+1 is jobs[i]),
// orders them with the production orderKeyed on a 32-core partition and
// returns the resulting job ids.
func orderedIDs(jobs []queuedJob, usage []float64) []int {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	p := &partition{maxCores: 32}
	for i, j := range jobs {
		p.pending = append([]*Job{{ID: i + 1, SubmitTime: simclock.Tick(now - int64(j.waited)),
			Desc: JobDesc{NumTasks: j.tasks}, userSlot: j.user}}, p.pending...)
	}
	p.orderKeyed(now, usage)
	var got []int
	for _, j := range p.pending {
		got = append(got, j.ID)
	}
	return got
}

func TestMultifactorAgeBeatsNewer(t *testing.T) {
	if got := orderedIDs([]queuedJob{{0, 32, 0}, {20 * time.Hour, 32, 0}}, []float64{0}); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("order %v: aged job did not overtake the newer one", got)
	}
}

func TestMultifactorFairShare(t *testing.T) {
	if got := orderedIDs([]queuedJob{{0, 32, 0}, {0, 32, 1}}, []float64{500_000, 0}); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("order %v: light user did not get fair-share priority", got)
	}
}

func TestMultifactorSizeFactor(t *testing.T) {
	if got := orderedIDs([]queuedJob{{0, 32, 0}, {0, 2, 0}}, []float64{0}); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("order %v: small job did not get the size bonus", got)
	}
}

func TestMultifactorTieBreaksBySubmission(t *testing.T) {
	if got := orderedIDs([]queuedJob{{0, 16, 0}, {0, 16, 0}}, []float64{0}); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("order %v: equal priorities should keep submission order", got)
	}
}

func TestMultifactorAgeSaturatesAtADay(t *testing.T) {
	if got := orderedIDs([]queuedJob{{25 * time.Hour, 8, 0}, {30 * time.Hour, 8, 0}}, []float64{0}); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("order %v: ages past a day should tie and keep submission order", got)
	}
}

// Integration: with the multifactor policy, a second user's job jumps
// ahead of a heavy user's queued backlog.
func TestMultifactorSchedulingEndToEnd(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1, WithMultifactor())

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
	if user1ThirdJob.State == StateCompleted && user1ThirdJob.EndTime < done2.StartTime {
		t.Fatal("heavy user's job ran before the light user's despite fair share")
	}
	if done2.StartTime < queued1.EndTime {
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
