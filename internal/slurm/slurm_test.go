package slurm

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/paperdata"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

func newCluster(t *testing.T, conf Conf, nodeCount int, opts ...ClusterOption) (*simclock.Sim, *Controller) {
	t.Helper()
	sim := simclock.New()
	nodes := make([]*hw.Node, nodeCount)
	for i := range nodes {
		spec := hw.DefaultSpec()
		if nodeCount > 1 {
			spec.Name = spec.Name + string(rune('a'+i))
		}
		nodes[i] = hw.NewNode(sim, spec, perfmodel.Default(), uint64(i+1))
	}
	c, err := NewCluster(sim, conf, append([]ClusterOption{WithNodes(nodes...)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterWorkload("/opt/hpcg/xhpcg", workload.FixedWork("hpcg", perfmodel.Default().JobGFLOP))
	return sim, c
}

func hpcgDesc(cores, freqKHz, tpc int) JobDesc {
	return JobDesc{
		Name: "HPCG_BENCHMARK", BinaryPath: "/opt/hpcg/xhpcg",
		NumTasks: cores, MaxFreqKHz: freqKHz, MinFreqKHz: freqKHz, ThreadsPerCPU: tpc,
	}
}

// ---- conf ----

func TestParseConfPluginLine(t *testing.T) {
	conf, err := ParseConf("ClusterName=aau\nJobSubmitPlugins=eco\n# a comment\nDefaultTime=60\n")
	if err != nil {
		t.Fatal(err)
	}
	if conf.ClusterName != "aau" {
		t.Fatalf("ClusterName = %q", conf.ClusterName)
	}
	if len(conf.JobSubmitPlugins) != 1 || conf.JobSubmitPlugins[0] != "eco" {
		t.Fatalf("JobSubmitPlugins = %v", conf.JobSubmitPlugins)
	}
	if conf.DefaultTimeLimit != time.Hour {
		t.Fatalf("DefaultTimeLimit = %v", conf.DefaultTimeLimit)
	}
}

func TestParseConfErrorsAndDefaults(t *testing.T) {
	if _, err := ParseConf("NotAKeyValue\n"); err == nil {
		t.Fatal("line without '=' accepted")
	}
	if _, err := ParseConf("PluginBudget=oops"); err == nil {
		t.Fatal("bad budget accepted")
	}
	// Negative durations: DefaultTime=-5 once panicked the controller's
	// first submission without --time (its end event lay before now).
	// Minute counts with anything after their digits: a scanf-style
	// read once took 1e3 as 1 minute, 30x as 30, 0x10 as 0 and 30.9 as
	// 30, with no error.
	for _, text := range []string{"DefaultTime=-5", "PluginBudget=-1s",
		"DefaultTime=1e3", "DefaultTime=30x", "DefaultTime=0x10", "PartitionName=debug MaxTime=30.9"} {
		if _, err := ParseConf("ClusterName=x\n" + text + "\n"); err == nil || !strings.Contains(err.Error(), "slurm: conf line 2:") {
			t.Fatalf("%s: err = %v, want a line-2 error", text, err)
		}
	}
	conf, err := ParseConf("UnknownKey=whatever\nJobSubmitPlugins=eco, other\nPluginBudget=500ms\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(conf.JobSubmitPlugins) != 2 || conf.JobSubmitPlugins[1] != "other" {
		t.Fatalf("JobSubmitPlugins = %v", conf.JobSubmitPlugins)
	}
	if conf.PluginBudget != 500*time.Millisecond {
		t.Fatalf("PluginBudget = %v", conf.PluginBudget)
	}
}

func TestParseConfSchedulerParameters(t *testing.T) {
	conf, err := ParseConf("SchedulerParameters=defer, eco_budget=50ms ,batch_sched_delay=3\n")
	if err != nil {
		t.Fatal(err)
	}
	// Other options, bare flags and key=value alike, are skipped.
	if conf.EcoBudget != 50*time.Millisecond {
		t.Fatalf("EcoBudget = %v", conf.EcoBudget)
	}

	if _, err := ParseConf("SchedulerParameters=eco_budget=oops\n"); err == nil {
		t.Fatal("bad eco_budget accepted")
	}
	if _, err := ParseConf("SchedulerParameters=eco_budget=-1s\n"); err == nil {
		t.Fatal("negative eco_budget accepted")
	}
	// No SchedulerParameters line: unenforced.
	conf, err = ParseConf("ClusterName=x\n")
	if err != nil || conf.EcoBudget != 0 {
		t.Fatalf("EcoBudget = %v, err = %v", conf.EcoBudget, err)
	}
}

// ---- batch scripts ----

func TestBatchScriptRoundTrip(t *testing.T) {
	script := RenderBatchScript("/opt/hpcg/xhpcg", 32, 2_200_000, 1)
	desc, err := ParseBatchScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if desc.NumTasks != 32 || desc.MaxFreqKHz != 2_200_000 || desc.ThreadsPerCPU != 1 {
		t.Fatalf("desc = %+v", desc)
	}
	if desc.BinaryPath != "/opt/hpcg/xhpcg" {
		t.Fatalf("BinaryPath = %q", desc.BinaryPath)
	}
}

func TestBatchScriptCommentOptIn(t *testing.T) {
	desc, err := ParseBatchScript("#!/bin/bash\n#SBATCH --comment \"chronus\"\n#SBATCH --ntasks=8\nsrun /bin/app\n")
	if err != nil {
		t.Fatal(err)
	}
	if desc.Comment != "chronus" {
		t.Fatalf("Comment = %q", desc.Comment)
	}
	if desc.BinaryPath != "/bin/app" {
		t.Fatalf("BinaryPath = %q", desc.BinaryPath)
	}
}

func TestBatchScriptFreqRangeAndTimes(t *testing.T) {
	desc, err := ParseBatchScript(
		"#SBATCH --cpu-freq=1500000-2500000\n#SBATCH --time=90\n#SBATCH --job-name=sim\nsrun /bin/app\n")
	if err != nil {
		t.Fatal(err)
	}
	if desc.MinFreqKHz != 1_500_000 || desc.MaxFreqKHz != 2_500_000 {
		t.Fatalf("freq range = %d-%d", desc.MinFreqKHz, desc.MaxFreqKHz)
	}
	if desc.TimeLimit != 90*time.Minute || desc.Name != "sim" {
		t.Fatalf("desc = %+v", desc)
	}
}

func TestBatchScriptExtensions(t *testing.T) {
	desc, err := ParseBatchScript("#SBATCH --deadline=2023-05-10T09:00:00Z\nsrun /bin/app\n")
	if err != nil {
		t.Fatal(err)
	}
	if desc.Deadline.Hour() != 9 {
		t.Fatalf("desc = %+v", desc)
	}
}

// TestUnsupportedDirectivesRejected: the directives of features the
// simulator does not run — job arrays, dependencies, begin times and
// memory requests — are errors, not ignored like unknown directives:
// an array run as one job, or a dependency dropped, would be a silent
// wrong answer. SubmitScript queues nothing for them.
func TestUnsupportedDirectivesRejected(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	for _, directive := range []string{
		"--array=0-15", "--array 0-15", "-a=2", "-a 2",
		"--dependency=afterok:1", "--dependency afterok:1", "-d=afterok:1", "-d afterok:1",
		"--begin=2023-05-10T04:00:00Z", "--begin 2023-05-10T04:00:00Z",
		"--mem=32G", "--mem 512K",
	} {
		key, _, _ := strings.Cut(strings.Fields(directive)[0], "=")
		script := "#SBATCH --ntasks=4\n#SBATCH " + directive + "\nsrun /bin/app\n"
		want := "slurm: script line 2: unsupported " + key
		if _, err := ParseBatchScript(script); err == nil || err.Error() != want {
			t.Errorf("ParseBatchScript with %q: err = %v, want %q", directive, err, want)
		}
		if job, err := c.SubmitScript(script); err == nil || job != nil {
			t.Errorf("SubmitScript with %q: job %v, err %v; want a rejection", directive, job, err)
		}
	}
	if c.nextID != 1 || len(c.Squeue()) != 0 || len(c.Accounting().Records()) != 0 {
		t.Fatalf("a rejected script left a job behind: next id %d, %d queued, %d accounted",
			c.nextID, len(c.Squeue()), len(c.Accounting().Records()))
	}
}

func TestBatchScriptErrors(t *testing.T) {
	bad := []string{
		"#SBATCH --ntasks=lots\nsrun /bin/app\n",
		"#SBATCH --cpu-freq=fast\nsrun /bin/app\n",
		"#SBATCH --nodes=4\nsrun /bin/app\n",
		"#SBATCH --time=soon\nsrun /bin/app\n",
		"srun --mpi=pmix_v4\n", // no executable
		"#SBATCH --deadline=tomorrow\nsrun /bin/app\n",
		// Minute counts outside time.Duration: 761 years once parsed as
		// 1,542,571 h, and 380 years as a negative limit.
		"#SBATCH --time=400000000\nsrun /bin/app\n",
		"#SBATCH --time=200000000\nsrun /bin/app\n",
		"#SBATCH --time=-5\nsrun /bin/app\n",
	}
	for _, script := range bad {
		if _, err := ParseBatchScript(script); err == nil {
			t.Errorf("accepted bad script %q", script)
		}
	}
}

// Lines and fields are slices of the script: parsing the opted-in
// submission allocates nothing.
func TestParseBatchScriptAllocatesNothing(t *testing.T) {
	script := "#!/bin/bash\n#SBATCH --nodes=1\n#SBATCH --ntasks=64\n#SBATCH --cpu-freq=2500000\n#SBATCH --comment \"chronus\"\n\nsrun --mpi=pmix_v4 --ntasks-per-core=1 /opt/hpcg/xhpcg\n"
	allocs := testing.AllocsPerRun(100, func() {
		if desc, err := ParseBatchScript(script); err != nil || desc.Comment != "chronus" {
			t.Fatalf("desc %+v, err %v", desc, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseBatchScript allocates %.1f times, want 0", allocs)
	}
}

// ---- controller lifecycle ----

func TestJobLifecycleAndAccounting(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	job, err := c.Submit(hpcgDesc(32, 2_500_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateRunning {
		t.Fatalf("job on idle cluster should start immediately, state=%s", job.State)
	}
	done, err := c.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCompleted {
		t.Fatalf("state = %s (%s)", done.State, done.Reason)
	}
	// The ended job has left the table: its history is the record
	// WaitFor returned and its accounting row.
	if _, live := c.Job(job.ID); live {
		t.Fatal("Job finds a completed job")
	}
	if _, err := c.WaitFor(job.ID); err == nil || err.Error() != "slurm: job 1 has already ended" {
		t.Fatalf("WaitFor on the ended job: %v", err)
	}
	if _, err := c.WaitFor(job.ID + 1); err == nil || err.Error() != "slurm: no job 2" {
		t.Fatalf("WaitFor on an unassigned id: %v", err)
	}
	// Table 2: the standard configuration runs 18:29 and uses ~240 kJ.
	wantRuntime := float64(paperdata.Table2Standard.RuntimeSeconds)
	if got := done.EndTime.Time().Sub(done.StartTime.Time()).Seconds(); math.Abs(got-wantRuntime) > 2 {
		t.Fatalf("runtime = %.0f s, want ≈%.0f", got, wantRuntime)
	}
	rec, ok := c.Accounting().Record(job.ID)
	if !ok {
		t.Fatal("no accounting record")
	}
	if math.Abs(rec.SystemKJ-paperdata.Table2Standard.SystemKJ)/paperdata.Table2Standard.SystemKJ > 0.03 {
		t.Fatalf("accounted system energy %.1f kJ, Table 2 says %.1f", rec.SystemKJ, paperdata.Table2Standard.SystemKJ)
	}
	if eff := rec.GFLOPSPerWatt(); math.Abs(eff-0.043168)/0.043168 > 0.03 {
		t.Fatalf("accounted efficiency %.5f, sweep says 0.043168", eff)
	}
}

func TestSinfoIdle(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	info := c.Sinfo()
	if len(info) != 1 || info[0].State != "idle" || info[0].Cores != 32 {
		t.Fatalf("sinfo = %+v", info)
	}
}

func TestTimeLimitKillsJob(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	desc := hpcgDesc(32, 2_500_000, 1)
	desc.TimeLimit = time.Minute // HPCG needs ~18.5 minutes
	job, _ := c.Submit(desc)
	done, err := c.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateFailed || done.Reason != "TimeLimit" {
		t.Fatalf("state = %s (%s), want FAILED TimeLimit", done.State, done.Reason)
	}
	if got := done.EndTime.Time().Sub(done.StartTime.Time()); got != time.Minute {
		t.Fatalf("runtime = %v, want the 1-minute limit", got)
	}
}

// TestJobPastTheClockEndFails: a job whose run would end past the
// clock's last instant fails at start, naming that instant, and hands
// its node back to the next job.
func TestJobPastTheClockEndFails(t *testing.T) {
	sim := simclock.NewAt(time.Unix(0, math.MaxInt64).Add(-time.Hour))
	c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...))
	if err != nil {
		t.Fatal(err)
	}
	long, err := c.Submit(sleepDesc(8, 2*time.Hour, ""))
	if err != nil || long.State != StateFailed || !strings.Contains(long.Reason, "2262-04-11T23:47:16.854775807Z") {
		t.Fatalf("job = %v (%q), err %v; want FAILED naming the clock's last instant", long, long.Reason, err)
	}
	short, err := c.Submit(sleepDesc(8, time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.WaitFor(short.ID); err != nil || done.State != StateCompleted {
		t.Fatalf("next job = %v, err %v; want it COMPLETED on the freed node", done, err)
	}
}

func TestOversizedJobRejected(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	if _, err := c.Submit(hpcgDesc(64, 2_500_000, 1)); err == nil {
		t.Fatal("64-task job accepted on a 32-core node")
	}
	if _, err := c.Submit(hpcgDesc(4, 2_500_000, 3)); err == nil {
		t.Fatal("3-thread job accepted on 2-way SMT node")
	}
}

func TestUnknownBinaryUsesFallback(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	job, _ := c.Submit(JobDesc{BinaryPath: "/bin/mystery", NumTasks: 4})
	done, err := c.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.EndTime.Time().Sub(done.StartTime.Time()) != time.Minute {
		t.Fatalf("fallback runtime = %v, want the 1m default", done.EndTime.Time().Sub(done.StartTime.Time()))
	}
}

func TestJobWithoutFreqRunsGovernorDefault(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	job, _ := c.Submit(JobDesc{BinaryPath: "/opt/hpcg/xhpcg", NumTasks: 32})
	done, _ := c.WaitFor(job.ID)
	// Performance governor → max frequency → the standard 18:29 runtime.
	want := float64(paperdata.Table2Standard.RuntimeSeconds)
	if got := done.EndTime.Time().Sub(done.StartTime.Time()).Seconds(); math.Abs(got-want) > 2 {
		t.Fatalf("governor-default runtime = %.0f s, want ≈%.0f", got, want)
	}
}

// ---- submit plugins ----

// rewritePlugin rewrites every opted-in job to a fixed configuration.
type rewritePlugin struct {
	latency time.Duration
	fail    bool
	calls   int
}

func (*rewritePlugin) Name() string { return "eco" }

func (p *rewritePlugin) JobSubmit(ctx context.Context, desc *JobDesc, uid uint32) (time.Duration, error) {
	p.calls++
	if p.fail {
		return p.latency, errFail
	}
	if desc.Comment == "chronus" {
		desc.NumTasks = 32
		desc.MaxFreqKHz = 2_200_000
		desc.MinFreqKHz = 2_200_000
		desc.ThreadsPerCPU = 1
	}
	return p.latency, nil
}

var errFail = &pluginError{"boom"}

type pluginError struct{ msg string }

func (e *pluginError) Error() string { return e.msg }

func ecoConf() Conf {
	conf := DefaultConf()
	conf.JobSubmitPlugins = []string{"eco"}
	return conf
}

func TestPluginRewritesOptedInJob(t *testing.T) {
	_, c := newCluster(t, ecoConf(), 1)
	p := &rewritePlugin{latency: time.Millisecond}
	c.RegisterPlugin(p)
	desc := hpcgDesc(32, 2_500_000, 1)
	desc.Comment = "chronus"
	job, err := c.Submit(desc)
	if err != nil {
		t.Fatal(err)
	}
	if job.Desc.MaxFreqKHz != 2_200_000 {
		t.Fatalf("plugin did not rewrite: %+v", job.Desc)
	}
	if p.calls != 1 {
		t.Fatalf("plugin called %d times", p.calls)
	}
	done, _ := c.WaitFor(job.ID)
	rec, _ := c.Accounting().Record(done.ID)
	if math.Abs(rec.GFLOPSPerWatt()-0.048767)/0.048767 > 0.03 {
		t.Fatalf("rewritten job efficiency %.5f, want ≈0.048767 (the paper's best)", rec.GFLOPSPerWatt())
	}
}

func TestPluginBudgetEnforced(t *testing.T) {
	conf := ecoConf()
	conf.PluginBudget = 10 * time.Millisecond
	_, c := newCluster(t, conf, 1)
	c.RegisterPlugin(&rewritePlugin{latency: 50 * time.Millisecond})
	if _, err := c.Submit(hpcgDesc(32, 2_500_000, 1)); err == nil {
		t.Fatal("slow plugin did not trip the budget")
	}
}

func TestPluginErrorRejectsJob(t *testing.T) {
	_, c := newCluster(t, ecoConf(), 1)
	c.RegisterPlugin(&rewritePlugin{fail: true})
	if _, err := c.Submit(hpcgDesc(32, 2_500_000, 1)); err == nil {
		t.Fatal("failing plugin did not reject the job")
	}
}

func TestConfiguredButUnregisteredPlugin(t *testing.T) {
	_, c := newCluster(t, ecoConf(), 1)
	if _, err := c.Submit(hpcgDesc(32, 2_500_000, 1)); err == nil {
		t.Fatal("submission succeeded with missing plugin")
	}
}

func TestPluginNotInvokedWhenNotConfigured(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	p := &rewritePlugin{}
	c.RegisterPlugin(p)
	desc := hpcgDesc(32, 2_500_000, 1)
	desc.Comment = "chronus"
	if _, err := c.Submit(desc); err != nil {
		t.Fatal(err)
	}
	if p.calls != 0 {
		t.Fatal("plugin invoked without JobSubmitPlugins=eco")
	}
}

// ---- extensions ----

func TestDeadlineUnsatisfiableCancelled(t *testing.T) {
	sim, c := newCluster(t, DefaultConf(), 1)
	desc := hpcgDesc(32, 2_500_000, 1)
	desc.Deadline = sim.Now().Add(5 * time.Minute) // HPCG needs ~18.5 min
	job, err := c.Submit(desc)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateCancelled || job.Reason != "DeadlineUnsatisfiable" || job.node != nil {
		t.Fatalf("state = %s (%s), node %v", job.State, job.Reason, job.node)
	}
}

func TestDeadlineSatisfiableRuns(t *testing.T) {
	sim, c := newCluster(t, DefaultConf(), 1)
	desc := hpcgDesc(32, 2_500_000, 1)
	desc.Deadline = sim.Now().Add(time.Hour)
	job, _ := c.Submit(desc)
	done, err := c.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCompleted {
		t.Fatalf("state = %s", done.State)
	}
	if done.EndTime.Time().After(desc.Deadline) {
		t.Fatal("job finished after its deadline")
	}
}

func TestAccountingAggregates(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	j1, _ := c.Submit(hpcgDesc(32, 2_500_000, 1))
	c.WaitFor(j1.ID)
	j2, _ := c.Submit(hpcgDesc(32, 2_200_000, 1))
	c.WaitFor(j2.ID)
	recs := c.Accounting().Records()
	if len(recs) != 2 {
		t.Fatalf("%d accounting rows", len(recs))
	}
	if recs[0].JobID != j1.ID || recs[1].JobID != j2.ID {
		t.Fatal("records out of order")
	}
	if total := c.Accounting().Totals().SystemKJ; total < 400 || total > 500 {
		t.Fatalf("total energy = %.1f kJ, want ≈240+214", total)
	}
	// The eco configuration used less energy than standard (the 11 %).
	if recs[1].SystemKJ >= recs[0].SystemKJ {
		t.Fatalf("best config energy %.1f not below standard %.1f", recs[1].SystemKJ, recs[0].SystemKJ)
	}
}

func TestControllerNeedsNodes(t *testing.T) {
	sim := simclock.New()
	if _, err := NewCluster(sim, DefaultConf()); err == nil {
		t.Fatal("controller with no nodes accepted")
	}
}

func TestDuplicateNodeNamesRejected(t *testing.T) {
	sim := simclock.New()
	a := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	b := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 2)
	if _, err := NewCluster(sim, DefaultConf(), WithNodes(a, b)); err == nil {
		t.Fatal("duplicate node names accepted")
	}
}

func TestSubmitScript(t *testing.T) {
	_, c := newCluster(t, DefaultConf(), 1)
	job, err := c.SubmitScript(RenderBatchScript("/opt/hpcg/xhpcg", 30, 2_200_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if job.Desc.NumTasks != 30 || job.Desc.ThreadsPerCPU != 2 {
		t.Fatalf("desc = %+v", job.Desc)
	}
	done, _ := c.WaitFor(job.ID)
	if done.State != StateCompleted {
		t.Fatalf("state = %s", done.State)
	}
}

// scribblePlugin records the description it is handed, then rewrites
// it the way a plugin may: the task count and frequencies.
type scribblePlugin struct{ seen []JobDesc }

func (*scribblePlugin) Name() string { return "eco" }

func (p *scribblePlugin) JobSubmit(_ context.Context, desc *JobDesc, _ uint32) (time.Duration, error) {
	p.seen = append(p.seen, *desc)
	desc.NumTasks = 32
	desc.MinFreqKHz, desc.MaxFreqKHz = 2_200_000, 2_200_000
	return 0, nil
}

// TestSubmitScriptMemoIsolatesPlugins: resubmitting a script reuses its
// parse, and what a plugin did to the first submission's description
// reaches neither the second submission nor the parse it reuses.
func TestSubmitScriptMemoIsolatesPlugins(t *testing.T) {
	_, c := newCluster(t, ecoConf(), 4)
	p := &scribblePlugin{}
	c.RegisterPlugin(p)
	script := "#SBATCH --ntasks=4\n#SBATCH --cpu-freq=1500000\nsrun /opt/hpcg/xhpcg\n"
	want, err := ParseBatchScript(script)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.SubmitScript(script)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.SubmitScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.seen) != 2 {
		t.Fatalf("plugin called %d times, want 2", len(p.seen))
	}
	for i, seen := range p.seen {
		if !reflect.DeepEqual(seen, want) {
			t.Fatalf("submission %d: plugin saw %+v, want the parse %+v", i+1, seen, want)
		}
	}
	for _, job := range []*Job{first, second} {
		if job.Desc.NumTasks != 32 || job.Desc.MaxFreqKHz != 2_200_000 {
			t.Fatalf("job %d kept %d tasks at %d kHz; want the rewrite", job.ID, job.Desc.NumTasks, job.Desc.MaxFreqKHz)
		}
	}
}
