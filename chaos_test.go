package ecosched

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ecosched/internal/ecoplugin"
	"ecosched/internal/fault"
	"ecosched/internal/leakcheck"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/trace"
)

// chaosBudget is the submit budget chaosConf sets: comfortably above
// the preloaded path's simulated cost, far below the cold path's, so a
// degraded prediction must stay cheap to fit.
const chaosBudget = 100 * time.Millisecond

const chaosConf = "ClusterName=ecosched\nJobSubmitPlugins=eco\n" +
	"SchedulerParameters=eco_budget=100ms\n"

// chaosSeed reads the CHAOS_SEED environment variable (the CI chaos
// job's matrix axis); unset means seed 1.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
	}
	return v
}

// preloadHealthy runs the full warm-up journey — quick sweep, train,
// preload — before any fault rules are installed.
func preloadHealthy(t *testing.T, d *Deployment) {
	t.Helper()
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		t.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		t.Fatal(err)
	}
}

// optInDesc is the job description the plugin sees for an opted-in
// HPCG submission with the standard (wasteful) request.
func optInDesc(d *Deployment, binary string) slurm.JobDesc {
	if binary == "" {
		binary = d.HPCGPath
	}
	return slurm.JobDesc{
		Name:       "hpcg",
		BinaryPath: binary,
		Comment:    ecoplugin.OptInComment,
		NumTasks:   64,
		MinFreqKHz: 2_500_000,
		MaxFreqKHz: 2_500_000,
		TimeLimit:  time.Hour,
	}
}

// requireFailOpen submits desc through the plugin and enforces the
// chaos invariants: submit never errors, never exceeds the deployment's
// budget, and never yields a partially-rewritten job — the description
// is either untouched or carries the full, coherent Listing 4 rewrite.
func requireFailOpen(t *testing.T, d *Deployment, desc slurm.JobDesc) (slurm.JobDesc, time.Duration) {
	t.Helper()
	orig := desc
	lat, err := d.Plugin.JobSubmit(context.Background(), &desc, 0)
	if err != nil {
		t.Fatalf("submit errored under faults: %v", err)
	}
	if budget := d.Plugin.Budget(); lat > budget {
		t.Fatalf("submit latency %v exceeds the %v budget", lat, budget)
	}
	if reflect.DeepEqual(desc, orig) {
		return desc, lat
	}
	patched := orig
	patched.NumTasks = desc.NumTasks
	patched.ThreadsPerCPU = desc.ThreadsPerCPU
	patched.MinFreqKHz = desc.MinFreqKHz
	patched.MaxFreqKHz = desc.MaxFreqKHz
	if !reflect.DeepEqual(patched, desc) {
		t.Fatalf("fields outside the Listing 4 set were mutated:\n  orig: %+v\n  got:  %+v", orig, desc)
	}
	if desc.NumTasks <= 0 || desc.ThreadsPerCPU <= 0 ||
		desc.MinFreqKHz <= 0 || desc.MinFreqKHz != desc.MaxFreqKHz {
		t.Fatalf("incoherent (partial) rewrite: %+v", desc)
	}
	return desc, lat
}

// journaledEvents drains d's tracer and replays its journal.
func journaledEvents(tb testing.TB, d *Deployment) []trace.Event {
	tb.Helper()
	d.Tracer.Drain()
	events, err := trace.ReadJournal(filepath.Join(d.dataDir, EventsFile))
	if err != nil {
		tb.Fatal(err)
	}
	return events
}

// TestChaosTotalStorageFaultFailsOpen is the issue's acceptance
// criterion: with a 100%% fault rate on every storage and IPMI
// injector, Submit still returns the unmodified job within the
// configured budget, with chronus.predict.degraded incremented and a
// trace event recorded.
func TestChaosTotalStorageFaultFailsOpen(t *testing.T) {
	d := newDeployment(t, func(o *Options) { o.SlurmConf = chaosConf }, WithTracing())
	if d.Plugin.Budget() != chaosBudget {
		t.Fatalf("plugin budget = %v, conf not threaded", d.Plugin.Budget())
	}
	preloadHealthy(t, d)

	// 100% error rate on every storage and IPMI integration point.
	// Settings stay healthy so the plugin reaches the prediction — the
	// degraded path under test — rather than skipping at the gate.
	d.Fault.Use(
		fault.Rule{Op: "repo.*", Mode: fault.ModeError},
		fault.Rule{Op: "blob.*", Mode: fault.ModeError},
		fault.Rule{Op: "ipmi.*", Mode: fault.ModeError},
		fault.Rule{Op: fault.OpModelRead, Mode: fault.ModeError},
	)

	// Plugin-level: the description must come back byte-for-byte
	// unmodified, within budget.
	desc, _ := requireFailOpen(t, d, optInDesc(d, ""))
	if !reflect.DeepEqual(desc, optInDesc(d, "")) {
		t.Fatalf("degraded submit modified the job: %+v", desc)
	}
	if d.Plugin.Rewritten != 0 {
		t.Fatal("plugin reports a rewrite under total storage fault")
	}
	if d.Plugin.Fallbacks == 0 {
		t.Fatal("fail-open path not taken")
	}

	// Cluster-level: the job still runs to completion, at the standard
	// (unrewritten) 2.5 GHz.
	job, err := d.SubmitHPCGOptIn()
	if err != nil {
		t.Fatalf("sbatch lost the job: %v", err)
	}
	done, err := d.Cluster.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != slurm.StateCompleted {
		t.Fatalf("job %s (%s)", done.State, done.Reason)
	}
	rec, _ := d.Cluster.Accounting().Record(done.ID)
	if rec.FreqKHz != 2_500_000 {
		t.Fatalf("degraded job ran at %d kHz, want the unmodified 2.5 GHz", rec.FreqKHz)
	}

	// Observability: degraded metric incremented, degraded trace event
	// recorded with a cause, and the injector counted its hits.
	if got := d.Metrics.Counter("chronus.predict.degraded").Value(); got < 1 {
		t.Fatalf("chronus.predict.degraded = %d, want >= 1", got)
	}
	var degradedEvent bool
	for _, ev := range journaledEvents(t, d) {
		if ev.Kind == trace.KindEvent && ev.Name == "chronus.predict.degraded" {
			if ev.Attrs["cause"] == "" {
				t.Fatalf("degraded event missing cause: %+v", ev)
			}
			degradedEvent = true
		}
	}
	if !degradedEvent {
		t.Fatal("no chronus.predict.degraded trace event recorded")
	}
	var injected int64
	for name, n := range d.Metrics.Snapshot().Counters {
		if strings.HasPrefix(name, "chronus.fault.injected.") {
			injected += n
		}
	}
	if injected == 0 {
		t.Fatal("injector reports no faults fired")
	}
}

// TestChaosRetryRescuesTransientFault checks the other half of the
// degradation story: a fault schedule that clears after two hits is
// absorbed by the stage's retries and the submission is still rewritten.
func TestChaosRetryRescuesTransientFault(t *testing.T) {
	d := newDeployment(t, func(o *Options) { o.SlurmConf = chaosConf })
	preloadHealthy(t, d)
	// The first two model reads fail; the third attempt (the last of
	// the stage's three) succeeds.
	d.Fault.Use(fault.Rule{Op: fault.OpModelRead, Mode: fault.ModeError, Times: 2})

	desc, _ := requireFailOpen(t, d, optInDesc(d, ""))
	if reflect.DeepEqual(desc, optInDesc(d, "")) {
		t.Fatal("transient fault was not retried: job left unmodified")
	}
	if d.Plugin.Rewritten != 1 {
		t.Fatalf("Rewritten = %d, want 1", d.Plugin.Rewritten)
	}
	if got := d.Metrics.Counter("chronus.retry.model_read").Value(); got != 2 {
		t.Fatalf("chronus.retry.model_read = %d, want 2 retries", got)
	}
	if got := d.Metrics.Counter("chronus.predict.degraded").Value(); got != 0 {
		t.Fatalf("rescued prediction counted as degraded (%d)", got)
	}
}

// TestChaosRetryOverBudgetFailsOpen is the same transient fault under
// a budget that covers the healthy warm path (1 ms of hashing plus
// 9 ms of prediction) and not the two extra model reads the rescue
// would cost: the first retry is refused, and the job goes through
// unmodified as one counted budget violation.
func TestChaosRetryOverBudgetFailsOpen(t *testing.T) {
	d := newDeployment(t, func(o *Options) {
		o.SlurmConf = "ClusterName=ecosched\nJobSubmitPlugins=eco\nSchedulerParameters=eco_budget=10ms\n"
	})
	preloadHealthy(t, d)
	d.Fault.Use(fault.Rule{Op: fault.OpModelRead, Mode: fault.ModeError, Times: 2})

	desc, lat := requireFailOpen(t, d, optInDesc(d, ""))
	if !reflect.DeepEqual(desc, optInDesc(d, "")) {
		t.Fatalf("over-budget retry rewrote the job: %+v", desc)
	}
	if lat > 10*time.Millisecond {
		t.Fatalf("submit latency %v exceeds the 10ms budget", lat)
	}
	if got := d.Metrics.Counter("chronus.eco.plugin.budget_violations").Value(); got != 1 {
		t.Fatalf("chronus.eco.plugin.budget_violations = %d, want 1", got)
	}
	if got := d.Metrics.Counter("chronus.retry.model_read").Value(); got != 0 {
		t.Fatalf("chronus.retry.model_read = %d, want no retry taken", got)
	}
}

// TestChaosSubmitInvariantsUnderRandomSchedules drives the submit path
// through seed-derived random fault schedules (every injector, every
// mode, random rates) and holds the three invariants of the issue on
// every single submission: never an error, never over budget, never a
// partially-rewritten job. Each round is a deployment of its own under
// an eco_budget drawn log-uniformly from [9 ms, 2 s], so budgets that
// cover a healthy path but not its retries — 9–17 ms on the pre-loaded
// path, 557 ms–1.66 s on the cold one, which the unknown binaries take —
// come up; a submission that counts a budget violation must leave its
// job unmodified.
func TestChaosSubmitInvariantsUnderRandomSchedules(t *testing.T) {
	seed := chaosSeed(t)
	ops := []string{
		"repo.*", "blob.*",
		fault.OpIPMISample, fault.OpModelRead,
		fault.OpSettingsLoad, fault.OpProcRead,
	}
	modes := []fault.Mode{fault.ModeError, fault.ModeLatency, fault.ModeTorn, fault.ModePartial}
	rng := simclock.NewRNG(seed)

	const rounds = 8
	for round := 0; round < rounds; round++ {
		budget := time.Duration(float64(9*time.Millisecond) * math.Pow(2*float64(time.Second)/float64(9*time.Millisecond), rng.Float64()))
		d := newDeployment(t, func(o *Options) {
			o.SlurmConf = fmt.Sprintf("ClusterName=ecosched\nJobSubmitPlugins=eco\nSchedulerParameters=eco_budget=%v\n", budget)
		}, WithSeed(seed))
		if d.Plugin.Budget() != budget {
			t.Fatalf("round %d: plugin budget %v, want the drawn %v", round, d.Plugin.Budget(), budget)
		}
		preloadHealthy(t, d)
		d.Chronus.Predict.AllowColdLoad = true
		violations := d.Metrics.Counter("chronus.eco.plugin.budget_violations")
		submit := func(bin string) slurm.JobDesc {
			t.Helper()
			before := violations.Value()
			desc, _ := requireFailOpen(t, d, optInDesc(d, bin))
			if violations.Value() > before && !reflect.DeepEqual(desc, optInDesc(d, bin)) {
				t.Fatalf("round %d (budget %v): a counted budget violation rewrote the job: %+v", round, budget, desc)
			}
			return desc
		}
		rules := make([]fault.Rule, 1+rng.Intn(4))
		for i := range rules {
			r := fault.Rule{
				Op:   ops[rng.Intn(len(ops))],
				Mode: modes[rng.Intn(len(modes))],
				Rate: 0.25 + 0.75*rng.Float64(),
			}
			if r.Mode == fault.ModeLatency {
				r.Latency = time.Duration(1+rng.Intn(3)) * time.Millisecond
			}
			if rng.Intn(2) == 0 {
				r.After = rng.Intn(3)
			}
			rules[i] = r
		}
		d.Fault.Use(rules...)

		// Three submissions per schedule: the preloaded binary (may be
		// rewritten or degrade, depending on what fires) and two
		// unknown binaries (always fall back, exercising the cold path
		// and its refusal under faults).
		submit("")
		for i := 0; i < 2; i++ {
			bin := fmt.Sprintf("/opt/apps/unknown-%d-%d", round, i)
			if desc := submit(bin); !reflect.DeepEqual(desc, optInDesc(d, bin)) {
				t.Fatalf("round %d: unknown binary was rewritten: %+v", round, desc)
			}
		}
		if d.Plugin.Submissions != 3 {
			t.Fatalf("round %d: Submissions = %d, want 3", round, d.Plugin.Submissions)
		}
	}
}

// TestChaosCloseDrainsWithoutLeak races Deployment.Close against
// in-flight predictions under a fault schedule: Close must drain them
// (including their retries) and leave no goroutine behind.
func TestChaosCloseDrainsWithoutLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			d.Close()
		}
	}()
	preloadHealthy(t, d)
	d.Fault.Use(
		fault.Rule{Op: "repo.*", Mode: fault.ModeError, Rate: 0.5},
		fault.Rule{Op: fault.OpModelRead, Mode: fault.ModeError, Rate: 0.5},
	)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := ecoplugin.PredictRequest{
				SystemHash: "sys",
				BinaryHash: fmt.Sprintf("bin-%d", i),
			}
			// Fail-open: the result does not matter, only that the
			// prediction neither panics nor outlives the drain.
			d.Chronus.Predict.Predict(context.Background(), req) //nolint:errcheck
		}(i)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close during in-flight predictions: %v", err)
	}
	closed = true
	wg.Wait()
}

// TestChaosLatencyFaultSleeps: a deployment's -fault latency rule
// delays the faulted operation in wall time, as the flag's help text
// promises, rather than only counting the injection.
func TestChaosLatencyFaultSleeps(t *testing.T) {
	const lat = 20 * time.Millisecond
	d := newDeployment(t, WithFault(fmt.Sprintf("%s:latency:lat=%v", fault.OpSettingsLoad, lat)))
	injected := d.Metrics.Counter("chronus.fault.injected." + fault.OpSettingsLoad)
	before := injected.Value()
	start := time.Now()
	if _, err := d.Settings.Load(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < lat {
		t.Fatalf("settings.Load took %v under a %v latency fault", took, lat)
	}
	if n := injected.Value() - before; n != 1 {
		t.Fatalf("counted %d injections, want 1", n)
	}
}
