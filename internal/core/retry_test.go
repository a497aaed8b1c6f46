package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ecosched/internal/blob"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/metrics"
	"ecosched/internal/repository"
	"ecosched/internal/settings"
	"ecosched/internal/trace"
)

// testRetrier builds a prediction service whose only wiring is a
// metrics registry — all retry needs.
func testRetrier() *PredictService {
	return &PredictService{deps: Deps{Metrics: metrics.New()}}
}

func TestRetrierRescuesTransientFailure(t *testing.T) {
	r := testRetrier()
	calls := 0
	err := r.retry(context.Background(), stageBlobFetch, &charge{}, 0, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if got := r.deps.Metrics.Counter(metricRetryPrefix + stageBlobFetch.name).Value(); got != 2 {
		t.Fatalf("retry counter = %d, want 2", got)
	}
}

func TestRetrierExhaustsAttempts(t *testing.T) {
	r := testRetrier()
	calls := 0
	wantErr := errors.New("persistent")
	err := r.retry(context.Background(), stageDBQuery, &charge{}, 0, func() error { calls++; return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetrierPermanentErrorsNotRetried(t *testing.T) {
	for _, perm := range []error{
		fmt.Errorf("over: %w", ecoplugin.ErrBudgetExceeded),
		context.Canceled,
	} {
		r := testRetrier()
		calls := 0
		err := r.retry(context.Background(), stageModelRead, &charge{}, 0, func() error { calls++; return perm })
		if !errors.Is(err, perm) && !errors.Is(perm, err) {
			t.Fatalf("err = %v, want %v", err, perm)
		}
		if calls != 1 {
			t.Fatalf("%v retried %d times", perm, calls-1)
		}
	}
}

func TestRetrierHonorsCancelledContext(t *testing.T) {
	r := testRetrier()
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := r.retry(ctx, stageDBQuery, &charge{}, 0, func() error {
		calls++
		cancel()
		return errors.New("boom")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err = %v after %d calls, want 1 call", err, calls)
	}
}

// flakySettings fails its first `failures` Loads, then delegates.
type flakySettings struct {
	inner    settings.Store
	mu       sync.Mutex
	failures int
}

func (f *flakySettings) Load() (settings.Settings, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failures > 0 {
		f.failures--
		return settings.Settings{}, errors.New("transient settings failure")
	}
	return f.inner.Load()
}

func (f *flakySettings) Save(v settings.Settings) error { return f.inner.Save(v) }

// TestPredictRetryRescuesFlakySettings: a settings store that fails
// twice no longer fails the prediction at the settings stage — the
// load proceeds to the (missing-model) stage beyond it.
func TestPredictRetryRescuesFlakySettings(t *testing.T) {
	r := newRig(t)
	deps := r.chronus.deps
	deps.Settings = &flakySettings{inner: deps.Settings, failures: retryAttempts}
	deps.Metrics = metrics.New()

	// A failure on every attempt surfaces directly.
	c1, err := New(deps)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := doPredict(c1.Predict, "sys", "app"); err == nil || !strings.Contains(err.Error(), "transient settings failure") {
		t.Fatalf("exhausted err = %v, want the transient failure", err)
	}

	deps.Settings = &flakySettings{inner: settings.NewMemStore(), failures: 2}
	deps.Metrics = metrics.New()
	c2, err := New(deps)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = doPredict(c2.Predict, "sys", "app")
	if err == nil || !strings.Contains(err.Error(), "no pre-loaded model") {
		t.Fatalf("retry err = %v, want to get past settings to the no-model stage", err)
	}
	if got := deps.Metrics.Counter(metricRetryPrefix + stageSettingsLoad.name).Value(); got != 2 {
		t.Fatalf("settings_load retry counter = %d, want 2", got)
	}
}

// TestPredictDegradedObservability: a failed prediction increments
// chronus.predict.degraded and records the matching trace event with
// its cause — the fail-open telemetry the acceptance criteria demand.
func TestPredictDegradedObservability(t *testing.T) {
	r := newRig(t)
	deps := r.chronus.deps
	deps.Metrics = metrics.New()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := trace.OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	deps.Tracer = trace.New(j, trace.WithClock(deps.Now))
	defer deps.Tracer.Close()
	c, err := New(deps)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := doPredict(c.Predict, "no-such-system", "no-such-app"); err == nil {
		t.Fatal("predict succeeded with no model anywhere")
	}
	if got := deps.Metrics.Counter(metricPredictDegraded).Value(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}
	deps.Tracer.Drain()
	events, err := trace.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range events {
		if e.Name == eventPredictDegraded && strings.Contains(e.Attrs["cause"], "no pre-loaded model") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s event with cause in %+v", eventPredictDegraded, events)
	}

	// Caller cancellation is not a degradation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Predict.Predict(ctx, ecoplugin.PredictRequest{SystemHash: "s", BinaryHash: "b"}) //nolint:errcheck
	if got := deps.Metrics.Counter(metricPredictDegraded).Value(); got != 1 {
		t.Fatalf("cancellation counted as degradation (counter = %d)", got)
	}
}

// gateSettings blocks Load until released, so tests can hold a
// prediction in flight.
type gateSettings struct {
	inner   settings.Store
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateSettings) Load() (settings.Settings, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.inner.Load()
}

func (g *gateSettings) Save(v settings.Settings) error { return g.inner.Save(v) }

// TestDrainWaitsForInflightPredictions: Drain must block until every
// in-flight prediction (and any retry inside it) finishes —
// the guarantee Deployment.Close relies on before closing stores.
func TestDrainWaitsForInflightPredictions(t *testing.T) {
	r := newRig(t)
	deps := r.chronus.deps
	gate := &gateSettings{inner: deps.Settings, entered: make(chan struct{}), release: make(chan struct{})}
	deps.Settings = gate
	c, err := New(deps)
	if err != nil {
		t.Fatal(err)
	}

	predictDone := make(chan struct{})
	go func() {
		defer close(predictDone)
		doPredict(c.Predict, "sys", "app") //nolint:errcheck
	}()
	<-gate.entered

	drained := make(chan struct{})
	go func() {
		c.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while a prediction was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate.release)
	<-predictDone
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return after the prediction finished")
	}
	// Idle drains return immediately.
	c.Drain()
}

// TestRetriedAttemptsSpendTheBudget: two torn reads of a pre-loaded
// model cost two more model reads than the healthy 9 ms path. With no
// budget the prediction reports all 13 ms; with a 9 ms budget the
// first retry no longer fits and the prediction is refused as a
// budget violation instead of being admitted at a 9 ms it did not
// cost.
func TestRetriedAttemptsSpendTheBudget(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, err := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.chronus.LoadModel.Run(meta.ID); err != nil {
		t.Fatal(err)
	}
	req := ecoplugin.PredictRequest{SystemHash: systems[0].ProcHash, BinaryHash: meta.AppHash}

	predict := func(budget time.Duration) (ecoplugin.PredictResult, int, *metrics.Registry, error) {
		deps := r.chronus.deps
		deps.Metrics = metrics.New()
		reads := 0
		deps.ReadFile = func(path string) ([]byte, error) {
			if reads++; reads <= 2 {
				return nil, errors.New("torn read")
			}
			return os.ReadFile(path)
		}
		c, err := New(deps)
		if err != nil {
			t.Fatal(err)
		}
		req.Budget = budget
		res, err := c.Predict.Predict(context.Background(), req)
		return res, reads, deps.Metrics, err
	}

	res, reads, _, err := predict(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := LatencyLocalRead + 3*LatencyLocalRead + LatencyPredict; reads != 3 || res.Latency != want {
		t.Fatalf("unbudgeted: %d reads, Latency %v; want 3 reads, %v", reads, res.Latency, want)
	}

	res, reads, m, err := predict(9 * time.Millisecond)
	if !errors.Is(err, ecoplugin.ErrBudgetExceeded) {
		t.Fatalf("9 ms budget: err = %v (Latency %v after %d reads), want ErrBudgetExceeded", err, res.Latency, reads)
	}
	if res.Latency > 9*time.Millisecond {
		t.Fatalf("refused prediction reports %v, over its 9 ms budget", res.Latency)
	}
	if got := m.Counter(metricPredictBudgetViolations).Value(); got != 1 {
		t.Fatalf("budget violations = %d, want 1", got)
	}
}

// flakyRepo fails its first `failures` ListSystems and ListModels calls
// each, then delegates.
type flakyRepo struct {
	repository.Repository
	systems, models int
}

func (f *flakyRepo) ListSystems() ([]repository.System, error) {
	if f.systems > 0 {
		f.systems--
		return nil, errors.New("transient query failure")
	}
	return f.Repository.ListSystems()
}

func (f *flakyRepo) ListModels() ([]repository.ModelMeta, error) {
	if f.models > 0 {
		f.models--
		return nil, errors.New("transient query failure")
	}
	return f.Repository.ListModels()
}

// flakyBlob fails its first `failures` Gets, then delegates.
type flakyBlob struct {
	blob.Store
	failures int
}

func (f *flakyBlob) Get(key string) ([]byte, error) {
	if f.failures > 0 {
		f.failures--
		return nil, errors.New("transient fetch failure")
	}
	return f.Store.Get(key)
}

// TestPredictLatencyMatchesItsTrace: the latency a traced prediction
// reports is the one its trace accounts for — the sum of the load's
// stage spans' sim_latency plus one stage cost per
// chronus.retry.attempt event — on the cold path and on the pre-loaded
// path, with every transient stage of each retried.
func TestPredictLatencyMatchesItsTrace(t *testing.T) {
	r := newRig(t)
	benchmarkSweep(t, r)
	systems, _ := r.chronus.InitModel.Systems()
	meta, err := r.chronus.InitModel.Run("brute-force", systems[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	req := ecoplugin.PredictRequest{SystemHash: systems[0].ProcHash, BinaryHash: meta.AppHash}
	stageCost := map[string]time.Duration{}
	for _, st := range []stage{stageSettingsLoad, stageModelRead, stageDBQuery, stageBlobFetch} {
		stageCost[st.name] = st.cost
	}

	check := func(t *testing.T, source ecoplugin.PredictSource, flaky func(*Deps), retried map[string]int) {
		deps := r.chronus.deps
		deps.Metrics = metrics.New()
		path := filepath.Join(t.TempDir(), "events.jsonl")
		j, err := trace.OpenJournal(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		deps.Tracer = trace.New(j, trace.WithClock(deps.Now))
		defer deps.Tracer.Close()
		deps.Settings = &flakySettings{inner: deps.Settings, failures: 1}
		flaky(&deps)
		c, err := New(deps)
		if err != nil {
			t.Fatal(err)
		}
		c.Predict.AllowColdLoad = source == ecoplugin.SourceCold
		res, err := c.Predict.Predict(context.Background(), req)
		if err != nil || res.Source != source {
			t.Fatalf("predict: source %q, err %v; want %q", res.Source, err, source)
		}
		deps.Tracer.Drain()
		events, err := trace.ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		load := ""
		for _, e := range events {
			if e.Kind == trace.KindSpan && e.Name == spanPredictLoad {
				load = e.Span
			}
		}
		if load == "" {
			t.Fatal("no chronus.predict.load span journalled")
		}
		var traced time.Duration
		got := map[string]int{}
		for _, e := range events {
			switch {
			case e.Kind == trace.KindSpan && e.Parent == load:
				d, err := time.ParseDuration(e.Attrs["sim_latency"])
				if err != nil {
					t.Fatalf("stage span %s: sim_latency %q: %v", e.Name, e.Attrs["sim_latency"], err)
				}
				traced += d
			case e.Kind == trace.KindEvent && e.Name == eventRetryAttempt:
				traced += stageCost[e.Attrs["stage"]]
				got[e.Attrs["stage"]]++
			}
		}
		if !reflect.DeepEqual(got, retried) {
			t.Fatalf("retries per stage %v, want %v", got, retried)
		}
		if res.Latency != traced {
			t.Fatalf("reported Latency %v, the trace accounts for %v", res.Latency, traced)
		}
	}

	t.Run("cold", func(t *testing.T) {
		check(t, ecoplugin.SourceCold, func(d *Deps) {
			d.Repo = &flakyRepo{Repository: d.Repo, systems: 1, models: 1}
			d.Blob = &flakyBlob{Store: d.Blob, failures: 2}
		}, map[string]int{stageSettingsLoad.name: 1, stageDBQuery.name: 2, stageBlobFetch.name: 2})
	})
	if _, err := r.chronus.LoadModel.Run(meta.ID); err != nil {
		t.Fatal(err)
	}
	t.Run("preloaded", func(t *testing.T) {
		check(t, ecoplugin.SourcePreloaded, func(d *Deps) {
			reads := 0
			d.ReadFile = func(path string) ([]byte, error) {
				if reads++; reads <= 2 {
					return nil, errors.New("torn read")
				}
				return os.ReadFile(path)
			}
		}, map[string]int{stageSettingsLoad.name: 1, stageModelRead.name: 2})
	})
}
