package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ecosched/internal/ecoplugin"
	"ecosched/internal/metrics"
	"ecosched/internal/settings"
	"ecosched/internal/simclock"
	"ecosched/internal/trace"
)

// testRetrier builds a retrier on a simulated clock whose sleep hook
// advances the clock and records each backoff delay.
func testRetrier(policy RetryPolicy) (*retrier, *simclock.Sim, *[]time.Duration) {
	sim := simclock.New()
	var delays []time.Duration
	r := newRetrier(Deps{
		Retry:   policy,
		Now:     sim.Now,
		Sleep:   func(d time.Duration) { delays = append(delays, d); sim.RunFor(d) },
		Metrics: metrics.New(),
	})
	return r, sim, &delays
}

func TestRetrierRescuesTransientFailure(t *testing.T) {
	r, _, delays := testRetrier(RetryPolicy{Attempts: 3, BaseDelay: 2 * time.Millisecond, Multiplier: 2})
	calls := 0
	err := r.do(context.Background(), stageBlobFetch, func() error {
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
	if len(*delays) != 2 {
		t.Fatalf("backoffs = %v, want 2 sleeps", *delays)
	}
	if (*delays)[1] != 2*(*delays)[0] {
		t.Fatalf("backoff did not double: %v", *delays)
	}
	if got := r.metrics.Counter(metricRetryPrefix + stageBlobFetch).Value(); got != 2 {
		t.Fatalf("retry counter = %d, want 2", got)
	}
}

func TestRetrierExhaustsAttempts(t *testing.T) {
	r, _, _ := testRetrier(RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond})
	calls := 0
	wantErr := errors.New("persistent")
	err := r.do(context.Background(), stageDBQuery, func() error { calls++; return wantErr })
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
		r, _, _ := testRetrier(RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond})
		calls := 0
		err := r.do(context.Background(), stageModelRead, func() error { calls++; return perm })
		if !errors.Is(err, perm) && !errors.Is(perm, err) {
			t.Fatalf("err = %v, want %v", err, perm)
		}
		if calls != 1 {
			t.Fatalf("%v retried %d times", perm, calls-1)
		}
	}
}

func TestRetrierHonorsCancelledContext(t *testing.T) {
	r, _, _ := testRetrier(RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := r.do(ctx, stageDBQuery, func() error {
		calls++
		cancel()
		return errors.New("boom")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err = %v after %d calls, want 1 call", err, calls)
	}
}

// TestRetrierStageTimeout: the cumulative per-stage deadline stops the
// retry loop even when attempts remain.
func TestRetrierStageTimeout(t *testing.T) {
	r, _, _ := testRetrier(RetryPolicy{
		Attempts:     10,
		BaseDelay:    10 * time.Millisecond,
		StageTimeout: 15 * time.Millisecond,
	})
	calls := 0
	err := r.do(context.Background(), stageSettingsLoad, func() error { calls++; return errors.New("slow store") })
	if err == nil {
		t.Fatal("nil error")
	}
	// Attempt 1 at t=0, sleep 10ms, attempt 2 at t=10ms, sleep 10ms,
	// attempt 3 at t=20ms >= 15ms deadline → stop.
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (deadline should cut 10 attempts short)", calls)
	}
}

// TestRetrierJitterDeterministic: the jittered backoff schedule is a
// pure function of the policy seed.
func TestRetrierJitterDeterministic(t *testing.T) {
	policy := RetryPolicy{Attempts: 4, BaseDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.2, Seed: 42}
	run := func() []time.Duration {
		r, _, delays := testRetrier(policy)
		r.do(context.Background(), stageBlobFetch, func() error { return errors.New("x") }) //nolint:errcheck
		return *delays
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("delays = %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
		base := 10 * time.Millisecond << i
		lo, hi := time.Duration(float64(base)*0.8), time.Duration(float64(base)*1.2)
		if a[i] < lo || a[i] > hi {
			t.Fatalf("delay %d = %v outside ±20%% of %v", i, a[i], base)
		}
	}
}

func TestRetryPolicyDisabledByDefault(t *testing.T) {
	r := newRetrier(Deps{Now: simclock.New().Now})
	calls := 0
	r.do(context.Background(), stageDBQuery, func() error { calls++; return errors.New("x") }) //nolint:errcheck
	if calls != 1 {
		t.Fatalf("zero policy made %d attempts, want 1", calls)
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

// TestPredictRetryRescuesFlakySettings: with a retry policy, a
// settings store that fails twice no longer fails the prediction at
// the settings stage — the load proceeds to the (missing-model) stage
// beyond it.
func TestPredictRetryRescuesFlakySettings(t *testing.T) {
	r := newRig(t)
	deps := r.chronus.deps
	deps.Settings = &flakySettings{inner: deps.Settings, failures: 2}
	deps.Metrics = metrics.New()

	// Without retries the transient failure surfaces directly.
	c1, err := New(deps)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := doPredict(c1.Predict, "sys", "app"); err == nil || !strings.Contains(err.Error(), "transient settings failure") {
		t.Fatalf("no-retry err = %v, want the transient failure", err)
	}

	deps.Settings = &flakySettings{inner: settings.NewMemStore(), failures: 2}
	deps.Retry = DefaultRetryPolicy()
	c2, err := New(deps)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = doPredict(c2.Predict, "sys", "app")
	if err == nil || !strings.Contains(err.Error(), "no pre-loaded model") {
		t.Fatalf("retry err = %v, want to get past settings to the no-model stage", err)
	}
	if got := deps.Metrics.Counter(metricRetryPrefix + stageSettingsLoad).Value(); got != 2 {
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
	deps.Tracer = trace.New(trace.WithClock(deps.Now))
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
	var found bool
	for _, e := range deps.Tracer.Recent() {
		if e.Name == eventPredictDegraded && strings.Contains(e.Attrs["cause"], "no pre-loaded model") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s event with cause in %+v", eventPredictDegraded, deps.Tracer.Recent())
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
// in-flight prediction (and any retry backoff inside it) finishes —
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
