package core

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"ecosched/internal/ecoplugin"
	"ecosched/internal/metrics"
	"ecosched/internal/simclock"
	"ecosched/internal/trace"
)

// RetryPolicy tunes the bounded retry-with-backoff applied to the
// transient stages of a prediction load: settings load, pre-loaded
// model read, database query and blob fetch. These are the stages
// where a second attempt can legitimately succeed (a torn NFS read, a
// momentarily unreachable database). The optimizer sweep and decode
// are NOT retried — deterministic code fails the same way twice — and
// neither is a budget refusal, which is a deliberate decision rather
// than a fault.
//
// The zero value disables retries (one attempt, no backoff), which is
// the seed behavior and what production keeps when no policy is set.
type RetryPolicy struct {
	// Attempts is the total number of tries per stage, including the
	// first; values <= 1 disable retrying.
	Attempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff. Zero means no cap.
	MaxDelay time.Duration
	// Multiplier grows the delay between consecutive retries; values
	// <= 1 keep the delay constant.
	Multiplier float64
	// Jitter is the ± fraction of each delay randomized to decorrelate
	// concurrent retriers (0.2 = ±20%). The jitter source is the seeded
	// deterministic RNG, so a given policy produces one reproducible
	// backoff schedule.
	Jitter float64
	// StageTimeout bounds the cumulative time (per the injected clock)
	// one stage may spend across all its attempts. Once exceeded, the
	// last error is returned instead of another retry. Zero means no
	// per-stage deadline.
	StageTimeout time.Duration
	// Seed drives the jitter RNG.
	Seed uint64
}

// DefaultRetryPolicy is the chaos-suite tuning: three attempts with a
// short, capped, jittered backoff that always fits inside the Slurm
// submit budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Attempts:     3,
		BaseDelay:    2 * time.Millisecond,
		MaxDelay:     20 * time.Millisecond,
		Multiplier:   2,
		Jitter:       0.2,
		StageTimeout: 250 * time.Millisecond,
	}
}

func (p RetryPolicy) enabled() bool { return p.Attempts > 1 }

// Stage labels for retry metrics (metricRetryPrefix + stage) and
// backoff trace events.
const (
	stageSettingsLoad = "settings_load"
	stageModelRead    = "model_read"
	stageDBQuery      = "db_query"
	stageBlobFetch    = "blob_fetch"
)

// retrier executes stage closures under a RetryPolicy. It is shared by
// every prediction in flight, so the jitter RNG sits behind a mutex;
// the draw order still depends only on how many retries happened
// before, never on wall-clock time.
type retrier struct {
	policy  RetryPolicy
	now     func() time.Time
	sleep   func(time.Duration)
	metrics *metrics.Registry
	tracer  *trace.Tracer

	mu  sync.Mutex
	rng *simclock.RNG
}

func newRetrier(deps Deps) *retrier {
	return &retrier{
		policy:  deps.Retry,
		now:     deps.Now,
		sleep:   deps.Sleep,
		metrics: deps.Metrics,
		tracer:  deps.Tracer,
		rng:     simclock.NewRNG(deps.Retry.Seed),
	}
}

// do runs fn up to policy.Attempts times. Retries stop early when the
// context is done, the error is permanent (budget refusal, context
// error), or the stage's cumulative deadline has passed. The last
// error is returned verbatim so callers' errors.Is chains still work.
func (r *retrier) do(ctx context.Context, stage string, fn func() error) error {
	if !r.policy.enabled() {
		return fn()
	}
	start := r.now()
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || attempt >= r.policy.Attempts || !retryable(ctx, err) {
			return err
		}
		if r.policy.StageTimeout > 0 && r.now().Sub(start) >= r.policy.StageTimeout {
			return err
		}
		delay := r.backoff(attempt)
		r.metrics.Counter(metricRetryPrefix + stage).Inc()
		if r.tracer != nil {
			r.tracer.Event(eventRetryBackoff, map[string]string{
				"stage":   stage,
				"attempt": strconv.Itoa(attempt),
				"delay":   delay.String(),
				"cause":   err.Error(),
			})
		}
		if r.sleep != nil && delay > 0 {
			r.sleep(delay)
		}
	}
}

// retryable reports whether a failed attempt is worth repeating.
func retryable(ctx context.Context, err error) bool {
	switch {
	case ctx.Err() != nil:
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, ecoplugin.ErrBudgetExceeded):
		return false
	}
	return true
}

// backoff computes the jittered delay before retry number `attempt`.
func (r *retrier) backoff(attempt int) time.Duration {
	d := float64(r.policy.BaseDelay)
	for i := 1; i < attempt; i++ {
		if r.policy.Multiplier > 1 {
			d *= r.policy.Multiplier
		}
	}
	if limit := float64(r.policy.MaxDelay); limit > 0 && d > limit {
		d = limit
	}
	if j := r.policy.Jitter; j > 0 {
		r.mu.Lock()
		u := r.rng.Float64()
		r.mu.Unlock()
		d *= 1 + j*(2*u-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}
