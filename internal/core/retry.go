package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"ecosched/internal/ecoplugin"
)

// retryAttempts is the number of tries each transient stage of a
// prediction load gets: settings load, pre-loaded model read, database
// query and blob fetch. These are the stages where a second attempt
// can legitimately succeed (a torn NFS read, a momentarily unreachable
// database). The optimizer sweep and decode are NOT retried —
// deterministic code fails the same way twice — and neither is a
// budget refusal, which is a deliberate decision rather than a fault.
// Retries are immediate: the simulated clock does not move inside a
// prediction, so a backoff would wait on nothing.
const retryAttempts = 3

// stage is one transient step of a prediction load.
type stage struct {
	name string        // label for retry metrics (metricRetryPrefix + name) and trace events
	cost time.Duration // simulated cost of one attempt
}

var (
	stageSettingsLoad = stage{"settings_load", LatencyLocalRead}
	stageModelRead    = stage{"model_read", LatencyLocalRead}
	stageDBQuery      = stage{"db_query", LatencyDBQuery}
	stageBlobFetch    = stage{"blob_fetch", LatencyBlobFetch}
)

// charge is what a prediction load has spent so far against its
// submit budget (zero budget: unenforced).
type charge struct {
	spent, budget time.Duration
}

// retry runs fn up to retryAttempts times, counting and tracing every
// retry. The caller has charged the first attempt to c; each retry
// charges st.cost again, and is taken only while a set budget still
// covers it plus rest, the path's projected cost after this stage —
// otherwise retry refuses with ecoplugin.ErrBudgetExceeded. Retries
// also stop early when the context is done or the error is permanent
// (budget refusal, context error); that last error is returned
// verbatim so callers' errors.Is chains still work.
func (s *PredictService) retry(ctx context.Context, st stage, c *charge, rest time.Duration, fn func() error) error {
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil || attempt >= retryAttempts || !retryable(ctx, err) {
			return err
		}
		if need := c.spent + st.cost + rest; c.budget > 0 && need > c.budget {
			return fmt.Errorf("core: %s retry after %v needs %v of a %v budget: %w",
				st.name, err, need, c.budget, ecoplugin.ErrBudgetExceeded)
		}
		c.spent += st.cost
		s.deps.Metrics.Counter(metricRetryPrefix + st.name).Inc()
		if s.deps.Tracer != nil {
			s.deps.Tracer.Event(eventRetryAttempt, map[string]string{
				"stage":   st.name,
				"attempt": strconv.Itoa(attempt),
				"cause":   err.Error(),
			})
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
