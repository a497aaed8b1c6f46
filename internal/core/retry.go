package core

import (
	"context"
	"errors"
	"strconv"

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

// Stage labels for retry metrics (metricRetryPrefix + stage) and
// retry trace events.
const (
	stageSettingsLoad = "settings_load"
	stageModelRead    = "model_read"
	stageDBQuery      = "db_query"
	stageBlobFetch    = "blob_fetch"
)

// retry runs fn up to retryAttempts times, counting and tracing every
// retry. Retries stop early when the context is done or the error is
// permanent (budget refusal, context error). The last error is
// returned verbatim so callers' errors.Is chains still work.
func (s *PredictService) retry(ctx context.Context, stage string, fn func() error) error {
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil || attempt >= retryAttempts || !retryable(ctx, err) {
			return err
		}
		s.deps.Metrics.Counter(metricRetryPrefix + stage).Inc()
		if s.deps.Tracer != nil {
			s.deps.Tracer.Event(eventRetryBackoff, map[string]string{
				"stage":   stage,
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
