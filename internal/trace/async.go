// Async trace emission: the hot path appends each completed record to
// one bounded pending buffer under the tracer's lock and returns; a
// background drainer swaps the buffer out and hands it to the journal
// in one batch. The submit goroutine therefore never touches the
// filesystem, and the journal's order is the order records were
// recorded in. The buffer is bounded: when it is full the record
// is dropped and counted (chronus.trace.dropped), never blocked on —
// tracing must not apply backpressure to scheduling.
package trace

import (
	"ecosched/internal/metrics"
)

// MetricDropped counts trace records dropped because the pending
// buffer was full (or the tracer already closed). Nonzero means the
// journal is incomplete — loadgen reports it next to throughput.
// Exported so the root package can read the count out of a snapshot by
// name.
const MetricDropped = "chronus.trace.dropped"

// pendingCap bounds the records buffered between drainer flushes.
const pendingCap = 4096

// WithMetrics counts drops into r's chronus.trace.dropped counter.
func WithMetrics(r *metrics.Registry) Option {
	return func(t *Tracer) { t.dropped = r.Counter(MetricDropped) }
}

// startJournal allocates the pending buffers and starts the drainer.
func (t *Tracer) startJournal() {
	t.pending = make([]Event, 0, pendingCap)
	t.spare = make([]Event, 0, pendingCap)
	t.wake = make(chan struct{}, 1)
	t.quit = make(chan struct{})
	t.done = make(chan struct{})
	t.drained.L = &t.mu
	go t.run()
}

// enqueueLocked buffers e for the journal, or drops it when the buffer
// is full or the tracer closed; t.mu is held. After unlocking, the
// caller counts a drop in the metric or wakes the drainer.
func (t *Tracer) enqueueLocked(e Event) (dropped bool) {
	if t.closed {
		return true
	}
	t.enqueued++
	if len(t.pending) == cap(t.pending) {
		t.droppedN++
		return true
	}
	t.pending = append(t.pending, e)
	return false
}

// Drain blocks until every record enqueued before the call is either
// written to the journal or counted as dropped. It is the read
// barrier for journal consumers (`chronus events`, tests, shutdown):
// after Drain returns, ReadJournal sees everything that happened
// before it. Nil-safe.
func (t *Tracer) Drain() {
	if t == nil {
		return
	}
	t.nudge() // flush even if nothing new arrives
	t.mu.Lock()
	target := t.enqueued
	for !t.stopped && t.written+t.droppedN < target {
		t.drained.Wait()
	}
	t.mu.Unlock()
}

// Close drains the tracer and stops the background drainer. It does
// NOT close the journal — the journal's owner does that, after Close.
// Idempotent and nil-safe; records emitted after Close are counted as
// dropped.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	already := t.closed
	t.closed = true
	t.mu.Unlock()
	if !already {
		close(t.quit)
	}
	<-t.done
	return nil
}

// nudge wakes the drainer without blocking; wakes coalesce.
func (t *Tracer) nudge() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// run is the drainer: flush on every wake, final flush on quit.
func (t *Tracer) run() {
	for {
		select {
		case <-t.wake:
			t.flush()
		case <-t.quit:
			t.flush()
			t.mu.Lock()
			t.stopped = true
			t.mu.Unlock()
			t.drained.Broadcast()
			close(t.done)
			return
		}
	}
}

// flush swaps out the pending buffer and appends it to the journal in
// one buffered write pass. Only the drainer calls it, so the spare is
// always home when it starts.
func (t *Tracer) flush() {
	t.mu.Lock()
	batch := t.pending
	if len(batch) == 0 {
		t.mu.Unlock()
		return
	}
	t.pending, t.spare = t.spare, nil
	t.mu.Unlock()
	t.journal.AppendBatch(batch) // journal errors are non-fatal by design
	// Clear the batch so retained attribute maps don't outlive the
	// flush, then return it as the next spare.
	clear(batch)
	t.mu.Lock()
	t.spare = batch[:0]
	t.written += uint64(len(batch))
	t.mu.Unlock()
	t.drained.Broadcast()
}
