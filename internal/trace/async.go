// Async trace emission: the hot path enqueues completed records into
// small per-shard rings and returns; a single background drainer
// collects, restores global order, and batches journal appends. The
// submit goroutine therefore never touches the filesystem — at fleet
// rates a synchronous JSON-marshal + write per span would dominate the
// submit budget. The rings are bounded: when a shard is full the event
// is dropped and counted (chronus.trace.dropped), never blocked on —
// tracing must not apply backpressure to scheduling.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"

	"ecosched/internal/metrics"
)

// MetricDropped counts trace records dropped because the async ring
// was full (or the tracer already closed). Nonzero means the journal
// is incomplete — loadgen reports it next to throughput. Exported so
// the root package can read the count out of a snapshot by name.
const MetricDropped = "chronus.trace.dropped"

// asyncShardCount is the number of enqueue rings. Power of two so the
// shard pick is a mask. Few shards suffice: the ring critical section
// is an append, and the drainer visits every shard per flush.
const asyncShardCount = 4

// ringCap bounds each shard's ring (events buffered between drainer
// flushes) — total buffering is asyncShardCount × ringCap.
const ringCap = 1024

// WithMetrics counts drops into r's chronus.trace.dropped counter.
func WithMetrics(r *metrics.Registry) Option {
	return func(t *Tracer) { t.dropped = r.Counter(MetricDropped) }
}

// Drain blocks until every record enqueued before the call is either
// written to the journal or counted as dropped. It is the read
// barrier for journal consumers (`chronus events`, tests, shutdown):
// after Drain returns, ReadJournal sees everything that happened
// before it. Nil-safe and a no-op without a journal.
func (t *Tracer) Drain() {
	if t == nil || t.aw == nil {
		return
	}
	t.aw.drain()
}

// Close drains the tracer and stops the background drainer. It does
// NOT close the journal — the journal's owner does that, after Close.
// Idempotent and nil-safe; records emitted after Close are counted as
// dropped.
func (t *Tracer) Close() error {
	if t == nil || t.aw == nil {
		return nil
	}
	t.aw.close()
	return nil
}

// asyncEntry is one enqueued record, stamped with the global sequence
// so the drainer can restore cross-shard order before writing.
type asyncEntry struct {
	seq uint64
	e   Event
}

// asyncShard is one producer ring: a fixed-capacity slice appended to
// under a short mutex. The drainer swaps in the spare slice, so the
// steady state allocates nothing on either side.
type asyncShard struct {
	mu    sync.Mutex
	buf   []asyncEntry
	spare []asyncEntry
	// Pad to a full cache line: producers hash across shards to avoid
	// contention, which false sharing would silently reintroduce
	// (TestAsyncShardFillsCacheLine checks the arithmetic).
	_ [8]byte
}

// asyncWriter owns the rings and the drainer goroutine.
type asyncWriter struct {
	journal *Journal
	dropped *metrics.Counter // nil-safe

	seq    atomic.Uint64
	closed atomic.Bool
	shards [asyncShardCount]asyncShard

	wake chan struct{} // cap 1: coalesced flush signal
	quit chan struct{}
	done chan struct{} // drainer exited

	// mu guards the barrier bookkeeping; cond wakes Drain waiters.
	mu       sync.Mutex
	cond     sync.Cond
	written  uint64 // records handed to the journal
	droppedN uint64 // records dropped at enqueue
	stopped  bool   // drainer exited (final flush done)
}

func newAsyncWriter(j *Journal, dropped *metrics.Counter) *asyncWriter {
	aw := &asyncWriter{
		journal: j,
		dropped: dropped,
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	aw.cond.L = &aw.mu
	for i := range aw.shards {
		aw.shards[i].buf = make([]asyncEntry, 0, ringCap)
		aw.shards[i].spare = make([]asyncEntry, 0, ringCap)
	}
	go aw.run()
	return aw
}

// enqueue hands one record to the drainer. Never blocks: a full ring
// (or a closed writer) drops the record and counts it.
func (aw *asyncWriter) enqueue(e Event) {
	if aw.closed.Load() {
		aw.noteDropped(false)
		return
	}
	seq := aw.seq.Add(1)
	s := &aw.shards[seq&(asyncShardCount-1)]
	s.mu.Lock()
	if len(s.buf) == cap(s.buf) {
		s.mu.Unlock()
		aw.noteDropped(true)
		return
	}
	s.buf = append(s.buf, asyncEntry{seq: seq, e: e})
	s.mu.Unlock()
	select {
	case aw.wake <- struct{}{}:
	default:
	}
}

// noteDropped counts a drop. counted reports whether the record took a
// sequence number (ring-full drop) and therefore owes the Drain
// barrier progress; post-close drops never took one.
func (aw *asyncWriter) noteDropped(counted bool) {
	if counted {
		aw.mu.Lock()
		aw.droppedN++
		aw.mu.Unlock()
		aw.cond.Broadcast()
	}
	aw.dropped.Inc()
}

// run is the drainer: flush on every wake, final flush on quit.
func (aw *asyncWriter) run() {
	for {
		select {
		case <-aw.wake:
			aw.flush()
		case <-aw.quit:
			aw.flush()
			aw.mu.Lock()
			aw.stopped = true
			aw.mu.Unlock()
			aw.cond.Broadcast()
			close(aw.done)
			return
		}
	}
}

// flush takes every buffered record, restores sequence order, and
// appends the batch to the journal in one buffered write pass.
func (aw *asyncWriter) flush() {
	var batch []asyncEntry
	var taken [asyncShardCount][]asyncEntry
	// Every ring is swapped under all the shard locks at once, so the
	// batch is one consistent cut of the sequence: taking the rings one
	// at a time let a producer slip record n into a ring already taken
	// and n+1 into one not yet taken, and n+1 reached the journal a
	// batch before n.
	for i := range aw.shards {
		aw.shards[i].mu.Lock()
	}
	for i := range aw.shards {
		s := &aw.shards[i]
		taken[i] = s.buf
		s.buf = s.spare[:0]
		s.spare = nil
	}
	for i := range aw.shards {
		aw.shards[i].mu.Unlock()
	}
	for i := range taken {
		batch = append(batch, taken[i]...)
	}
	if len(batch) > 0 {
		sort.Slice(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
		events := make([]Event, len(batch))
		for i := range batch {
			events[i] = batch[i].e
		}
		aw.journal.AppendBatch(events) // journal errors are non-fatal by design
	}
	// Return the taken slices as the next spares, cleared so retained
	// Event pointers don't outlive the flush.
	for i := range aw.shards {
		if taken[i] == nil {
			continue
		}
		for k := range taken[i] {
			taken[i][k] = asyncEntry{}
		}
		s := &aw.shards[i]
		s.mu.Lock()
		s.spare = taken[i][:0]
		s.mu.Unlock()
	}
	if len(batch) > 0 {
		aw.mu.Lock()
		aw.written += uint64(len(batch))
		aw.mu.Unlock()
		aw.cond.Broadcast()
	}
}

// drain blocks until everything enqueued before the call is written or
// dropped (or the drainer has exited, which implies the same).
func (aw *asyncWriter) drain() {
	target := aw.seq.Load()
	select {
	case aw.wake <- struct{}{}: // nudge even if nothing new arrives
	default:
	}
	aw.mu.Lock()
	for !aw.stopped && aw.written+aw.droppedN < target {
		aw.cond.Wait()
	}
	aw.mu.Unlock()
}

// close stops the drainer after a final flush. Idempotent.
func (aw *asyncWriter) close() {
	if aw.closed.Swap(true) {
		<-aw.done
		return
	}
	close(aw.quit)
	<-aw.done
}
