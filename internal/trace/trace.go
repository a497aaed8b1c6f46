// Package trace is the decision-tracing half of the observability
// subsystem: lightweight spans with parent/child nesting via context,
// and a bounded append-only JSONL event journal.
//
// Where internal/metrics answers "how often and how fast, in
// aggregate", trace answers "why did THIS job get 32 cores @ 2.2 GHz
// and how long did each step take": every opted-in submission produces
// one trace whose spans cover the plugin, the prediction, and the
// cache/load/optimize stage that answered it.
//
// Everything is nil-safe: methods on a nil *Tracer or nil *Span are
// no-ops and allocate nothing, so the hot path can be instrumented
// unconditionally and deployed untraced at zero cost.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecosched/internal/metrics"
)

// Event is one journal record: a completed span (Kind "span") or a
// point-in-time occurrence (Kind "event"). It is the JSONL wire shape
// of events.jsonl and what `chronus events` replays.
type Event struct {
	Time       time.Time         `json:"time"`
	Kind       string            `json:"kind"`
	Trace      string            `json:"trace,omitempty"`
	Span       string            `json:"span,omitempty"`
	Parent     string            `json:"parent,omitempty"`
	Name       string            `json:"name"`
	DurationNS int64             `json:"duration_ns,omitempty"`
	Err        string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span duration (zero for point events).
func (e Event) Duration() time.Duration { return time.Duration(e.DurationNS) }

// Event kinds.
const (
	KindSpan  = "span"
	KindEvent = "event"
)

// Tracer creates spans and records completed ones into an in-memory
// ring (for live exposition at /trace) and, when configured, a
// persistent Journal. A nil *Tracer is a valid no-op.
type Tracer struct {
	clock    func() time.Time
	journal  *Journal
	idPrefix string // per-process uniqueness for IDs sharing a journal

	// Async journal emission (nil without a journal) and drop metric.
	aw      *asyncWriter
	dropped *metrics.Counter

	traceCtr atomic.Int64
	spanCtr  atomic.Int64

	mu     sync.Mutex
	recent []Event // ring buffer of completed records
	next   int
	filled bool
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithJournal persists every completed span and event to j.
func WithJournal(j *Journal) Option { return func(t *Tracer) { t.journal = j } }

// WithClock overrides the wall clock (tests, simulated time).
func WithClock(now func() time.Time) Option { return func(t *Tracer) { t.clock = now } }

// WithRecentCap sets the in-memory ring size (default 1024).
func WithRecentCap(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.recent = make([]Event, 0, n)
		}
	}
}

// New builds a tracer.
func New(opts ...Option) *Tracer {
	t := &Tracer{clock: time.Now, recent: make([]Event, 0, 1024)}
	for _, opt := range opts {
		opt(t)
	}
	if t.clock == nil {
		t.clock = time.Now
	}
	// Counters restart with every process, but the journal outlives
	// it; a clock-derived prefix keeps IDs from different processes
	// (e.g. two ecosim runs into one data directory) distinct.
	t.idPrefix = strconv.FormatInt(t.clock().UnixNano(), 36)
	if t.journal != nil {
		t.aw = newAsyncWriter(t.journal, t.dropped)
	}
	return t
}

// ctxKey carries the current span through a context.
type ctxKey struct{}

// FromContext returns the span recorded in ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a span named name. If ctx carries a span, the new one is
// its child (same trace); otherwise a new trace begins. The returned
// context carries the new span for further nesting. On a nil tracer it
// returns ctx unchanged and a nil span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{t: t, name: name, start: t.clock()}
	if parent := FromContext(ctx); parent != nil {
		s.traceID = parent.traceID
		s.parent = parent.spanID
	} else {
		s.traceID = fmt.Sprintf("t%s-%04d", t.idPrefix, t.traceCtr.Add(1))
	}
	s.spanID = fmt.Sprintf("s%s-%04d", t.idPrefix, t.spanCtr.Add(1))
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Event records a point-in-time occurrence outside any span.
func (t *Tracer) Event(name string, attrs map[string]string) {
	if t == nil {
		return
	}
	t.record(Event{Time: t.clock(), Kind: KindEvent, Name: name, Attrs: attrs})
}

// record appends to the ring and enqueues for the async journal
// drainer. The calling goroutine never performs journal I/O.
func (t *Tracer) record(e Event) {
	t.mu.Lock()
	if cap(t.recent) == 0 {
		t.recent = make([]Event, 0, 1024)
	}
	if len(t.recent) < cap(t.recent) {
		t.recent = append(t.recent, e)
	} else {
		t.recent[t.next] = e
		t.next = (t.next + 1) % cap(t.recent)
		t.filled = true
	}
	aw := t.aw
	t.mu.Unlock()
	if aw != nil {
		aw.enqueue(e)
	}
}

// Recent returns the retained completed records, oldest first.
func (t *Tracer) Recent() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.filled {
		return append([]Event(nil), t.recent...)
	}
	out := make([]Event, 0, len(t.recent))
	out = append(out, t.recent[t.next:]...)
	out = append(out, t.recent[:t.next]...)
	return out
}

// Span is one timed stage of a trace. A nil *Span is a valid no-op.
type Span struct {
	t       *Tracer
	traceID string
	spanID  string
	parent  string
	name    string
	start   time.Time

	mu    sync.Mutex
	attrs map[string]string
	ended bool
}

// TraceID returns the trace this span belongs to ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SetAttr attaches a key=value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End closes the span and records it. err (may be nil) is the stage's
// outcome. End is idempotent; only the first call records.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	end := s.t.clock()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	e := Event{
		Time: s.start, Kind: KindSpan,
		Trace: s.traceID, Span: s.spanID, Parent: s.parent,
		Name:       s.name,
		DurationNS: int64(end.Sub(s.start)),
		Attrs:      s.attrs,
	}
	if err != nil {
		e.Err = err.Error()
	}
	s.mu.Unlock()
	s.t.record(e)
}
