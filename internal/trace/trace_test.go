package trace

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A nil tracer must be a complete no-op on the hot path: same context
// back, nil span, and no panics from any span method.
func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	ctx2, span := tr.Start(ctx, "anything")
	if ctx2 != ctx {
		t.Fatal("nil tracer changed the context")
	}
	if span != nil {
		t.Fatal("nil tracer returned a live span")
	}
	span.SetAttr("k", "v")
	span.End(nil)
	span.End(errors.New("boom"))
	if got := span.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
	tr.Event("e", nil)
	tr.Drain()
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close = %v", err)
	}
}

// newTestTracer builds a tracer on a journal in a temporary directory.
// read drains the tracer and replays the journal.
func newTestTracer(t *testing.T, opts ...Option) (tr *Tracer, read func() []Event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr = New(j, opts...)
	t.Cleanup(func() {
		tr.Close()
		j.Close()
	})
	return tr, func() []Event {
		tr.Drain()
		events, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
}

func TestSpanNesting(t *testing.T) {
	tr, read := newTestTracer(t)
	ctx, root := tr.Start(context.Background(), "root")
	if FromContext(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	ctx2, child := tr.Start(ctx, "child")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace %q != root trace %q", child.TraceID(), root.TraceID())
	}
	if FromContext(ctx2) != child {
		t.Fatal("context does not carry the child span")
	}
	child.SetAttr("k", "v")
	child.End(nil)
	root.End(nil)

	recent := read()
	if len(recent) != 2 {
		t.Fatalf("recent = %d records, want 2", len(recent))
	}
	// Child ended first, so it is recorded first.
	c, r := recent[0], recent[1]
	if c.Name != "child" || r.Name != "root" {
		t.Fatalf("order: %s, %s", c.Name, r.Name)
	}
	if c.Parent != r.Span || c.Trace != r.Trace {
		t.Fatalf("child %+v not linked to root %+v", c, r)
	}
	if c.Attrs["k"] != "v" {
		t.Fatalf("attrs = %v", c.Attrs)
	}
	// A second trace gets a fresh ID.
	_, other := tr.Start(context.Background(), "other")
	if other.TraceID() == root.TraceID() {
		t.Fatal("independent traces share an ID")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr, read := newTestTracer(t)
	_, span := tr.Start(context.Background(), "once")
	span.End(nil)
	span.End(errors.New("again"))
	if got := len(read()); got != 1 {
		t.Fatalf("recorded %d times, want 1", got)
	}
}

func TestSpanError(t *testing.T) {
	tr, read := newTestTracer(t)
	_, span := tr.Start(context.Background(), "fails")
	span.End(errors.New("model missing"))
	if got := read()[0].Err; got != "model missing" {
		t.Fatalf("err = %q", got)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(j)
	ctx, root := tr.Start(context.Background(), "root")
	_, child := tr.Start(ctx, "child")
	child.End(nil)
	root.End(nil)
	tr.Event("job.start", map[string]string{AttrJobID: "7"})
	// Journal emission is async: the drainer must be flushed and
	// stopped before the journal is closed and read.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("replayed %d events, want 3", len(events))
	}
	if events[0].Name != "child" || events[1].Name != "root" || events[2].Name != "job.start" {
		t.Fatalf("order: %s %s %s", events[0].Name, events[1].Name, events[2].Name)
	}
	if events[2].Kind != KindEvent || events[2].Attrs[AttrJobID] != "7" {
		t.Fatalf("event record: %+v", events[2])
	}
}

// The journal must stay bounded: hitting the size cap rotates the
// current file to .old and starts fresh, keeping at most two
// generations on disk.
func TestJournalRotationAtSizeCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	const cap = 2048
	j, err := OpenJournal(path, cap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := j.Append(Event{Time: time.Unix(int64(i), 0), Kind: KindEvent, Name: "tick"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > cap {
		t.Fatalf("journal %d bytes exceeds cap %d", st.Size(), cap)
	}
	old, err := os.Stat(path + ".old")
	if err != nil {
		t.Fatalf("no rotated generation: %v", err)
	}
	if old.Size() > cap {
		t.Fatalf("rotated generation %d bytes exceeds cap %d", old.Size(), cap)
	}

	// Replay covers both generations, oldest first, and is itself
	// bounded (≤ 2 generations of events survive).
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(events) >= 200 {
		t.Fatalf("replayed %d events; want a bounded, non-empty tail", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

// A crash mid-append leaves a torn final line; replay must skip it
// rather than fail.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Event{Kind: KindEvent, Name: "whole"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"event","name":"to`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	events, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "whole" {
		t.Fatalf("events = %+v", events)
	}
}

func TestReadJournalMissing(t *testing.T) {
	_, err := ReadJournal(filepath.Join(t.TempDir(), "nope.jsonl"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Event{Name: "late"}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestTraceForAndTree(t *testing.T) {
	events := []Event{
		{Kind: KindSpan, Trace: "t1", Span: "s1", Name: "slurm.submit", Attrs: map[string]string{AttrJobID: "3"}},
		{Kind: KindSpan, Trace: "t1", Span: "s2", Parent: "s1", Name: "eco.submit", Attrs: map[string]string{"verdict": "rewritten"}},
		{Kind: KindSpan, Trace: "t2", Span: "s3", Name: "slurm.submit", Attrs: map[string]string{AttrJobID: "4"}},
	}
	got := TraceFor(events, "3")
	if len(got) != 2 {
		t.Fatalf("TraceFor(3) = %d events, want 2", len(got))
	}
	if TraceFor(events, "99") != nil {
		t.Fatal("TraceFor(99) found something")
	}
	var b strings.Builder
	WriteTree(&b, got)
	out := b.String()
	if !strings.Contains(out, "slurm.submit") || !strings.Contains(out, "  eco.submit") {
		t.Fatalf("tree:\n%s", out)
	}
	if !strings.Contains(out, "verdict=rewritten") {
		t.Fatalf("tree lacks attrs:\n%s", out)
	}
}

func TestSince(t *testing.T) {
	t0 := time.Unix(100, 0)
	events := []Event{
		{Time: t0, Name: "old"},
		{Time: t0.Add(time.Hour), Name: "new"},
	}
	got := Since(events, t0.Add(time.Minute))
	if len(got) != 1 || got[0].Name != "new" {
		t.Fatalf("Since = %+v", got)
	}
}

// Two tracers sharing one journal (two process lifetimes writing to
// the same data directory) must not produce colliding trace IDs, or
// TraceFor would merge unrelated runs.
func TestTraceIDsUniqueAcrossTracers(t *testing.T) {
	t1, _ := newTestTracer(t, WithClock(func() time.Time { return time.Unix(1, 0) }))
	t2, _ := newTestTracer(t, WithClock(func() time.Time { return time.Unix(2, 0) }))
	_, s1 := t1.Start(context.Background(), "run1")
	_, s2 := t2.Start(context.Background(), "run2")
	if s1.TraceID() == s2.TraceID() {
		t.Fatalf("trace ID %q collides across tracers", s1.TraceID())
	}
}

// With duplicate job IDs in one journal (job counters restart per
// deployment), TraceFor must return the latest run's trace.
func TestTraceForLatestWins(t *testing.T) {
	events := []Event{
		{Kind: KindSpan, Trace: "old", Span: "s1", Name: "slurm.submit", Attrs: map[string]string{AttrJobID: "13"}},
		{Kind: KindSpan, Trace: "new", Span: "s2", Name: "slurm.submit", Attrs: map[string]string{AttrJobID: "13"}},
	}
	got := TraceFor(events, "13")
	if len(got) != 1 || got[0].Trace != "new" {
		t.Fatalf("TraceFor = %+v, want the latest trace", got)
	}
}

func TestWithClock(t *testing.T) {
	now := time.Unix(42, 0)
	tr, read := newTestTracer(t, WithClock(func() time.Time { return now }))
	_, span := tr.Start(context.Background(), "timed")
	now = now.Add(3 * time.Second)
	span.End(nil)
	e := read()[0]
	if !e.Time.Equal(time.Unix(42, 0)) || e.Duration() != 3*time.Second {
		t.Fatalf("time=%v dur=%v", e.Time, e.Duration())
	}
}
