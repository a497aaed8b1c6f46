package trace

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"ecosched/internal/leakcheck"
	"ecosched/internal/metrics"
)

// Emission order through the async path must match program order:
// records enter the pending buffer in the order they are recorded, so a
// replayed journal reads exactly like the synchronous one did.
func TestAsyncJournalPreservesOrder(t *testing.T) {
	defer leakcheck.Check(t)()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(j)
	const n = 500
	for i := 0; i < n; i++ {
		tr.Event("tick", map[string]string{"i": fmt.Sprint(i)})
	}
	tr.Drain()
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("journal has %d events after Drain, want %d", len(events), n)
	}
	for i, e := range events {
		if e.Attrs["i"] != fmt.Sprint(i) {
			t.Fatalf("event %d out of order: attrs=%v", i, e.Attrs)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// Drain is a barrier: everything emitted before it must be readable
// from the journal before Close, even under concurrent emitters.
func TestDrainFlushesBeforeClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.New()
	tr := New(j, WithMetrics(r))
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, s := tr.Start(context.Background(), "work")
				s.End(nil)
			}
		}()
	}
	wg.Wait()
	tr.Drain()
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	dropped := r.Snapshot().Counters[MetricDropped]
	if int64(len(events))+dropped != goroutines*per {
		t.Fatalf("journaled %d + dropped %d, want %d accounted for", len(events), dropped, goroutines*per)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// A full buffer drops the record — never blocks — and every drop is
// counted, both in the barrier bookkeeping and the drop metric. The
// tracer here has a one-record buffer and no running drainer, so the
// buffer fills deterministically.
func TestAsyncRingFullDropsAndCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	r := metrics.New()
	tr := &Tracer{
		clock:   time.Now,
		journal: j,
		dropped: r.Counter(MetricDropped),
		pending: make([]Event, 0, 1),
		spare:   make([]Event, 0, 1),
		wake:    make(chan struct{}, 1),
	}
	tr.drained.L = &tr.mu
	const total = 100
	for i := 0; i < total; i++ {
		tr.Event("tick", nil)
	}
	if buffered := len(tr.pending); buffered != 1 {
		t.Fatalf("buffered %d, want 1", buffered)
	}
	if got := r.Snapshot().Counters[MetricDropped]; got != total-1 {
		t.Fatalf("drop metric = %d, want %d", got, total-1)
	}
	// The barrier must account for drops: after one manual flush,
	// written + dropped covers every enqueued record and Drain returns.
	tr.flush()
	done := make(chan struct{})
	go func() {
		tr.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain blocked despite drops being accounted")
	}
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("journal has %d events, want the 1 buffered", len(events))
	}
}

// The journal keeps every record of concurrent emitters, each
// emitter's records in the order it ended them: the pending buffer is
// appended under one lock and drained in order.
func TestJournalKeepsEmitterOrder(t *testing.T) {
	defer leakcheck.Check(t)()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(j)
	const goroutines, per = 8, 128 // 1,024 in all, within the pending buffer
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, s := tr.Start(context.Background(), "work")
				s.SetAttr("g", strconv.Itoa(g))
				s.SetAttr("i", strconv.Itoa(i))
				s.End(nil)
			}
		}()
	}
	wg.Wait()
	tr.Drain()
	journal, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(journal) != goroutines*per {
		t.Fatalf("journal has %d records, want %d", len(journal), goroutines*per)
	}
	var next [goroutines]int
	for k, e := range journal {
		g, _ := strconv.Atoi(e.Attrs["g"])
		if e.Attrs["i"] != strconv.Itoa(next[g]) {
			t.Fatalf("record %d: goroutine %d span %s, want %d", k, g, e.Attrs["i"], next[g])
		}
		next[g]++
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// Records emitted after Close are dropped and counted, and Close is
// idempotent.
func TestEmitAfterCloseDropsCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.New()
	tr := New(j, WithMetrics(r))
	tr.Event("before", nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	tr.Event("after", nil)
	tr.Drain() // must not hang on the post-close record
	if got := r.Snapshot().Counters[MetricDropped]; got != 1 {
		t.Fatalf("drop metric = %d, want 1 (the post-close event)", got)
	}
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "before" {
		t.Fatalf("journal = %+v, want just the pre-close event", events)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// AppendBatch must rotate at exactly the same byte offsets as a
// sequence of Append calls — batching is a syscall optimisation, not a
// change in journal semantics.
func TestAppendBatchMatchesSequentialAppend(t *testing.T) {
	dir := t.TempDir()
	events := make([]Event, 120)
	for i := range events {
		events[i] = Event{Time: time.Unix(int64(i), 0).UTC(), Kind: KindEvent, Name: "tick"}
	}
	const cap = 2048

	seqPath := filepath.Join(dir, "seq.jsonl")
	js, err := OpenJournal(seqPath, cap)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := js.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	batchPath := filepath.Join(dir, "batch.jsonl")
	jb, err := OpenJournal(batchPath, cap)
	if err != nil {
		t.Fatal(err)
	}
	// Uneven batch sizes so rotation boundaries land mid-batch.
	for i := 0; i < len(events); {
		n := 7
		if i+n > len(events) {
			n = len(events) - i
		}
		if err := jb.AppendBatch(events[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	if err := jb.Close(); err != nil {
		t.Fatal(err)
	}

	for _, suffix := range []string{"", ".old"} {
		want, err := os.ReadFile(seqPath + suffix)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(batchPath + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("generation %q differs: sequential %d bytes, batched %d bytes", suffix, len(want), len(got))
		}
	}
}

// A torn tail from a crash mid-batch replays cleanly: whole lines
// survive, the fragment is skipped.
func TestBatchedWriterTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Event{
		{Kind: KindEvent, Name: "one"},
		{Kind: KindEvent, Name: "two"},
	}
	if err := j.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"event","name":"tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	events, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Name != "one" || events[1].Name != "two" {
		t.Fatalf("events = %+v", events)
	}
}

func TestAppendBatchAfterCloseFails(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "events.jsonl"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch([]Event{{Name: "late"}}); err == nil {
		t.Fatal("AppendBatch after close succeeded")
	}
}
