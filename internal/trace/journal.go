package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultJournalMaxBytes bounds events.jsonl before rotation: one
// generation of history is kept as <path>.old, so the journal never
// holds more than ~2× this on disk.
const DefaultJournalMaxBytes = 1 << 20

// Journal is a bounded append-only JSONL event log. When an append
// would push the file past the size cap, the file rotates: the current
// file becomes <path>.old (replacing any previous generation) and a
// fresh file starts. A nil *Journal is a valid no-op sink.
type Journal struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	f        *os.File
	size     int64
}

// OpenJournal opens (creating if needed) the journal at path. A
// maxBytes ≤ 0 uses DefaultJournalMaxBytes.
func OpenJournal(path string, maxBytes int64) (*Journal, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultJournalMaxBytes
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("trace: journal dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trace: journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: journal: %w", err)
	}
	return &Journal{path: path, maxBytes: maxBytes, f: f, size: st.Size()}, nil
}

// Append writes one event as a JSON line, rotating first if the line
// would exceed the size cap.
//
//lint:ignore ecolint/lockscope the journal IS the I/O sink; the write must be serialized with rotation under j.mu
func (j *Journal) Append(e Event) error {
	if j == nil {
		return nil
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("trace: journal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("trace: journal %s is closed", j.path)
	}
	if j.size > 0 && j.size+int64(len(line)) > j.maxBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := j.f.Write(line)
	j.size += int64(n)
	if err != nil {
		return fmt.Errorf("trace: journal: %w", err)
	}
	return nil
}

// AppendBatch writes a batch of events in one buffered pass: lines are
// marshalled outside the lock, accumulated, and flushed to the file at
// rotation boundaries and at the end — one or two writes per batch
// instead of one per event, with rotation points byte-identical to a
// sequence of Append calls (the per-line size check is preserved).
func (j *Journal) AppendBatch(events []Event) error {
	if j == nil || len(events) == 0 {
		return nil
	}
	lines := make([][]byte, 0, len(events))
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("trace: journal: %w", err)
		}
		lines = append(lines, append(line, '\n'))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("trace: journal %s is closed", j.path)
	}
	var buf []byte
	for _, line := range lines {
		// Same per-line condition as Append, against the effective size
		// including the not-yet-flushed buffer.
		if pending := j.size + int64(len(buf)); pending > 0 && pending+int64(len(line)) > j.maxBytes {
			if err := j.flushLocked(&buf); err != nil {
				return err
			}
			if j.size > 0 {
				if err := j.rotateLocked(); err != nil {
					return err
				}
			}
		}
		buf = append(buf, line...)
	}
	return j.flushLocked(&buf)
}

// flushLocked writes the pending buffer and resets it.
func (j *Journal) flushLocked(buf *[]byte) error {
	if len(*buf) == 0 {
		return nil
	}
	n, err := j.f.Write(*buf)
	j.size += int64(n)
	*buf = (*buf)[:0]
	if err != nil {
		return fmt.Errorf("trace: journal: %w", err)
	}
	return nil
}

// rotateLocked moves the current file to <path>.old and starts fresh.
func (j *Journal) rotateLocked() error {
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("trace: journal rotate: %w", err)
	}
	if err := os.Rename(j.path, j.path+".old"); err != nil {
		return fmt.Errorf("trace: journal rotate: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("trace: journal rotate: %w", err)
	}
	j.f, j.size = f, 0
	return nil
}

// Close syncs and closes the journal. Further appends fail.
//
//lint:ignore ecolint/lockscope close races with concurrent appends unless serialized under j.mu
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// ReadJournal replays the journal at path, oldest event first,
// including the rotated <path>.old generation if present. A missing
// journal yields os.ErrNotExist; a torn final line (crash mid-append)
// is skipped, not an error.
func ReadJournal(path string) ([]Event, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	var out []Event
	for _, p := range []string{path + ".old", path} {
		events, err := readJournalFile(p)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return nil, err
		}
		out = append(out, events...)
	}
	return out, nil
}

func readJournalFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			continue // torn tail from a crash mid-append
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// AttrJobID is the attribute linking a submit trace to its Slurm job.
const AttrJobID = "job_id"

// TraceFor collects the events of the trace whose root span carries
// job_id == jobID, in journal order. Job IDs restart with each
// deployment, so several traces in one journal can carry the same id;
// the latest wins — "the job you just ran", not a stale earlier run.
func TraceFor(events []Event, jobID string) []Event {
	var id string
	for _, e := range events {
		if e.Kind == KindSpan && e.Attrs[AttrJobID] == jobID {
			id = e.Trace
		}
	}
	if id == "" {
		return nil
	}
	var out []Event
	for _, e := range events {
		if e.Trace == id {
			out = append(out, e)
		}
	}
	return out
}

// Since filters events to those at or after t.
func Since(events []Event, t time.Time) []Event {
	var out []Event
	for _, e := range events {
		if !e.Time.Before(t) {
			out = append(out, e)
		}
	}
	return out
}

// WriteTree renders one trace's spans as an indented tree with
// per-stage durations and attributes — the `chronus trace <job>`
// output.
func WriteTree(w io.Writer, events []Event) {
	children := make(map[string][]Event)
	for _, e := range events {
		if e.Kind != KindSpan {
			continue
		}
		children[e.Parent] = append(children[e.Parent], e)
	}
	var walk func(parent string, depth int)
	walk = func(parent string, depth int) {
		for _, e := range children[parent] {
			fmt.Fprintf(w, "%s%-24s %12v%s%s\n",
				strings.Repeat("  ", depth), e.Name, e.Duration().Round(time.Microsecond),
				formatAttrs(e.Attrs), formatErr(e.Err))
			walk(e.Span, depth+1)
		}
	}
	walk("", 0)
}

// WriteEvents renders events one per line — the `chronus events`
// output.
func WriteEvents(w io.Writer, events []Event) {
	for _, e := range events {
		dur := ""
		if e.Kind == KindSpan {
			dur = fmt.Sprintf(" dur=%v", e.Duration().Round(time.Microsecond))
		}
		trace := ""
		if e.Trace != "" {
			trace = " trace=" + e.Trace
		}
		fmt.Fprintf(w, "%s %-5s %-24s%s%s%s%s\n",
			e.Time.UTC().Format(time.RFC3339Nano), e.Kind, e.Name, trace, dur,
			formatAttrs(e.Attrs), formatErr(e.Err))
	}
}

func formatAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, attrs[k])
	}
	return b.String()
}

func formatErr(s string) string {
	if s == "" {
		return ""
	}
	return fmt.Sprintf(" error=%q", s)
}
