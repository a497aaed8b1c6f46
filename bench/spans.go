package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one bench-side timing of a call into a layer's public
// function. Calls covers spans that wrap a chunk of very short calls
// (a clock read costs about as much as one histogram observation), so
// per-call time is (End-Start)/Calls.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	Op      int64  `json:"op"`     // spans of one operation share it
	Calls   int    `json:"calls"`
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, so untraced runs share the workload code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index for end and for children.
func (t *tracer) start(name string, parent int, op int64) int {
	return t.startN(name, parent, op, 1)
}

func (t *tracer) startN(name string, parent int, op int64, calls int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Calls: calls,
		StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNS = int64(time.Since(t.t0))
}

// perCallNS returns the per-call duration of every span with the name.
func (t *tracer) perCallNS(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/float64(s.Calls))
		}
	}
	return out
}

// medianNS is the median per-call duration of the named spans.
func (t *tracer) medianNS(name string) float64 { return median(t.perCallNS(name)) }

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
