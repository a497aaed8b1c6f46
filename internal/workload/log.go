package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// LogVersion is the submission-log format version, written in the
// header line and checked on read.
const LogVersion = 1

// logHeader is the first JSONL line of a submission log. It embeds
// the full generating spec and the simulated start instant, so a log
// is self-contained: replay needs nothing but the log file.
type logHeader struct {
	WorkloadLog int   `json:"workload_log"`
	StartNanos  int64 `json:"start"`
	Spec        Spec  `json:"spec"`
}

// logRecord is one submission line. Field keys are short and times
// are UnixNano integers to keep million-line logs compact and the
// encoding byte-stable.
type logRecord struct {
	Seq       int     `json:"q"`
	AtNanos   int64   `json:"t"`
	Client    string  `json:"c"`
	JobName   string  `json:"n"`
	Partition string  `json:"p,omitempty"`
	Tasks     int     `json:"k,omitempty"`
	Threads   int     `json:"h,omitempty"`
	UserID    uint32  `json:"u,omitempty"`
	Comment   string  `json:"m,omitempty"`
	Limit     int64   `json:"l,omitempty"` // time limit, nanoseconds
	ShapeKind string  `json:"sk"`
	ShapeName string  `json:"sn,omitempty"`
	GFLOP     float64 `json:"sg,omitempty"`
	SleepNS   int64   `json:"sd,omitempty"`
	Profile   string  `json:"sp,omitempty"`
	Exclusive bool    `json:"x,omitempty"`
	Deferred  bool    `json:"df,omitempty"` // deferrable flag
	Deadline  int64   `json:"dl,omitempty"` // deadline, UnixNano
}

// LogWriter records submissions to a versioned JSONL log.
type LogWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewLogWriter writes the header line (format version, start instant,
// full spec) and returns a writer ready for Record calls.
func NewLogWriter(w io.Writer, spec Spec, start time.Time) (*LogWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	lw := &LogWriter{w: bw, enc: json.NewEncoder(bw)}
	if err := lw.enc.Encode(logHeader{
		WorkloadLog: LogVersion,
		StartNanos:  start.UnixNano(),
		Spec:        spec,
	}); err != nil {
		return nil, fmt.Errorf("workload: writing log header: %w", err)
	}
	return lw, nil
}

// Record appends one submission line.
func (lw *LogWriter) Record(s Submission) error {
	if lw.err != nil {
		return lw.err
	}
	rec := logRecord{
		Seq:       s.Seq,
		AtNanos:   s.At.UnixNano(),
		Client:    s.Client,
		JobName:   s.JobName,
		Partition: s.Partition,
		Tasks:     s.Tasks,
		Threads:   s.ThreadsPerCPU,
		UserID:    s.UserID,
		Comment:   s.Comment,
		Limit:     int64(s.TimeLimit),
		ShapeKind: string(s.Shape.Kind),
		ShapeName: s.Shape.Label,
		GFLOP:     s.Shape.GFLOP,
		SleepNS:   int64(s.Shape.Duration),
		Profile:   s.Shape.Profile,
		Exclusive: s.Exclusive,
		Deferred:  s.Deferrable,
	}
	if !s.Deadline.IsZero() {
		rec.Deadline = s.Deadline.UnixNano()
	}
	if err := lw.enc.Encode(rec); err != nil {
		lw.err = fmt.Errorf("workload: writing log record %d: %w", s.Seq, err)
		return lw.err
	}
	return nil
}

// Flush drains the buffered writer. Call it before closing the
// underlying file.
func (lw *LogWriter) Flush() error {
	if lw.err != nil {
		return lw.err
	}
	return lw.w.Flush()
}

// LogReader streams a recorded submission log back as a Source.
type LogReader struct {
	sc    *bufio.Scanner
	spec  Spec
	start time.Time
	line  int
	// lastAt is the previous record's arrival (the header's start before
	// the first): a Source is time-ordered, and a consumer advancing a
	// simulated clock to each arrival relies on it.
	lastAt int64
}

// NewLogReader reads and checks the header line.
func NewLogReader(r io.Reader) (*LogReader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("workload: reading log header: %w", err)
		}
		return nil, fmt.Errorf("workload: empty submission log")
	}
	var h logHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("workload: parsing log header: %w", err)
	}
	if h.WorkloadLog != LogVersion {
		return nil, fmt.Errorf("workload: log version %d, want %d", h.WorkloadLog, LogVersion)
	}
	if err := h.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("workload: log header spec: %w", err)
	}
	return &LogReader{sc: sc, spec: h.Spec, start: time.Unix(0, h.StartNanos).UTC(), line: 1, lastAt: h.StartNanos}, nil
}

// Spec returns the generating spec embedded in the log header.
func (lr *LogReader) Spec() Spec { return lr.spec }

// Start returns the simulated start instant the log was recorded at.
func (lr *LogReader) Start() time.Time { return lr.start }

// Next implements Source, streaming the recorded submissions in order.
func (lr *LogReader) Next() (Submission, bool, error) {
	if !lr.sc.Scan() {
		if err := lr.sc.Err(); err != nil {
			return Submission{}, false, fmt.Errorf("workload: reading log after line %d: %w", lr.line, err)
		}
		return Submission{}, false, nil
	}
	lr.line++
	var rec logRecord
	if err := json.Unmarshal(lr.sc.Bytes(), &rec); err != nil {
		return Submission{}, false, fmt.Errorf("workload: log line %d: %w", lr.line, err)
	}
	if rec.AtNanos < lr.lastAt {
		prev := "the log's start"
		if lr.line > 2 {
			prev = fmt.Sprintf("line %d", lr.line-1)
		}
		return Submission{}, false, fmt.Errorf("workload: log line %d: arrival %s precedes %s",
			lr.line, time.Unix(0, rec.AtNanos).UTC().Format(time.RFC3339Nano), prev)
	}
	lr.lastAt = rec.AtNanos
	s := Submission{
		Seq:           rec.Seq,
		At:            time.Unix(0, rec.AtNanos).UTC(),
		Client:        rec.Client,
		JobName:       rec.JobName,
		Partition:     rec.Partition,
		Tasks:         rec.Tasks,
		ThreadsPerCPU: rec.Threads,
		UserID:        rec.UserID,
		Comment:       rec.Comment,
		TimeLimit:     time.Duration(rec.Limit),
		Shape: Shape{
			Kind:     ShapeKind(rec.ShapeKind),
			Label:    rec.ShapeName,
			GFLOP:    rec.GFLOP,
			Duration: time.Duration(rec.SleepNS),
			Profile:  rec.Profile,
		},
		Exclusive:  rec.Exclusive,
		Deferrable: rec.Deferred,
	}
	if rec.Deadline != 0 {
		s.Deadline = time.Unix(0, rec.Deadline).UTC()
	}
	if err := s.Shape.Validate(); err != nil {
		return Submission{}, false, fmt.Errorf("workload: log line %d: %w", lr.line, err)
	}
	return s, true, nil
}
