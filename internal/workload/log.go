package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"ecosched/internal/simclock"
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
	JobName   string  `json:"n"` // "<c>-<ClientSeq>"
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
		AtNanos:   int64(s.At),
		Client:    s.Client,
		JobName:   s.JobName(),
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
		Deadline:  int64(s.Deadline),
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
	if h.StartNanos <= 0 {
		// A simulated clock starts after the Unix epoch (simclock.Tick).
		return nil, fmt.Errorf("workload: log header start %d is not after the Unix epoch", h.StartNanos)
	}
	return &LogReader{sc: sc, spec: h.Spec, start: time.Unix(0, h.StartNanos).UTC(), line: 1, lastAt: h.StartNanos}, nil
}

// Spec returns the generating spec embedded in the log header.
func (lr *LogReader) Spec() Spec { return lr.spec }

// Start returns the simulated start instant the log was recorded at.
func (lr *LogReader) Start() time.Time { return lr.start }

// Next returns the next recorded submission by value; see NextInto.
func (lr *LogReader) Next() (Submission, bool, error) {
	var s Submission
	if ok, err := lr.NextInto(&s); !ok {
		return Submission{}, false, err
	}
	return s, true, nil
}

// NextInto implements Source, streaming the recorded submissions in
// order.
func (lr *LogReader) NextInto(s *Submission) (bool, error) {
	if !lr.sc.Scan() {
		if err := lr.sc.Err(); err != nil {
			return false, fmt.Errorf("workload: reading log after line %d: %w", lr.line, err)
		}
		return false, nil
	}
	lr.line++
	var rec logRecord
	if err := json.Unmarshal(lr.sc.Bytes(), &rec); err != nil {
		return false, fmt.Errorf("workload: log line %d: %w", lr.line, err)
	}
	if rec.AtNanos < lr.lastAt {
		prev := "the log's start"
		if lr.line > 2 {
			prev = fmt.Sprintf("line %d", lr.line-1)
		}
		return false, fmt.Errorf("workload: log line %d: arrival %s precedes %s",
			lr.line, time.Unix(0, rec.AtNanos).UTC().Format(time.RFC3339Nano), prev)
	}
	lr.lastAt = rec.AtNanos
	clientSeq, ok := parseClientSeq(rec.JobName, rec.Client)
	if !ok {
		return false, fmt.Errorf("workload: log line %d: job name %q is not %s-<n> with n ≥ 1", lr.line, rec.JobName, rec.Client)
	}
	*s = Submission{
		Seq:           rec.Seq,
		At:            simclock.Tick(rec.AtNanos),
		Client:        rec.Client,
		ClientSeq:     clientSeq,
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
		Deadline:   simclock.Tick(rec.Deadline),
	}
	if err := s.Shape.Validate(); err != nil {
		return false, fmt.Errorf("workload: log line %d: %w", lr.line, err)
	}
	return true, nil
}

// parseClientSeq returns k for a job name "<client>-<k>", where k is a
// canonical decimal ≥ 1 (no sign, no leading zero) that fits an int:
// the one spelling Submission.JobName writes.
func parseClientSeq(name, client string) (int, bool) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || name[:i] != client {
		return 0, false
	}
	digits := name[i+1:]
	if digits == "" || digits[0] < '1' || digits[0] > '9' {
		return 0, false
	}
	k, err := strconv.Atoi(digits)
	return k, err == nil
}
