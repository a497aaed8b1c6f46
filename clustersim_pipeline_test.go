package ecosched

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ecosched/internal/leakcheck"
	"ecosched/internal/workload"
)

// recordSpec records n submissions of race-smoke.json and returns the
// report and the log.
func recordSpec(t *testing.T, n int) (*ClusterReport, []byte) {
	t.Helper()
	spec := loadSpec(t, "race-smoke.json")
	spec.MaxSubmissions = n
	var log bytes.Buffer
	rep, err := RunClusterSpec(spec, &log)
	if err != nil {
		t.Fatal(err)
	}
	return rep, log.Bytes()
}

// watchedIO is a record writer / replay reader that fails after a byte
// budget and fails the test if the run touches it after returning.
type watchedIO struct {
	t      *testing.T
	r      io.Reader // nil for a writer
	budget int       // bytes accepted before failing; < 0 = never fail
	err    error
	calls  int
	closed atomic.Bool
}

func (w *watchedIO) touch() {
	if w.closed.Load() {
		w.t.Error("record writer / replay reader touched after the run returned")
	}
	w.calls++
}

func (w *watchedIO) Write(p []byte) (int, error) {
	w.touch()
	if w.budget >= 0 && len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, w.err
	}
	if w.budget >= 0 {
		w.budget -= len(p)
	}
	return len(p), nil
}

func (w *watchedIO) Read(p []byte) (int, error) {
	w.touch()
	return w.r.Read(p)
}

// TestClusterPipelineExits: every way out of runCluster joins the
// router and the lane workers (leakcheck) and leaves the caller's
// writer or reader alone afterwards, at one, two and four lane workers.
func TestClusterPipelineExits(t *testing.T) {
	spec := loadSpec(t, "race-smoke.json")
	full, log := recordSpec(t, spec.MaxSubmissions)
	lines := bytes.SplitAfter(log, []byte("\n")) // header, records, ""
	if len(log) < 3<<16 {
		t.Fatalf("recorded log is %d bytes; the cases below need several 64 KB buffer flushes", len(log))
	}

	errDisk := errors.New("disk full")
	corruptAt := 2 * len(lines) / 3
	corrupt := bytes.Join([][]byte{bytes.Join(lines[:corruptAt], nil), []byte("{\"q\":\n"), bytes.Join(lines[corruptAt:], nil)}, nil)
	// The error a bare reader reports for the corrupt line is the one
	// the run must return.
	var wantCorrupt error
	lr, err := workload.NewLogReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	for ok := true; ok; {
		_, ok, wantCorrupt = lr.Next()
	}
	if wantCorrupt == nil || !strings.Contains(wantCorrupt.Error(), "log line") {
		t.Fatalf("corrupt log read back with err = %v", wantCorrupt)
	}

	// Line 300 moved to position 5: before the reader checked arrival
	// order this panicked in simclock.RunUntil inside a lane goroutine.
	moved := append([][]byte{}, lines[:5]...)
	moved = append(moved, lines[300])
	moved = append(moved, lines[5:300]...)
	moved = append(moved, lines[301:]...)

	for _, lanes := range []int{1, 2, 4} {
		run := func(name string, wantErr string, body func(*watchedIO) (*ClusterReport, error), w *watchedIO) *ClusterReport {
			t.Helper()
			defer leakcheck.Check(t)()
			w.t = t
			rep, err := body(w)
			w.closed.Store(true)
			switch {
			case wantErr == "" && err != nil:
				t.Errorf("lanes=%d %s: %v", lanes, name, err)
			case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
				t.Errorf("lanes=%d %s: err = %v, want %q", lanes, name, err, wantErr)
			case wantErr != "" && rep != nil:
				t.Errorf("lanes=%d %s: a report beside the error", lanes, name)
			}
			return rep
		}
		record := func(w *watchedIO) (*ClusterReport, error) { return RunClusterSpec(spec, w, WithLanes(lanes)) }
		replay := func(w *watchedIO) (*ClusterReport, error) { return ReplayClusterLog(w, WithLanes(lanes)) }

		// (a) The recorder fails at its first buffer flush, windows into
		// the stream.
		first := &watchedIO{budget: 0, err: io.ErrClosedPipe}
		run("failed first flush", io.ErrClosedPipe.Error(), record, first)
		if first.calls != 1 {
			t.Errorf("lanes=%d: %d writes after the first failed", lanes, first.calls-1)
		}
		// (b) Every write succeeds but the one carrying the log's last
		// byte: the final Flush, after the source is exhausted.
		last := &watchedIO{budget: len(log) - 1, err: errDisk}
		run("failed final flush", errDisk.Error(), record, last)
		if last.calls < 3 {
			t.Errorf("lanes=%d: final-flush case failed at write %d", lanes, last.calls)
		}
		// (c) A source error in a late window is returned as it is.
		run("corrupt line", wantCorrupt.Error(), replay, &watchedIO{r: bytes.NewReader(corrupt)})
		run("out-of-order record", "precedes line 6", replay, &watchedIO{r: bytes.NewReader(bytes.Join(moved, nil))})
		// (d) An empty source: an empty report, no hang.
		if rep := run("header-only log", "", replay, &watchedIO{r: bytes.NewReader(lines[0])}); rep != nil &&
			(rep.Submissions != 0 || rep.Totals.Jobs != 0 || rep.Makespan != 0) {
			t.Errorf("lanes=%d header-only log: %+v", lanes, rep)
		}
		// The success path, under the same watch.
		if rep := run("intact log", "", replay, &watchedIO{r: bytes.NewReader(log)}); rep != nil && rep.Totals != full.Totals {
			t.Errorf("lanes=%d intact log: totals %+v, want %+v", lanes, rep.Totals, full.Totals)
		}
	}
}

// TestReplayTornTail: a log cut anywhere replays to an error or to the
// run of its complete records — never a hang (the FuzzTornTail shape of
// internal/filedb, where a reader goroutine first makes one possible).
func TestReplayTornTail(t *testing.T) {
	defer leakcheck.Check(t)()
	_, log := recordSpec(t, 40)
	lines := bytes.SplitAfter(log, []byte("\n")) // header, 40 records, ""
	// whole maps a cut that falls on a line's end (either side of its
	// newline) to the number of records before it.
	whole := map[int]int{}
	tail, off := 0, 0
	for i, line := range lines[:len(lines)-1] {
		if i == len(lines)-4 {
			tail = off // the last three records start here
		}
		off += len(line)
		whole[off-1], whole[off] = i, i
	}

	type outcome struct {
		rep *ClusterReport
		err error
	}
	for cut := 0; cut <= len(log); cut++ {
		if cut < tail && cut%17 != 0 {
			continue
		}
		done := make(chan outcome, 1)
		go func() {
			rep, err := ReplayClusterLog(bytes.NewReader(log[:cut]), WithLanes(2))
			done <- outcome{rep, err}
		}()
		select {
		case o := <-done:
			records, ok := whole[cut]
			switch {
			case ok && (o.err != nil || o.rep.Submissions != records):
				t.Errorf("cut at %d, after %d whole records: report %+v, err %v", cut, records, o.rep, o.err)
			case !ok && o.err == nil:
				t.Errorf("cut at %d, inside a line: no error, %d submissions", cut, o.rep.Submissions)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("replay of the log cut at byte %d of %d hangs", cut, len(log))
		}
	}
}

// TestSubBatchRefillAllocatesNothing is the per-window half of the
// no-allocation gate: a batch that has held n arrivals takes n again
// without allocating, and a chunk fills its size class.
func TestSubBatchRefillAllocatesNothing(t *testing.T) {
	if got := unsafe.Sizeof(workload.Submission{}); got != 224 {
		t.Fatalf("workload.Submission is %d bytes, not 224: subChunkLen = %d was chosen so a chunk is 4,032 of a 4,096-byte size class; re-derive it (largest n with n × size ≤ a class)", got, subChunkLen)
	}
	const n = 1250 // cluster-nopolicy's arrivals per window
	var b subBatch
	s := workload.Submission{JobName: "j", Shape: workload.Sleep("s", time.Second)}
	fill := func() {
		for i := 0; i < n; i++ {
			s.Seq = i
			b.add(&s)
		}
		if b.n != n || b.at(n-1).Seq != n-1 || b.at(subChunkLen).Seq != subChunkLen {
			t.Fatalf("batch holds %d, last seq %d", b.n, b.at(n-1).Seq)
		}
		b.n = 0
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Errorf("refilling a warmed batch allocates %v times, want 0", allocs)
	}
}

// TestClusterWindowsAllocateNothing is the whole-run half: the same six
// sleep jobs held for one day and for ten keep both lanes busy (a
// pending end event each) through 288 and 2,880 windows, and the 2,592
// extra windows may not allocate. Measured at d1105c2, 1 day → 10 days:
// 1,344 → 11,712 allocations at two lanes (four per window: a closure
// and its goroutine start per active lane; 190 → 190 on the inline
// one-lane branch); here 203 → 203, and 202 → 202 at one lane.
func TestClusterWindowsAllocateNothing(t *testing.T) {
	held := func(days int) workload.Spec {
		d := time.Duration(days) * 24 * time.Hour
		jobs := func(part string) workload.JobSpec {
			return workload.JobSpec{
				SleepFraction: 1,
				Sleep:         workload.Dist{Kind: workload.DistConstant, Value: d.Seconds()},
				TimeLimit:     workload.Dist{Kind: workload.DistConstant, Value: (d + time.Hour).Seconds()},
				Partitions:    []workload.PartitionWeight{{Name: part, Weight: 1}},
			}
		}
		return workload.Spec{
			Version: workload.SpecVersion, Name: "held", Seed: 3,
			Horizon: workload.Duration(time.Hour), MaxSubmissions: 6,
			Cluster: workload.ClusterSpec{Partitions: []workload.PartitionSpec{
				{Name: "a", Nodes: 4, Default: true}, {Name: "b", Nodes: 4},
			}},
			Clients: []workload.Client{
				{Name: "ca", Arrival: workload.ArrivalSpec{Process: workload.ArrivalPoisson, RatePerHour: 60}, Jobs: jobs("a")},
				{Name: "cb", Arrival: workload.ArrivalSpec{Process: workload.ArrivalPoisson, RatePerHour: 60}, Jobs: jobs("b")},
			},
		}
	}
	for _, lanes := range []int{1, 2} {
		allocs := func(days int) float64 {
			spec := held(days)
			return testing.AllocsPerRun(3, func() {
				rep, err := RunClusterSpec(spec, nil, WithLanes(lanes))
				if err != nil || rep.Totals.Completed != 6 || rep.Makespan < time.Duration(days)*24*time.Hour {
					t.Fatalf("%d-day run: %+v, err %v", days, rep, err)
				}
			})
		}
		one, ten := allocs(1), allocs(10)
		t.Logf("lanes=%d: %.0f allocations over 1 day, %.0f over 10", lanes, one, ten)
		if extra := ten - one; extra > 8 {
			t.Errorf("lanes=%d: 2,592 more windows cost %.0f more allocations (1 day %.0f, 10 days %.0f), want a small constant", lanes, extra, one, ten)
		}
	}
}
