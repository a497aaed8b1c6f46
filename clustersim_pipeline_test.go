package ecosched

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ecosched/internal/hw"
	"ecosched/internal/leakcheck"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
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
	// order this panicked in simclock.RunUntilTick inside a lane goroutine.
	moved := append([][]byte{}, lines[:5]...)
	moved = append(moved, lines[300])
	moved = append(moved, lines[5:300]...)
	moved = append(moved, lines[301:]...)

	// Two lanes that read each other's usage: a corrupt line in a late
	// window ends the run while either may be waiting for the other's
	// deltas.
	var readersLog bytes.Buffer
	if _, err := RunClusterSpec(loadSpec(t, "mutual-readers.json"), &readersLog); err != nil {
		t.Fatal(err)
	}
	rl := bytes.SplitAfter(readersLog.Bytes(), []byte("\n"))
	at := 3 * len(rl) / 4
	readersCorrupt := bytes.Join([][]byte{bytes.Join(rl[:at], nil), []byte("{\"q\":\n"), bytes.Join(rl[at:], nil)}, nil)
	wantReaders := fmt.Sprintf("log line %d", at+1)

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
		run("corrupt line, two usage readers", wantReaders, replay, &watchedIO{r: bytes.NewReader(readersCorrupt)})
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
	if got := unsafe.Sizeof(workload.Submission{}); got != 184 {
		t.Fatalf("workload.Submission is %d bytes, not 184: subChunkLen = %d was chosen so a chunk is 4,048 of a 4,096-byte size class; re-derive it (largest n with n × size ≤ a class)", got, subChunkLen)
	}
	const n = 1250 // cluster-nopolicy's arrivals per window
	var b subBatch
	s := workload.Submission{Client: "c", ClientSeq: 1, Shape: workload.Sleep("s", time.Second)}
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

// TestPipelineTimingPartsSumToLifetime times mutual-readers.json (two
// multifactor lanes reading each other's usage beside a FIFO one) with a
// clock that steps 1 ns a read, at one lane slot and at one per lane.
// Every interval a stage charges is at least a step, so a dropped one
// shows: each stage's parts must sum to its lifetime exactly. A stage
// reads the clock a few times a window, and the report and log match an
// untimed run byte for byte.
func TestPipelineTimingPartsSumToLifetime(t *testing.T) {
	spec := loadSpec(t, "mutual-readers.json")
	var plainLog, plainText bytes.Buffer
	plain, err := RunClusterSpec(spec, &plainLog)
	if err != nil {
		t.Fatal(err)
	}
	plain.WriteText(&plainText)
	for _, lanes := range []int{1, 0} {
		var reads atomic.Int64
		clock := func() time.Time { return simclock.Epoch.Add(time.Duration(reads.Add(1))) }
		var timing PipelineTiming
		var log, text bytes.Buffer
		rep, err := RunClusterSpec(spec, &log, WithLanes(lanes), WithTiming(clock, &timing))
		if err != nil {
			t.Fatal(err)
		}
		if rep.WriteText(&text); !bytes.Equal(text.Bytes(), plainText.Bytes()) || !bytes.Equal(log.Bytes(), plainLog.Bytes()) {
			t.Errorf("lanes %d: timing changed the report or the log", lanes)
		}
		stages := append([]StageTiming{timing.Router}, timing.Lanes...)
		if len(stages) != 4 || stages[0].Name != "router" || stages[1].Name != "batch" || stages[3].Name != "right" {
			t.Fatalf("lanes %d: stages %+v, want router, batch, left, right", lanes, stages)
		}
		for _, st := range stages {
			if sum := st.Busy + st.WaitWindow + st.WaitUsage; st.Lifetime <= 0 || sum != st.Lifetime {
				t.Errorf("lanes %d: %s: busy %d + wait window %d + wait usage %d = %d, lifetime %d",
					lanes, st.Name, st.Busy, st.WaitWindow, st.WaitUsage, sum, st.Lifetime)
			}
		}
		windows := int64(rep.Makespan/laneWindow) + 2
		if limit := 6 * windows * int64(len(stages)); reads.Load() > limit {
			t.Errorf("lanes %d: %d clock reads over %d windows and %d stages, want at most %d", lanes, reads.Load(), windows, len(stages), limit)
		}
	}
}

// TestClusterWindowsAllocateNothing is the whole-run half: the same six
// sleep jobs held for one day and for ten keep both lanes busy (a
// pending end event each) through 288 and 2,880 windows, and the 2,592
// extra windows may not allocate. Lane a is multifactor, so every
// window also hands b's usage deltas to it through recycled buffers.
// Measured at d1105c2, 1 day → 10 days: 1,344 → 11,712 allocations at
// two lanes (four per window: a closure and its goroutine start per
// active lane; 190 → 190 on the inline one-lane branch); at 49c8ec1
// 203 → 203, and 202 → 202 at one lane; with a goroutine per lane and
// the exchange, 169 → 168 at two lanes and 170 → 168 at one.
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
				{Name: "a", Nodes: 4, Default: true, Policy: "multifactor"}, {Name: "b", Nodes: 4},
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

// TestUsageExchangeAppliesSiblingsInPartitionOrder: a reading lane
// credits its siblings' deltas of a window in partition-config order,
// whichever sibling publishes first — the order the all-lane barrier
// added them in. The deltas are chosen so float addition tells the
// orders apart.
func TestUsageExchangeAppliesSiblingsInPartitionOrder(t *testing.T) {
	sim := simclock.New()
	ctl, err := slurm.NewCluster(sim, slurm.DefaultConf(),
		slurm.WithNodes(hw.NewNode(sim, hw.DefaultSpec(), nil, 1)),
		slurm.WithMultifactor())
	if err != nil {
		t.Fatal(err)
	}
	x := &usageExchange{lanes: make([]laneUsage, 3)}
	x.cond.L = &x.mu
	x.lanes[1].reads = true
	const uid = 7
	first := []usageDelta{{uid, 0.1}}
	last := []usageDelta{{uid, 0.2}, {uid, 0.3}}
	// Lane 2 publishes before lane 0, and lane 0 only once lane 1 waits.
	x.publish(2, 1, &last)
	go func() {
		x.mu.Lock()
		for x.lanes[2].published != 1 {
			x.cond.Wait()
		}
		x.mu.Unlock()
		x.publish(0, 1, &first)
	}()
	x.apply(1, 1, ctl)
	want := 0.1
	want += 0.2
	want += 0.3
	reverse := 0.2
	reverse += 0.3
	reverse += 0.1
	if want == reverse {
		t.Fatal("the deltas add up the same in either order: the test cannot tell them apart")
	}
	if got := ctl.UserUsageCPUSeconds(uid); got != want {
		t.Fatalf("usage %v after applying window 1, want %v (lane 0's deltas, then lane 2's)", got, want)
	}
	if len(first) != 0 || len(last) != 0 {
		t.Fatalf("publish handed back buffers holding %d and %d deltas, want emptied ones", len(first), len(last))
	}
}
