package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ecosched/internal/simclock"
)

func testSpec() Spec {
	return Spec{
		Version: SpecVersion,
		Name:    "gen-test",
		Seed:    42,
		Horizon: Duration(12 * time.Hour),
		Cluster: ClusterSpec{Partitions: []PartitionSpec{
			{Name: "batch", Nodes: 4, Default: true},
			{Name: "debug", Nodes: 2, Policy: "multifactor", MaxTime: Duration(time.Hour)},
		}},
		Clients: []Client{
			{
				Name:    "hpc",
				Arrival: ArrivalSpec{Process: ArrivalPoisson, RatePerHour: 120},
				Jobs: JobSpec{
					Work:          Dist{Kind: DistLogNormal, Mu: 7, Sigma: 0.6},
					Tasks:         Dist{Kind: DistUniform, Min: 1, Max: 8},
					TimeLimit:     Dist{Kind: DistConstant, Value: 1800},
					Partitions:    []PartitionWeight{{Name: "batch", Weight: 3}, {Name: "debug", Weight: 1}},
					OptInFraction: 0.5,
				},
				Users: 4,
			},
			{
				Name:    "interactive",
				Arrival: ArrivalSpec{Process: ArrivalGamma, RatePerHour: 60, Shape: 0.7},
				Windows: []Window{{FromHour: 8, ToHour: 18, Weight: 3}},
				Jobs: JobSpec{
					SleepFraction: 1,
					Sleep:         Dist{Kind: DistExponential, Mean: 45},
				},
			},
		},
	}
}

func drain(t *testing.T, src Source) []Submission {
	t.Helper()
	var out []Submission
	for {
		var s Submission
		ok, err := src.NextInto(&s)
		if err != nil {
			t.Fatalf("NextInto: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, s)
	}
}

// TestGeneratorDeterminism: same spec + seed → identical submission
// sequences, draw for draw.
func TestGeneratorDeterminism(t *testing.T) {
	spec := testSpec()
	g1, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	g2, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	a, b := drain(t, g1), drain(t, g2)
	if len(a) == 0 {
		t.Fatal("generator produced no submissions")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec+seed produced different streams (%d vs %d submissions)", len(a), len(b))
	}
	// A different seed must diverge.
	spec.Seed = 43
	g3, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	if c := drain(t, g3); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGeneratorStreamShape sanity-checks ordering, horizons, and the
// sampled fields.
func TestGeneratorStreamShape(t *testing.T) {
	spec := testSpec()
	gen, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	subs := drain(t, gen)
	if len(subs) == 0 {
		t.Fatal("no submissions")
	}
	horizon := simclock.Epoch.Add(spec.Horizon.Std())
	var sawOptIn, sawSleep, sawWork bool
	for i, s := range subs {
		if s.Seq != i {
			t.Fatalf("submission %d has seq %d", i, s.Seq)
		}
		if i > 0 && s.At < subs[i-1].At {
			t.Fatalf("submission %d at %v precedes predecessor at %v", i, s.At, subs[i-1].At)
		}
		if !s.At.Time().Before(horizon) {
			t.Fatalf("submission %d at %v is past the horizon %v", i, s.At, horizon)
		}
		if err := s.Shape.Validate(); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		switch s.Client {
		case "hpc":
			sawWork = true
			if s.Shape.Kind != ShapeFixedWork {
				t.Fatalf("hpc submission %d has shape %q", i, s.Shape.Kind)
			}
			if s.Partition != "batch" && s.Partition != "debug" {
				t.Fatalf("hpc submission %d targets %q", i, s.Partition)
			}
			if s.Tasks < 1 || s.Tasks > 8 {
				t.Fatalf("hpc submission %d has %d tasks", i, s.Tasks)
			}
			if s.TimeLimit != 30*time.Minute {
				t.Fatalf("hpc submission %d has time limit %v", i, s.TimeLimit)
			}
			if s.UserID < 1000 || s.UserID > 1003 {
				t.Fatalf("hpc submission %d has uid %d", i, s.UserID)
			}
			if s.Comment == OptInComment {
				sawOptIn = true
			}
		case "interactive":
			sawSleep = true
			if s.Shape.Kind != ShapeSleep {
				t.Fatalf("interactive submission %d has shape %q", i, s.Shape.Kind)
			}
			if s.Partition != "" {
				t.Fatalf("interactive submission %d targets %q, want default", i, s.Partition)
			}
		default:
			t.Fatalf("submission %d from unknown client %q", i, s.Client)
		}
	}
	if !sawWork || !sawSleep || !sawOptIn {
		t.Fatalf("stream missing variety: work=%v sleep=%v optIn=%v", sawWork, sawSleep, sawOptIn)
	}
}

// TestGeneratorAllocatesNothing: a warmed generator fills 100,000
// submissions of bench/specs/cluster-nopolicy.json's clients without a
// heap allocation. One run of the whole loop, so that a per-submission
// cost amortised over many (a string arena's chunks, say) still counts.
func TestGeneratorAllocatesNothing(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "..", "bench", "specs", "cluster-nopolicy.json"))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	var s Submission
	// AllocsPerRun counts the whole process's mallocs, and the runtime's
	// background scavenger allocates when it first sleeps on a P's timer
	// heap. On one P, with the freed memory already returned to the OS,
	// it cannot be mid-work beside the loop and wakes to nothing.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	debug.FreeOSMemory()
	allocs := testing.AllocsPerRun(1, func() {
		for range 100_000 {
			if ok, err := gen.NextInto(&s); !ok || err != nil {
				t.Fatalf("stream ended early: %v", err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("100,000 submissions allocate %v times, want 0", allocs)
	}
}

// TestGeneratorClientIndependence: adding a client must not perturb
// an existing client's stream.
func TestGeneratorClientIndependence(t *testing.T) {
	spec := testSpec()
	base, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	only := map[string][]Submission{}
	for _, s := range drain(t, base) {
		only[s.Client] = append(only[s.Client], s)
	}

	grown := testSpec()
	grown.Clients = append(grown.Clients, Client{
		Name:    "extra",
		Arrival: ArrivalSpec{Process: ArrivalWeibull, RatePerHour: 30, Shape: 1.4},
		Jobs:    JobSpec{Work: Dist{Kind: DistConstant, Value: 500}},
	})
	g2, err := NewGenerator(grown, simclock.Epoch)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	after := map[string][]Submission{}
	for _, s := range drain(t, g2) {
		after[s.Client] = append(after[s.Client], s)
	}
	if len(after["extra"]) == 0 {
		t.Fatal("extra client generated nothing")
	}
	for _, name := range []string{"hpc", "interactive"} {
		a, b := only[name], after[name]
		if len(a) != len(b) {
			t.Fatalf("client %q: %d submissions before, %d after adding a client", name, len(a), len(b))
		}
		for i := range a {
			// Seq shifts with the merged ordering; the
			// per-client sampled content must not.
			ca, cb := a[i], b[i]
			ca.Seq, cb.Seq = 0, 0
			if !reflect.DeepEqual(ca, cb) {
				t.Fatalf("client %q submission %d changed: %+v vs %+v", name, i, ca, cb)
			}
		}
	}
}

// TestMaxSubmissionsCap: the global cap stops the stream.
func TestMaxSubmissionsCap(t *testing.T) {
	spec := testSpec()
	spec.MaxSubmissions = 17
	gen, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	if subs := drain(t, gen); len(subs) != 17 {
		t.Fatalf("generated %d submissions, want 17", len(subs))
	}
}

// recordTestLog records the first n submissions of testSpec and
// returns the spec, the submissions and the log.
func recordTestLog(t *testing.T, n int) (Spec, []Submission, []byte) {
	t.Helper()
	spec := testSpec()
	spec.MaxSubmissions = n
	gen, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, spec, simclock.Epoch)
	if err != nil {
		t.Fatalf("NewLogWriter: %v", err)
	}
	subs := drain(t, gen)
	for _, s := range subs {
		if err := lw.Record(s); err != nil {
			t.Fatalf("Record: %v", err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return spec, subs, buf.Bytes()
}

// TestLogRoundTrip: record → read back → identical submissions, and
// the header carries the spec and start instant.
func TestLogRoundTrip(t *testing.T) {
	spec, want, log := recordTestLog(t, 500)
	lr, err := NewLogReader(bytes.NewReader(log))
	if err != nil {
		t.Fatalf("NewLogReader: %v", err)
	}
	if !lr.Start().Equal(simclock.Epoch) {
		t.Fatalf("log start = %v, want %v", lr.Start(), simclock.Epoch)
	}
	if !reflect.DeepEqual(lr.Spec(), spec) {
		t.Fatalf("log spec round-trip mismatch:\n got %+v\nwant %+v", lr.Spec(), spec)
	}
	got := drain(t, lr)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log round-trip: %d submissions in, %d out (or contents differ)", len(want), len(got))
	}
}

// TestLogReaderRejects: version and corruption checks.
func TestLogReaderRejects(t *testing.T) {
	if _, err := NewLogReader(strings.NewReader("")); err == nil {
		t.Error("empty log accepted")
	}
	if _, err := NewLogReader(strings.NewReader(`{"workload_log":99}`)); err == nil {
		t.Error("future log version accepted")
	}
	if _, err := NewLogReader(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage header accepted")
	}
	// A record's n is its own client's name, a dash and a canonical
	// sequence number ≥ 1: the one spelling the writer derives.
	_, subs, log := recordTestLog(t, 1)
	header, record, _ := strings.Cut(string(log), "\n")
	// A clock starts after the Unix epoch: the zero tick means none.
	atEpoch := strings.Replace(header, fmt.Sprintf(`"start":%d`, simclock.Epoch.UnixNano()), `"start":0`, 1)
	if _, err := NewLogReader(strings.NewReader(atEpoch + "\n")); err == nil || !strings.Contains(err.Error(), "not after the Unix epoch") {
		t.Errorf("header starting at the Unix epoch: err %v", err)
	}
	c := subs[0].Client
	for _, bad := range []string{"x" + c + "-1", c + "-01", c + "-0", c + "-+1", c + "-", c + "1"} {
		lr, err := NewLogReader(strings.NewReader(header + "\n" + strings.Replace(record, `"n":"`+c+`-1"`, `"n":"`+bad+`"`, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := lr.Next(); ok || err == nil || !strings.Contains(err.Error(), "log line 2: job name") {
			t.Errorf("record named %q: ok %v, err %v; want a line-2 job name error", bad, ok, err)
		}
	}
}

// TestLogReaderRejectsOutOfOrder: a Source is time-ordered; a log whose
// record arrives before its predecessor (or before the header's start)
// is an error at that line, not a stream for a simulated clock to
// choke on.
func TestLogReaderRejectsOutOfOrder(t *testing.T) {
	_, _, log := recordTestLog(t, 20)
	lines := strings.SplitAfter(string(log), "\n") // header, 20 records, ""

	readAll := func(log string) (int, error) {
		lr, err := NewLogReader(strings.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; ; n++ {
			if _, ok, err := lr.Next(); !ok {
				return n, err
			}
		}
	}
	if n, err := readAll(strings.Join(lines, "")); n != 20 || err != nil {
		t.Fatalf("intact log: %d records, err %v", n, err)
	}

	// Line 16 (record 15) moved to line 4: lines 2-3 read, line 4 is
	// fine on its own (later than line 3), line 5 is the one out of order.
	moved := append([]string{}, lines[:3]...)
	moved = append(moved, lines[15])
	moved = append(moved, lines[3:15]...)
	moved = append(moved, lines[16:]...)
	n, err := readAll(strings.Join(moved, ""))
	if n != 3 || err == nil || !strings.Contains(err.Error(), "log line 5: arrival") || !strings.HasSuffix(err.Error(), "precedes line 4") {
		t.Errorf("moved record: read %d records, err = %v; want 3 and a line-5-precedes-line-4 error", n, err)
	}

	// A first record before the header's start.
	early := strings.Replace(lines[0], fmt.Sprintf(`"start":%d`, simclock.Epoch.UnixNano()),
		fmt.Sprintf(`"start":%d`, simclock.Epoch.Add(240*time.Hour).UnixNano()), 1)
	if early == lines[0] {
		t.Fatal("header start not found")
	}
	n, err = readAll(early + strings.Join(lines[1:], ""))
	if n != 0 || err == nil || !strings.HasSuffix(err.Error(), "precedes the log's start") {
		t.Errorf("record before start: read %d records, err = %v", n, err)
	}
}

// TestSpecParse exercises the JSON surface, including bare-seconds
// and string durations.
func TestSpecParse(t *testing.T) {
	const doc = `{
		"version": 1,
		"name": "parse-test",
		"seed": 9,
		"horizon": "2h",
		"cluster": {"partitions": [{"name": "batch", "nodes": 8, "max_time": 3600, "default": true}]},
		"clients": [{
			"name": "c",
			"arrival": {"process": "poisson", "rate_per_hour": 10},
			"jobs": {"work": {"kind": "constant", "value": 100}}
		}]
	}`
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Horizon.Std() != 2*time.Hour {
		t.Errorf("horizon = %v", spec.Horizon.Std())
	}
	if got := spec.Cluster.Partitions[0].MaxTime.Std(); got != time.Hour {
		t.Errorf("max_time = %v, want 1h (bare seconds)", got)
	}
	if n := spec.Cluster.Partitions[0].Nodes; n != 8 {
		t.Errorf("nodes = %d", n)
	}
}

// TestSpecValidateErrors covers the structural error paths.
func TestSpecValidateErrors(t *testing.T) {
	mutate := []func(*Spec){
		func(s *Spec) { s.Version = 2 },
		func(s *Spec) { s.Horizon = 0 },
		func(s *Spec) { s.MaxSubmissions = -1 },
		func(s *Spec) { s.Cluster.Partitions = nil },
		func(s *Spec) { s.Cluster.Partitions[0].Name = "" },
		func(s *Spec) { s.Cluster.Partitions[1].Name = "batch" },
		func(s *Spec) { s.Cluster.Partitions[0].Nodes = 0 },
		func(s *Spec) { s.Cluster.Partitions[0].Policy = "random" },
		func(s *Spec) { s.Clients = nil },
		func(s *Spec) { s.Clients[0].Name = "" },
		func(s *Spec) { s.Clients[0].Arrival.Process = "pareto" },
		func(s *Spec) { s.Clients[0].Arrival.RatePerHour = 0 },
		func(s *Spec) { s.Clients[1].Arrival.Shape = 0 },
		func(s *Spec) { s.Clients[1].Windows[0].Weight = -1 },
		func(s *Spec) { s.Clients[1].Windows[0].ToHour = 25 },
		func(s *Spec) { s.Clients[0].Jobs.SleepFraction = 1.5 },
		func(s *Spec) { s.Clients[0].Jobs.OptInFraction = -0.5 },
		func(s *Spec) { s.Clients[0].Jobs.Work = Dist{} },
		func(s *Spec) { s.Clients[1].Jobs.Sleep = Dist{} },
		func(s *Spec) { s.Clients[0].Jobs.Partitions[0].Name = "gone" },
		func(s *Spec) { s.Clients[0].Jobs.Partitions[0].Weight = 0 },
		func(s *Spec) { s.Clients[0].Jobs.Work.Kind = "zipf" },
	}
	for i, m := range mutate {
		spec := testSpec()
		m(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("mutation %d: Validate() = nil, want error", i)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}

	// A misspelled key is rejected, not decoded as its zero value (a
	// lost max_submissions would make the run unbounded).
	base := testSpec()
	base.MaxSubmissions = 100
	base.Clients[0].Jobs.DeferrableFraction = 0.5
	base.Clients[0].Jobs.DeadlineSlack = Dist{Kind: DistConstant, Value: 600}
	doc, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec(doc); err != nil {
		t.Fatalf("baseline spec does not parse: %v", err)
	}
	for _, key := range []string{`"max_submissions"`, `"deferrable_fraction"`, `"max_time"`} {
		typo := strings.Replace(string(doc), key, key[:len(key)-1]+`s"`, 1)
		if typo == string(doc) {
			t.Fatalf("%s not in the baseline document", key)
		}
		if _, err := ParseSpec([]byte(typo)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("misspelled %s: err = %v, want an unknown-field error", key, err)
		}
	}
	if _, err := ParseSpec(append(doc, []byte(" {}")...)); err == nil {
		t.Error("trailing data after the spec accepted")
	}
}
