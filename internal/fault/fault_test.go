package fault

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecosched/internal/blob"
	"ecosched/internal/metrics"
	"ecosched/internal/repository"
	"ecosched/internal/settings"
	"ecosched/internal/simclock"
	"ecosched/internal/telemetry"
	"ecosched/internal/trace"
)

func TestRuleMatching(t *testing.T) {
	cases := []struct {
		pattern, op string
		want        bool
	}{
		{"blob.get", "blob.get", true},
		{"blob.get", "blob.put", false},
		{"repo.*", "repo.save_benchmarks", true},
		{"repo.*", "blob.get", false},
		{"*", "anything.at_all", true},
	}
	for _, c := range cases {
		r := Rule{Op: c.pattern}
		if got := r.matches(c.op); got != c.want {
			t.Errorf("Rule{Op: %q}.matches(%q) = %v, want %v", c.pattern, c.op, got, c.want)
		}
	}
}

func TestFullRateAlwaysFires(t *testing.T) {
	inj := New(1)
	inj.Use(Rule{Op: OpBlobGet, Mode: ModeError})
	for i := 0; i < 10; i++ {
		if err := inj.Fail(OpBlobGet); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := inj.Fail(OpBlobPut); err != nil {
		t.Fatalf("unmatched op faulted: %v", err)
	}
}

func TestAfterAndTimes(t *testing.T) {
	inj := New(1)
	inj.Use(Rule{Op: OpRepoSaveBenchmarks, Mode: ModeError, After: 2, Times: 1})
	var errs []error
	for i := 0; i < 5; i++ {
		errs = append(errs, inj.Fail(OpRepoSaveBenchmarks))
	}
	for i, err := range errs {
		want := i == 2 // calls 1 and 2 skipped, fault on 3, exhausted after
		if (err != nil) != want {
			t.Fatalf("call %d: err = %v, want fault=%v", i+1, err, want)
		}
	}
}

// TestDeterministicSchedule: the same seed yields the same fault
// schedule; a different seed yields a different one.
func TestDeterministicSchedule(t *testing.T) {
	schedule := func(seed uint64) []bool {
		inj := New(seed)
		inj.Use(Rule{Op: OpBlobGet, Mode: ModeError, Rate: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.Fail(OpBlobGet) != nil
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := schedule(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-call schedules")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rate 0.5 fired %d/%d times", fired, len(a))
	}
}

// TestInterleavingIndependence: a rule's schedule for one operation
// does not depend on calls to other operations — the property that
// keeps chaos runs reproducible under parallel sweeps.
func TestInterleavingIndependence(t *testing.T) {
	run := func(noise int) []bool {
		inj := New(3)
		inj.Use(
			Rule{Op: OpBlobGet, Mode: ModeError, Rate: 0.5},
			Rule{Op: OpRepoListSystems, Mode: ModeError, Rate: 0.5},
		)
		out := make([]bool, 32)
		for i := range out {
			for j := 0; j < noise; j++ {
				inj.Fail(OpRepoListSystems)
			}
			out[i] = inj.Fail(OpBlobGet) != nil
		}
		return out
	}
	quiet, noisy := run(0), run(5)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("blob.get schedule changed with interleaved repo calls (call %d)", i)
		}
	}
}

// TestUseVisibleToLockFreeCalls: calls made with no rule installed skip
// the injector's lock, so Use and Reset run here against concurrent Fail
// and ReadBytes callers (run it under -race). The first call after Use
// returns fires the new rule, the first after Reset passes through, and
// the pass-through calls counted nothing: After still skips exactly the
// first matching call made once a rule exists.
func TestUseVisibleToLockFreeCalls(t *testing.T) {
	inj := New(1)
	data := []byte("cpu MHz : 2200.000\n")
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				inj.Fail(OpSettingsLoad)
				inj.ReadBytes(OpProcRead, data)
			}
		}()
	}
	for round := range 200 {
		inj.Use(Rule{Op: OpSettingsLoad, Mode: ModeError}, Rule{Op: OpProcRead, Mode: ModePartial})
		if err := inj.Fail(OpSettingsLoad); !errors.Is(err, ErrInjected) {
			t.Fatalf("round %d: Fail after Use = %v, want ErrInjected", round, err)
		}
		if got, err := inj.ReadBytes(OpProcRead, data); err != nil || len(got) >= len(data) {
			t.Fatalf("round %d: ReadBytes after Use kept %d of %d bytes (err %v)", round, len(got), len(data), err)
		}
		inj.Reset()
		if err := inj.Fail(OpSettingsLoad); err != nil {
			t.Fatalf("round %d: Fail after Reset = %v", round, err)
		}
		if got, err := inj.ReadBytes(OpProcRead, data); err != nil || len(got) != len(data) {
			t.Fatalf("round %d: ReadBytes after Reset kept %d of %d bytes (err %v)", round, len(got), len(data), err)
		}
	}
	stop.Store(true)
	wg.Wait()

	quiet := New(1)
	for range 5 {
		quiet.Fail(OpBlobGet)
	}
	quiet.Use(Rule{Op: OpBlobGet, Mode: ModeError, After: 1})
	if err := quiet.Fail(OpBlobGet); err != nil {
		t.Fatalf("call 1 after Use faulted: %v", err)
	}
	if err := quiet.Fail(OpBlobGet); err == nil || !strings.Contains(err.Error(), "(call 2)") {
		t.Fatalf("call 2 after Use = %v, want the injected failure on call 2", err)
	}
}

func TestLatencyThroughSleepHook(t *testing.T) {
	var slept time.Duration
	inj := New(1, WithSleep(func(d time.Duration) { slept += d }))
	inj.Use(Rule{Op: OpBlobGet, Mode: ModeLatency, Latency: 7 * time.Millisecond})
	if err := inj.Fail(OpBlobGet); err != nil {
		t.Fatalf("latency fault returned error: %v", err)
	}
	if slept != 7*time.Millisecond {
		t.Fatalf("slept %v, want 7ms", slept)
	}
}

func TestPartialReadTruncates(t *testing.T) {
	inj := New(1)
	inj.Use(Rule{Op: OpBlobGet, Mode: ModePartial, Fraction: 0.25})
	data := make([]byte, 100)
	got, err := inj.ReadBytes(OpBlobGet, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 25 {
		t.Fatalf("partial read kept %d bytes, want 25", len(got))
	}
	// Fraction 1 still must truncate at least one byte, or the "fault"
	// would be a no-op.
	inj2 := New(1)
	inj2.Use(Rule{Op: OpBlobGet, Mode: ModePartial, Fraction: 1})
	got, err = inj2.ReadBytes(OpBlobGet, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(data) {
		t.Fatalf("partial read with frac=1 kept everything (%d bytes)", len(got))
	}
}

func TestTornWriteKeepsPrefixAndFails(t *testing.T) {
	inj := New(1)
	inj.Use(Rule{Op: OpBlobPut, Mode: ModeTorn, Fraction: 0.5})
	data := []byte("0123456789")
	kept, err := inj.WriteBytes(OpBlobPut, data)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write err = %v, want ErrInjected", err)
	}
	if string(kept) != "01234" {
		t.Fatalf("torn write kept %q", kept)
	}
}

func TestPartitionTornBatch(t *testing.T) {
	inj := New(1)
	inj.Use(Rule{Op: OpRepoSaveBenchmarks, Mode: ModeTorn, Fraction: 0.5})
	keep, err := inj.Partition(OpRepoSaveBenchmarks, 8)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if keep != 4 {
		t.Fatalf("keep = %d, want 4", keep)
	}
}

func TestInjectorObservability(t *testing.T) {
	reg := metrics.New()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := trace.OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tr := trace.New(j, trace.WithClock(simclock.New().Now))
	defer tr.Close()
	inj := New(1, WithMetrics(reg), WithTracer(tr))
	inj.Use(Rule{Op: OpSettingsLoad, Mode: ModeError})
	inj.Fail(OpSettingsLoad)
	inj.Fail(OpSettingsLoad)
	if got := reg.Counter("chronus.fault.injected." + OpSettingsLoad).Value(); got != 2 {
		t.Fatalf("injected counter = %d, want 2", got)
	}
	tr.Drain()
	events, err := trace.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("trace events = %+v", events)
	}
	for n, e := range events {
		want := map[string]string{"op": OpSettingsLoad, "mode": string(ModeError), "call": fmt.Sprint(n + 1)}
		if e.Name != eventFaultInjected || !reflect.DeepEqual(e.Attrs, want) {
			t.Fatalf("event %d = %+v, want %s with %v", n, e, eventFaultInjected, want)
		}
	}
}

func TestNilInjectorPassesThrough(t *testing.T) {
	var inj *Injector
	if err := inj.Fail(OpBlobGet); err != nil {
		t.Fatal(err)
	}
	data, err := inj.ReadBytes(OpBlobGet, []byte("abc"))
	if err != nil || string(data) != "abc" {
		t.Fatalf("ReadBytes = %q, %v", data, err)
	}
	if n, err := inj.Partition(OpRepoSaveBenchmarks, 3); n != 3 || err != nil {
		t.Fatalf("Partition = %d, %v", n, err)
	}
	inj.Use(Rule{Op: "*"})
	inj.Reset()
}

func TestParsePlan(t *testing.T) {
	rules, err := ParsePlan("*:error; blob.get:partial:frac=0.25 ; repo.*:latency:lat=5ms:rate=0.5:after=1:times=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules", len(rules))
	}
	if rules[0].Op != "*" || rules[0].Mode != ModeError {
		t.Fatalf("rule 0: %+v", rules[0])
	}
	if rules[1].Fraction != 0.25 || rules[1].Mode != ModePartial {
		t.Fatalf("rule 1: %+v", rules[1])
	}
	r := rules[2]
	if r.Latency != 5*time.Millisecond || r.Rate != 0.5 || r.After != 1 || r.Times != 3 {
		t.Fatalf("rule 2: %+v", r)
	}

	// Bare float is rate shorthand.
	rules, err = ParsePlan("blob.get:error:0.3")
	if err != nil || rules[0].Rate != 0.3 {
		t.Fatalf("shorthand: %+v, %v", rules, err)
	}

	for _, bad := range []string{
		"", "blob.get", "blob.get:explode", "blob.get:error:rate=2",
		"blob.get:latency", "blob.get:error:nonsense", "blob.get:error:depth=3",
		"repo.close:error", "sysinfo.collect:error", "blob.gett:error", "blob*:error",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestOpsListsEveryOp: ParsePlan accepts exactly the declared Op*
// constants, so a constant added without its ops entry would be an
// operation no -fault plan can name.
func TestOpsListsEveryOp(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "fault.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Op") {
					continue
				}
				declared++
				op, _ := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
				if !slices.Contains(ops[:], op) {
					t.Errorf("%s = %q is missing from ops", name.Name, op)
				}
			}
		}
	}
	if declared != len(ops) {
		t.Errorf("%d Op constants, %d ops entries", declared, len(ops))
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	specs := []string{
		"blob.get:error:rate=0.3",
		"repo.save_benchmarks:torn:times=1:frac=0.25",
		"repo.*:latency:after=2:lat=5ms",
	}
	for _, s := range specs {
		rules, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := rules[0].String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestRepositoryDecorator(t *testing.T) {
	dir := t.TempDir()
	inner, err := repository.OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	inj := New(1)
	repo := Repository(inner, inj)

	// Healthy pass-through first.
	id, err := repo.SaveSystem(repository.System{Key: "sys"})
	if err != nil {
		t.Fatal(err)
	}
	rows := []repository.Benchmark{{SystemID: id}, {SystemID: id}, {SystemID: id}, {SystemID: id}}
	if _, err := repo.SaveBenchmarks(rows); err != nil {
		t.Fatal(err)
	}

	// Torn batch: half the rows land, then the write fails.
	inj.Use(Rule{Op: OpRepoSaveBenchmarks, Mode: ModeTorn, Fraction: 0.5})
	if _, err := repo.SaveBenchmarks(rows); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn batch err = %v", err)
	}
	persisted, err := inner.ListBenchmarks(id, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) != 6 { // 4 healthy + 2 of the torn batch
		t.Fatalf("persisted %d rows, want 6", len(persisted))
	}

	inj.Reset()
	inj.Use(Rule{Op: "repo.*", Mode: ModeError})
	if _, err := repo.ListSystems(); !errors.Is(err, ErrInjected) {
		t.Fatalf("ListSystems err = %v", err)
	}
	if _, err := repo.SaveRun(repository.Run{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("SaveRun err = %v", err)
	}
	// Close must always reach the inner store.
	if err := repo.Close(); err != nil {
		t.Fatalf("Close under total fault: %v", err)
	}
}

func TestBlobDecorator(t *testing.T) {
	inner := blob.NewMemory()
	inj := New(1)
	store := Blob(inner, inj)
	if err := store.Put("k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}

	inj.Use(Rule{Op: OpBlobGet, Mode: ModePartial, Fraction: 0.5})
	data, err := store.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "01234" {
		t.Fatalf("partial Get = %q", data)
	}

	inj.Reset()
	inj.Use(Rule{Op: OpBlobPut, Mode: ModeTorn, Fraction: 0.3})
	if err := store.Put("torn", []byte("0123456789")); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn Put err = %v", err)
	}
	kept, err := inner.Get("torn")
	if err != nil {
		t.Fatal(err)
	}
	if string(kept) != "012" {
		t.Fatalf("torn Put persisted %q", kept)
	}
}

// TestBlobDecoratorPutRetainsNothing holds the decorator to the
// blob.Store Put contract over both stores, a torn Put included: once
// Put returns, overwriting the caller's slice changes nothing stored.
func TestBlobDecoratorPutRetainsNothing(t *testing.T) {
	dir, err := blob.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, inner := range map[string]blob.Store{"dir": dir, "memory": blob.NewMemory()} {
		inj := New(1)
		store := Blob(inner, inj)
		data := []byte("0123456789")
		if err := store.Put("whole", data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		copy(data, "XXXXXXXXXX")
		inj.Use(Rule{Op: OpBlobPut, Mode: ModeTorn, Fraction: 0.3})
		data = []byte("0123456789")
		if err := store.Put("torn", data); !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: torn Put err = %v", name, err)
		}
		copy(data, "XXXXXXXXXX")
		for key, want := range map[string]string{"whole": "0123456789", "torn": "012"} {
			got, err := store.Get(key)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if string(got) != want {
				t.Fatalf("%s: Get(%q) after the caller reused its buffer = %q, want %q", name, key, got, want)
			}
		}
	}
}

func TestSettingsAndSysInfoDecorators(t *testing.T) {
	inj := New(1)
	inj.Use(Rule{Op: "settings.*", Mode: ModeError})
	st := Settings(settings.NewMemStore(), inj)
	if _, err := st.Load(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Load err = %v", err)
	}
	if err := st.Save(settings.Defaults()); !errors.Is(err, ErrInjected) {
		t.Fatalf("Save err = %v", err)
	}
}

func TestReadFileDecorator(t *testing.T) {
	inj := New(1)
	inj.Use(Rule{Op: OpModelRead, Mode: ModePartial, Fraction: 0.5})
	read := ReadFile(func(string) ([]byte, error) { return []byte(`{"valid":"json"}`), nil }, inj)
	data, err := read("/opt/chronus/optimizer/model-1.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8 {
		t.Fatalf("torn model read kept %d bytes", len(data))
	}
}

func TestSystemDecoratorDropsSampling(t *testing.T) {
	inj := New(1)
	inj.Use(Rule{Op: OpIPMISample, Mode: ModeError})
	sys := System(stubSampler{}, inj)
	stop := sys.StartSampling(time.Second)
	if tr := stop(); tr.Len() != 0 {
		t.Fatalf("faulted sampler returned %d samples", tr.Len())
	}
}

type stubSampler struct{}

func (stubSampler) StartSampling(time.Duration) func() *telemetry.Trace {
	return func() *telemetry.Trace {
		return &telemetry.Trace{Samples: []telemetry.Sample{{}}}
	}
}
