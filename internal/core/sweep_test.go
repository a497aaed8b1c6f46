package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecosched/internal/leakcheck"
	"ecosched/internal/perfmodel"
	"ecosched/internal/repository"
	"ecosched/internal/telemetry"
)

// samplerLedger counts sampler starts and stops across every node a
// pooled sweep provisions, so tests can prove no sampler is left
// ticking — including after cancellations and worker panics.
type samplerLedger struct {
	started, stopped atomic.Int64
}

func (l *samplerLedger) wrap(s SystemService) SystemService {
	return &ledgeredSystem{inner: s, ledger: l}
}

type ledgeredSystem struct {
	inner  SystemService
	ledger *samplerLedger
}

func (s *ledgeredSystem) StartSampling(interval time.Duration) func() *telemetry.Trace {
	s.ledger.started.Add(1)
	stop := s.inner.StartSampling(interval)
	var done atomic.Bool
	return func() *telemetry.Trace {
		if done.CompareAndSwap(false, true) {
			s.ledger.stopped.Add(1)
		}
		return stop()
	}
}

func sweepConfigs() []perfmodel.Config {
	return []perfmodel.Config{
		cfg3(32, 2.5, 1), cfg3(32, 2.2, 1), cfg3(32, 1.5, 1),
		cfg3(30, 2.2, 1), cfg3(28, 2.2, 1), cfg3(16, 2.2, 1),
		cfg3(32, 2.2, 2), cfg3(16, 2.5, 2),
	}
}

// listSweepRows returns the persisted benchmark rows of the rig's only
// system, in id order.
func listSweepRows(t *testing.T, r *rig) []repository.Benchmark {
	t.Helper()
	systems, err := r.repo.ListSystems()
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) == 0 {
		return nil
	}
	rows, err := r.repo.ListBenchmarks(systems[0].ID, "")
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// requireContiguousPrefix asserts the persisted rows are exactly the
// sweep's configurations 0..len(rows)-1, in order, with consecutive
// ids — the pool's durability contract.
func requireContiguousPrefix(t *testing.T, rows []repository.Benchmark, configs []perfmodel.Config) {
	t.Helper()
	if len(rows) > len(configs) {
		t.Fatalf("%d rows persisted for a %d-config sweep", len(rows), len(configs))
	}
	for i, row := range rows {
		got := perfmodel.Config{Cores: row.Cores, FreqKHz: row.FreqKHz, ThreadsPerCore: row.ThreadsPerCore}
		if got != configs[i] {
			t.Fatalf("row %d is %v, want sweep config %v — prefix out of order", i, got, configs[i])
		}
		if i > 0 && row.ID != rows[i-1].ID+1 {
			t.Fatalf("row ids not consecutive: %d then %d", rows[i-1].ID, row.ID)
		}
	}
}

// TestPooledSweepDeterministicAcrossParallelism is the determinism
// guarantee: the same sweep at parallelism 1 and 4 persists
// byte-identical rows (ids, measurements, timestamps) and identical
// trace blobs.
func TestPooledSweepDeterministicAcrossParallelism(t *testing.T) {
	defer leakcheck.Check(t)()
	configs := sweepConfigs()
	r1 := newPooledRig(t, 1, nil, nil)
	r4 := newPooledRig(t, 4, nil, nil)
	if _, err := r1.chronus.Benchmark.Run(configs, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := r4.chronus.Benchmark.Run(configs, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	rows1 := listSweepRows(t, r1)
	rows4 := listSweepRows(t, r4)
	if len(rows1) != len(configs) || len(rows4) != len(configs) {
		t.Fatalf("row counts %d / %d, want %d", len(rows1), len(rows4), len(configs))
	}
	for i := range rows1 {
		if rows1[i] != rows4[i] {
			t.Fatalf("row %d differs across parallelism:\n  p=1: %+v\n  p=4: %+v", i, rows1[i], rows4[i])
		}
		b1, err := r1.blob.Get(rows1[i].TraceKey)
		if err != nil {
			t.Fatal(err)
		}
		b4, err := r4.blob.Get(rows4[i].TraceKey)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b4) {
			t.Fatalf("trace blob %q differs across parallelism", rows1[i].TraceKey)
		}
	}
}

// TestReusedSampleSlabLeaksNothing: one worker measures a long
// configuration (1 core at the lowest frequency — the longest trace of
// the sweep) and then a short one on the slab the long one grew. The
// short one's row and CSV must be what measuring it alone gives, at
// the same configuration index: the slab is capacity, never content.
func TestReusedSampleSlabLeaksNothing(t *testing.T) {
	long, short := cfg3(1, 1.5, 1), cfg3(32, 2.5, 1)
	measure := func(r *rig, idx int, cfg perfmodel.Config) measured {
		t.Helper()
		m := r.chronus.Benchmark.measureConfig(context.Background(), idx, 1, 1, "app", cfg, 3*time.Second)
		if m.err != nil {
			t.Fatal(m.err)
		}
		return m
	}

	alone := measure(newRig(t), 1, short)

	r := newRig(t)
	first := measure(r, 0, long)
	if len(r.slabs.free) != 1 {
		t.Fatalf("%d slabs handed back after one measurement, want 1", len(r.slabs.free))
	}
	slab := r.slabs.free[0]
	longSamples := strings.Count(string(first.traceCSV), "\n") - 1
	if len(slab) != 0 || cap(slab) < longSamples {
		t.Fatalf("slab handed back with len %d cap %d after a %d-sample trace", len(slab), cap(slab), longSamples)
	}
	after := measure(r, 1, short)
	if len(r.slabs.free) != 1 || &r.slabs.free[0][:1][0] != &slab[:1][0] {
		t.Fatal("the short configuration did not run on the long one's slab")
	}

	if after.row != alone.row {
		t.Fatalf("row differs after slab reuse:\n  alone: %+v\n  after: %+v", alone.row, after.row)
	}
	if string(after.traceCSV) != string(alone.traceCSV) {
		t.Fatalf("trace CSV differs after slab reuse: %d bytes alone, %d after", len(alone.traceCSV), len(after.traceCSV))
	}
	if shortSamples := strings.Count(string(after.traceCSV), "\n") - 1; shortSamples >= longSamples {
		t.Fatalf("short trace has %d samples, long %d: the test does not cover stale samples past the end", shortSamples, longSamples)
	}
}

// TestSweepRowsSameThroughEitherRig pins that there is one sweep
// engine: the default rig every other core test uses and an explicit
// parallelism-1 pooled rig persist identical rows.
func TestSweepRowsSameThroughEitherRig(t *testing.T) {
	configs := sweepConfigs()
	plain := newRig(t)
	pooled := newPooledRig(t, 1, nil, nil)
	for _, r := range []*rig{plain, pooled} {
		if _, err := r.chronus.Benchmark.Run(configs, 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	a, b := listSweepRows(t, plain), listSweepRows(t, pooled)
	if len(a) != len(configs) || len(b) != len(configs) {
		t.Fatalf("row counts %d / %d, want %d", len(a), len(b), len(configs))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between rigs:\n  newRig:       %+v\n  newPooledRig: %+v", i, a[i], b[i])
		}
	}
}

// TestPooledSweepCancellation cancels the sweep midway: the call must
// return ctx.Err(), the persisted rows must be a contiguous prefix of
// the sweep, and every sampler that started must have been stopped.
func TestPooledSweepCancellation(t *testing.T) {
	configs := sweepConfigs()
	ledger := &samplerLedger{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := newPooledRig(t, 4, ledger, func(idx int) error {
		if idx == 3 {
			cancel()
		}
		return nil
	})
	_, err := r.chronus.Benchmark.RunContext(ctx, configs, 3*time.Second)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	rows := listSweepRows(t, r)
	if len(rows) == len(configs) {
		t.Fatal("cancellation measured the whole sweep")
	}
	requireContiguousPrefix(t, rows, configs)
	if s, e := ledger.started.Load(), ledger.stopped.Load(); s != e {
		t.Fatalf("%d samplers started but %d stopped — sampler leaked past cancellation", s, e)
	}
}

// TestPooledSweepWorkerPanic injects a panic into one worker: the pool
// must not deadlock, the panic must come back as an error naming the
// configuration, rows below the panicking index must persist, and no
// sampler may be left running.
func TestPooledSweepWorkerPanic(t *testing.T) {
	configs := sweepConfigs()
	ledger := &samplerLedger{}
	r := newPooledRig(t, 4, ledger, func(idx int) error {
		if idx == 2 {
			panic("injected provisioning panic")
		}
		return nil
	})
	_, err := r.chronus.Benchmark.Run(configs, 3*time.Second)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic converted to error", err)
	}
	rows := listSweepRows(t, r)
	requireContiguousPrefix(t, rows, configs)
	if len(rows) > 2 {
		t.Fatalf("%d rows persisted past the panicking configuration", len(rows))
	}
	if s, e := ledger.started.Load(), ledger.stopped.Load(); s != e {
		t.Fatalf("%d samplers started but %d stopped after a worker panic", s, e)
	}
}

// TestPooledSweepLowestErrorWins fails two configurations; the error
// reported must belong to the lowest sweep index, exactly as the
// serial loop would have reported it.
func TestPooledSweepLowestErrorWins(t *testing.T) {
	configs := sweepConfigs()
	r := newPooledRig(t, 4, nil, func(idx int) error {
		if idx == 2 || idx == 5 {
			return fmt.Errorf("node %d failed to boot", idx)
		}
		return nil
	})
	_, err := r.chronus.Benchmark.Run(configs, 3*time.Second)
	if err == nil || !strings.Contains(err.Error(), "node 2 failed to boot") {
		t.Fatalf("err = %v, want the lowest-index failure (node 2)", err)
	}
	rows := listSweepRows(t, r)
	requireContiguousPrefix(t, rows, configs)
	if len(rows) > 2 {
		t.Fatalf("%d rows persisted past the first failing configuration", len(rows))
	}
}

// TestPooledSweepInvalidConfigTruncates matches the serial loop's
// behaviour: an invalid configuration mid-list stops the sweep there,
// keeps the rows before it and returns the validation error.
func TestPooledSweepInvalidConfigTruncates(t *testing.T) {
	configs := sweepConfigs()[:4]
	configs[2] = cfg3(64, 2.5, 1) // more cores than the system has
	r := newPooledRig(t, 4, nil, nil)
	_, err := r.chronus.Benchmark.Run(configs, 3*time.Second)
	if err == nil {
		t.Fatal("invalid configuration accepted")
	}
	rows := listSweepRows(t, r)
	requireContiguousPrefix(t, rows, configs)
	if len(rows) != 2 {
		t.Fatalf("%d rows persisted, want the 2 before the invalid configuration", len(rows))
	}
}

// TestPooledSweepRaceStress drives the pool wide (parallelism 8) over
// a larger sweep; its real value is under `go test -race`.
func TestPooledSweepRaceStress(t *testing.T) {
	var configs []perfmodel.Config
	for cores := 17; cores <= 32; cores++ {
		configs = append(configs, cfg3(cores, 2.2, 1))
	}
	ledger := &samplerLedger{}
	r := newPooledRig(t, 8, ledger, nil)
	if _, err := r.chronus.Benchmark.Run(configs, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	rows := listSweepRows(t, r)
	if len(rows) != len(configs) {
		t.Fatalf("%d rows, want %d", len(rows), len(configs))
	}
	requireContiguousPrefix(t, rows, configs)
	if s, e := ledger.started.Load(), ledger.stopped.Load(); s != int64(len(configs)) || e != int64(len(configs)) {
		t.Fatalf("samplers started/stopped = %d/%d, want %d/%d", s, e, len(configs), len(configs))
	}
}
