package core

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ecosched/internal/fault"
	"ecosched/internal/leakcheck"
	"ecosched/internal/perfmodel"
	"ecosched/internal/repository"
)

// withSweepFaults rebuilds the rig's Chronus with its repository and
// blob store wrapped in fault decorators, keeping the rig's raw repo
// handle for assertions against what actually persisted.
func withSweepFaults(t *testing.T, r *rig, inj *fault.Injector) {
	t.Helper()
	deps := r.chronus.deps
	deps.Repo = fault.Repository(deps.Repo, inj)
	deps.Blob = fault.Blob(deps.Blob, inj)
	c, err := New(deps)
	if err != nil {
		t.Fatal(err)
	}
	r.chronus = c
}

// requireTracesMatchRows asserts that a trace blob exists exactly for
// the persisted rows: a failed commit leaves no blob without its row
// and no row without its blob.
func requireTracesMatchRows(t *testing.T, r *rig, rows []repository.Benchmark) {
	t.Helper()
	keys, err := r.blob.List()
	if err != nil {
		t.Fatal(err)
	}
	var traces []string
	for _, k := range keys {
		if strings.HasPrefix(k, "traces/") {
			traces = append(traces, k)
		}
	}
	want := make([]string, len(rows))
	for i, row := range rows {
		want[i] = row.TraceKey
	}
	sort.Strings(want)
	if !slices.Equal(traces, want) {
		t.Fatalf("trace blobs %q, want exactly the persisted rows' %q", traces, want)
	}
}

// TestPooledSweepTornBatchFault tears a repository batch write in
// half mid-sweep: the sweep must report the failure, the persisted
// rows must still be a contiguous prefix of the sweep order, and no
// sampler may be left running.
func TestPooledSweepTornBatchFault(t *testing.T) {
	configs := sweepConfigs()
	ledger := &samplerLedger{}
	r := newPooledRig(t, 4, ledger, nil)
	inj := fault.New(11)
	withSweepFaults(t, r, inj)
	inj.Use(fault.Rule{Op: fault.OpRepoSaveBenchmarks, Mode: fault.ModeTorn, Fraction: 0.5, Times: 1})

	_, err := r.chronus.Benchmark.Run(configs, 3*time.Second)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected torn-batch fault", err)
	}
	rows := listSweepRows(t, r)
	if len(rows) == len(configs) {
		t.Fatal("torn batch persisted the whole sweep")
	}
	requireContiguousPrefix(t, rows, configs)
	requireTracesMatchRows(t, r, rows)
	if s, e := ledger.started.Load(), ledger.stopped.Load(); s != e {
		t.Fatalf("%d samplers started but %d stopped", s, e)
	}
}

// TestPooledSweepSaveErrorMidSweep fails the second batch write
// outright: rows committed before the fault survive as a contiguous
// prefix and nothing after the failure is persisted. It runs at
// parallelism 1 so the batch count is a property of the construction,
// not of goroutine timing: one worker hands results over in sweep
// order and the coordinator flushes on every arrival, so every batch
// is exactly one row and the second write is configuration 1.
func TestPooledSweepSaveErrorMidSweep(t *testing.T) {
	defer leakcheck.Check(t)()
	configs := sweepConfigs()
	ledger := &samplerLedger{}
	r := newPooledRig(t, 1, ledger, nil)
	inj := fault.New(11)
	withSweepFaults(t, r, inj)
	inj.Use(fault.Rule{Op: fault.OpRepoSaveBenchmarks, Mode: fault.ModeError, After: 1})

	_, err := r.chronus.Benchmark.Run(configs, 3*time.Second)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected save fault", err)
	}
	rows := listSweepRows(t, r)
	requireContiguousPrefix(t, rows, configs)
	if len(rows) != 1 {
		t.Fatalf("%d rows persisted, want exactly the one batch committed before the fault", len(rows))
	}
	requireTracesMatchRows(t, r, rows)
	if s, e := ledger.started.Load(), ledger.stopped.Load(); s != e {
		t.Fatalf("%d samplers started but %d stopped", s, e)
	}
}

// TestPooledSweepBlobFaultKeepsPrefix fails a trace-blob upload
// mid-sweep; the batch containing it must not commit, earlier batches
// must survive contiguously.
func TestPooledSweepBlobFaultKeepsPrefix(t *testing.T) {
	configs := sweepConfigs()
	r := newPooledRig(t, 4, &samplerLedger{}, nil)
	inj := fault.New(11)
	withSweepFaults(t, r, inj)
	inj.Use(fault.Rule{Op: fault.OpBlobPut, Mode: fault.ModeError, After: 2, Times: 1})

	_, err := r.chronus.Benchmark.Run(configs, 3*time.Second)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected blob fault", err)
	}
	rows := listSweepRows(t, r)
	requireContiguousPrefix(t, rows, configs)
	// Every persisted row's trace blob must exist intact — no row may
	// commit with its blob missing — and the blobs the failed batch
	// stored before the fault must be gone.
	for _, row := range rows {
		if _, err := r.blob.Get(row.TraceKey); err != nil {
			t.Fatalf("row %d persisted without its trace blob: %v", row.ID, err)
		}
	}
	requireTracesMatchRows(t, r, rows)
}

// TestPooledSweepDeterministicUnderLatencyFaults is the regression
// demanded by the chaos issue: identical sweep rows — and the same
// winning configuration — across parallelism 1, 4 and 8 even while
// latency faults (real wall-clock sleeps perturbing goroutine
// scheduling) hit node provisioning and every repository and blob
// access.
func TestPooledSweepDeterministicUnderLatencyFaults(t *testing.T) {
	const opProvision = "provision.node"
	configs := sweepConfigs()

	sweep := func(parallelism int) ([]repository.Benchmark, perfmodel.Config) {
		inj := fault.New(uint64(parallelism), fault.WithSleep(time.Sleep))
		r := newPooledRig(t, parallelism, nil, func(idx int) error {
			return inj.Fail(opProvision)
		})
		withSweepFaults(t, r, inj)
		inj.Use(
			fault.Rule{Op: opProvision, Mode: fault.ModeLatency, Latency: 2 * time.Millisecond, Rate: 0.6},
			fault.Rule{Op: "repo.*", Mode: fault.ModeLatency, Latency: time.Millisecond, Rate: 0.5},
			fault.Rule{Op: "blob.*", Mode: fault.ModeLatency, Latency: time.Millisecond, Rate: 0.5},
		)
		if _, err := r.chronus.Benchmark.Run(configs, 3*time.Second); err != nil {
			t.Fatal(err)
		}
		rows := listSweepRows(t, r)
		if len(rows) != len(configs) {
			t.Fatalf("parallelism %d persisted %d of %d rows", parallelism, len(rows), len(configs))
		}
		var winner perfmodel.Config
		best := -1.0
		for _, row := range rows {
			if eff := row.GFLOPS / row.AvgSystemW; eff > best {
				best = eff
				winner = perfmodel.Config{Cores: row.Cores, FreqKHz: row.FreqKHz, ThreadsPerCore: row.ThreadsPerCore}
			}
		}
		return rows, winner
	}

	rows1, win1 := sweep(1)
	for _, p := range []int{4, 8} {
		rows, win := sweep(p)
		if win != win1 {
			t.Fatalf("winner differs: p=1 %v, p=%d %v", win1, p, win)
		}
		for i := range rows1 {
			if rows[i] != rows1[i] {
				t.Fatalf("row %d differs under latency faults:\n  p=1: %+v\n  p=%d: %+v", i, rows1[i], p, rows[i])
			}
		}
	}
}
