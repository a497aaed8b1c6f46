package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"ecosched/internal/repository"
)

// limitFileSize lowers the process's file-size limit to n bytes and
// returns the function that restores it. A write past the limit stops
// short with EFBIG (the Go runtime ignores SIGXFSZ), the way a full
// disk stops one with ENOSPC.
func limitFileSize(t *testing.T, n int64) (restore func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lim := old
	lim.Cur = uint64(n)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	return func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatalf("restoring the file-size limit: %v", err)
		}
	}
}

// shortWriteRepo stops the benchmark-log write of the first batch of
// two rows or more after the batch's first record.
type shortWriteRepo struct {
	repository.Repository
	t    *testing.T
	log  string // path of the filedb table SaveBenchmarks appends to
	done bool
}

func (r *shortWriteRepo) SaveBenchmarks(rows []repository.Benchmark) ([]int64, error) {
	if r.done || len(rows) < 2 {
		return r.Repository.SaveBenchmarks(rows)
	}
	r.done = true
	st, err := os.Stat(r.log)
	if err != nil {
		return nil, err
	}
	// A record is its row's JSON plus an 8-byte header and a wrapper
	// of under 40 bytes; every row of a sweep encodes to hundreds.
	first, err := json.Marshal(rows[0])
	if err != nil {
		return nil, err
	}
	defer limitFileSize(r.t, st.Size()+int64(len(first))+60)()
	return r.Repository.SaveBenchmarks(rows)
}

// TestPooledSweepShortWriteKeepsTracesMatchingRows stops a sweep's
// batch write partway through the benchmark log, after one whole
// record, as a full disk would. The sweep must fail with the write's
// error, and after a reopen a trace blob must exist exactly for the
// rows the repository loads: the blob of a row that reached the disk
// must not be deleted.
func TestPooledSweepShortWriteKeepsTracesMatchingRows(t *testing.T) {
	configs := sweepConfigs()
	// Measure configuration 0 after all the others, so the results
	// wait behind it and commit in batches of several rows.
	ledger := &samplerLedger{}
	others := int64(len(configs) - 1)
	r := newPooledRig(t, 3, ledger, func(idx int) error {
		for idx == 0 && ledger.stopped.Load() < others {
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	dir := t.TempDir()
	repo, err := repository.OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	deps := r.chronus.deps
	deps.Repo = &shortWriteRepo{Repository: repo, t: t, log: filepath.Join(dir, "benchmarks.log")}
	if r.chronus, err = New(deps); err != nil {
		t.Fatal(err)
	}

	_, err = r.chronus.Benchmark.Run(configs, 3*time.Second)
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("err = %v, want the batch write stopped by the file-size limit", err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	if r.repo, err = repository.OpenDB(dir); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { r.repo.Close() })
	rows := listSweepRows(t, r)
	requireContiguousPrefix(t, rows, configs)
	requireTracesMatchRows(t, r, rows)
	if s, e := ledger.started.Load(), ledger.stopped.Load(); s != e {
		t.Fatalf("%d samplers started but %d stopped", s, e)
	}
}
