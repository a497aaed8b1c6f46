package repository

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
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

// TestShortBatchWriteStoresNothing stops a SaveBenchmarks write after
// one whole row and half of the next. The repository must report the
// failure and list only the rows saved before it; its next batch must
// land; and a reopen must load exactly the rows it listed.
func TestShortBatchWriteStoresNothing(t *testing.T) {
	impls := []struct {
		name, file string
		open       func(dir string) (Repository, error)
	}{
		{"filedb", "benchmarks.log", func(dir string) (Repository, error) { return OpenDB(dir) }},
		{"csv", "benchmarks.csv", func(dir string) (Repository, error) { return OpenCSV(dir) }},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := impl.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			sysID, err := r.SaveSystem(sampleSystem())
			if err != nil {
				t.Fatal(err)
			}
			batch := func(first, n int) []Benchmark {
				bs := make([]Benchmark, n)
				for i := range bs {
					bs[i] = Benchmark{
						SystemID: sysID, AppHash: "hpcg", Cores: 16, FreqKHz: 2_200_000, ThreadsPerCore: 1,
						GFLOPS: float64(10 + first + i), Created: epoch, TraceKey: "traces/run1/x.csv",
					}
				}
				return bs
			}
			path := filepath.Join(dir, impl.file)
			size := func() int64 {
				st, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				return st.Size()
			}
			save := func(bs []Benchmark) {
				if _, err := r.SaveBenchmarks(bs); err != nil {
					t.Fatal(err)
				}
			}
			save(batch(0, 1))
			before := size()
			save(batch(1, 1))
			row := size() - before // every row of batch() encodes to the same length

			restore := limitFileSize(t, size()+row*3/2)
			_, err = r.SaveBenchmarks(batch(2, 3))
			restore()
			if !errors.Is(err, syscall.EFBIG) {
				t.Fatalf("err = %v, want the write stopped by the file-size limit", err)
			}
			gflops := func(r Repository) []float64 {
				rows, err := r.ListBenchmarks(sysID, "")
				if err != nil {
					t.Fatal(err)
				}
				out := make([]float64, len(rows))
				for i, b := range rows {
					out[i] = b.GFLOPS
				}
				return out
			}
			if got := gflops(r); len(got) != 2 {
				t.Fatalf("after the failed batch the repository lists %v, want the two rows saved before it", got)
			}
			save(batch(5, 1))
			listed := gflops(r)
			if len(listed) != 3 || listed[2] != 15 {
				t.Fatalf("after the next batch the repository lists %v", listed)
			}
			r.Close()

			r2, err := impl.open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer r2.Close()
			if got := gflops(r2); !slices.Equal(got, listed) {
				t.Fatalf("reopen loads %v, the repository listed %v", got, listed)
			}
		})
	}
}
