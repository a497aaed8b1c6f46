package repository

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var epoch = time.Date(2023, 5, 10, 3, 0, 0, 0, time.UTC)

// forEachImpl runs a behavioural test against both Repository
// implementations — the paper's point is that they are interchangeable.
func forEachImpl(t *testing.T, test func(t *testing.T, open func(t *testing.T) Repository)) {
	t.Helper()
	t.Run("filedb", func(t *testing.T) {
		test(t, func(t *testing.T) Repository {
			r, err := OpenDB(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		})
	})
	t.Run("csv", func(t *testing.T) {
		test(t, func(t *testing.T) Repository {
			r, err := OpenCSV(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		})
	})
}

func sampleSystem() System {
	return System{
		Key:            "AMD EPYC 7502P 32-Core Processor/32c/2t/262144MB",
		CPUName:        "AMD EPYC 7502P 32-Core Processor",
		Cores:          32,
		ThreadsPerCore: 2,
		FrequenciesKHz: []int{1_500_000, 2_200_000, 2_500_000},
		RAMMB:          262144,
	}
}

func TestSystemRoundTrip(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		id, err := r.SaveSystem(sampleSystem())
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.GetSystem(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.CPUName != sampleSystem().CPUName || got.Cores != 32 {
			t.Fatalf("got %+v", got)
		}
		if len(got.FrequenciesKHz) != 3 || got.FrequenciesKHz[1] != 2_200_000 {
			t.Fatalf("frequencies lost: %v", got.FrequenciesKHz)
		}
	})
}

func TestSaveSystemIdempotentOnKey(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		id1, _ := r.SaveSystem(sampleSystem())
		id2, err := r.SaveSystem(sampleSystem())
		if err != nil {
			t.Fatal(err)
		}
		if id1 != id2 {
			t.Fatalf("duplicate key produced new id: %d vs %d", id1, id2)
		}
		systems, _ := r.ListSystems()
		if len(systems) != 1 {
			t.Fatalf("ListSystems = %d entries", len(systems))
		}
	})
}

func TestSystemKeyRequired(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		if _, err := r.SaveSystem(System{CPUName: "x"}); err == nil {
			t.Fatal("system without key accepted")
		}
	})
}

func TestFindSystemByKey(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		id, _ := r.SaveSystem(sampleSystem())
		got, ok, err := r.FindSystemByKey(sampleSystem().Key)
		if err != nil || !ok || got.ID != id {
			t.Fatalf("find: %+v %v %v", got, ok, err)
		}
		if _, ok, _ := r.FindSystemByKey("other"); ok {
			t.Fatal("found nonexistent key")
		}
	})
}

func TestGetSystemMissing(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		if _, err := r.GetSystem(42); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestBenchmarkFiltering(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		sysID, _ := r.SaveSystem(sampleSystem())
		other := sampleSystem()
		other.Key = "other-system"
		otherID, _ := r.SaveSystem(other)

		for i, spec := range []struct {
			sys  int64
			hash string
		}{{sysID, "hpcg"}, {sysID, "hpcg"}, {sysID, "lammps"}, {otherID, "hpcg"}} {
			_, err := r.SaveBenchmarks([]Benchmark{{
				SystemID: spec.sys, AppHash: spec.hash,
				Cores: 32, FreqKHz: 2_200_000, ThreadsPerCore: 1,
				GFLOPS: 9 + float64(i), AvgSystemW: 190, Created: epoch,
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
		all, _ := r.ListBenchmarks(sysID, "")
		if len(all) != 3 {
			t.Fatalf("system filter: %d rows", len(all))
		}
		hpcg, _ := r.ListBenchmarks(sysID, "hpcg")
		if len(hpcg) != 2 {
			t.Fatalf("app filter: %d rows", len(hpcg))
		}
		everything, _ := r.ListBenchmarks(0, "")
		if len(everything) != 4 {
			t.Fatalf("no filter: %d rows", len(everything))
		}
	})
}

func TestBenchmarkRequiresSystem(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		if _, err := r.SaveBenchmarks([]Benchmark{{AppHash: "x"}}); err == nil {
			t.Fatal("benchmark without system accepted")
		}
	})
}

func TestGFLOPSPerWatt(t *testing.T) {
	b := Benchmark{GFLOPS: 9.27, AvgSystemW: 190.1}
	if got := b.GFLOPSPerWatt(); got < 0.0487 || got > 0.0489 {
		t.Fatalf("GFLOPSPerWatt = %v", got)
	}
	if (Benchmark{GFLOPS: 9}).GFLOPSPerWatt() != 0 {
		t.Fatal("zero power should yield zero efficiency")
	}
}

func TestModelRoundTrip(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		sysID, _ := r.SaveSystem(sampleSystem())
		id, err := r.SaveModel(ModelMeta{
			SystemID: sysID, AppHash: "hpcg", Optimizer: "linear-regression",
			BlobKey: "optimizers/model-1.json", TrainRows: 138, Created: epoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.GetModel(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Optimizer != "linear-regression" || got.TrainRows != 138 {
			t.Fatalf("got %+v", got)
		}
		if !got.Created.Equal(epoch) {
			t.Fatalf("Created = %v, want %v", got.Created, epoch)
		}
		if _, err := r.GetModel(99); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing model err = %v", err)
		}
	})
}

func TestModelValidation(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		if _, err := r.SaveModel(ModelMeta{Optimizer: "x"}); err == nil {
			t.Fatal("model without blob key accepted")
		}
		if _, err := r.SaveModel(ModelMeta{BlobKey: "x"}); err == nil {
			t.Fatal("model without optimizer accepted")
		}
	})
}

func TestRunsFilter(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		r.SaveRun(Run{SystemID: 1, AppHash: "a", Started: epoch})
		r.SaveRun(Run{SystemID: 2, AppHash: "b", Started: epoch, Note: "sweep"})
		one, _ := r.ListRuns(1)
		if len(one) != 1 || one[0].AppHash != "a" {
			t.Fatalf("ListRuns(1) = %+v", one)
		}
		all, _ := r.ListRuns(0)
		if len(all) != 2 {
			t.Fatalf("ListRuns(0) = %d", len(all))
		}
	})
}

func TestPersistenceAcrossReopen(t *testing.T) {
	type opener func(dir string) (Repository, error)
	impls := map[string]opener{
		"filedb": func(dir string) (Repository, error) { return OpenDB(dir) },
		"csv":    func(dir string) (Repository, error) { return OpenCSV(dir) },
	}
	for name, open := range impls {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			sysID, _ := r.SaveSystem(sampleSystem())
			runID, _ := r.SaveRun(Run{SystemID: sysID, AppHash: "hpcg", Started: epoch})
			r.SaveBenchmarks([]Benchmark{{
				RunID: runID, SystemID: sysID, AppHash: "hpcg",
				Cores: 32, FreqKHz: 2_200_000, ThreadsPerCore: 1,
				GFLOPS: 9.27, AvgSystemW: 190.1, AvgCPUW: 97.4,
				SystemKJ: 214.4, CPUKJ: 109.8, RuntimeSeconds: 1127, Created: epoch,
			}})
			r.SaveModel(ModelMeta{SystemID: sysID, Optimizer: "brute-force", BlobKey: "k", Created: epoch})
			r.Close()

			r2, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			sys, err := r2.GetSystem(sysID)
			if err != nil || sys.Cores != 32 {
				t.Fatalf("system lost: %+v %v", sys, err)
			}
			bms, _ := r2.ListBenchmarks(sysID, "hpcg")
			if len(bms) != 1 || bms[0].GFLOPS != 9.27 || bms[0].RunID != runID {
				t.Fatalf("benchmarks lost: %+v", bms)
			}
			models, _ := r2.ListModels()
			if len(models) != 1 {
				t.Fatalf("models lost: %+v", models)
			}
			// New ids continue after the persisted ones.
			newSys := sampleSystem()
			newSys.Key = "second"
			id2, _ := r2.SaveSystem(newSys)
			if id2 <= sysID {
				t.Fatalf("id sequence regressed: %d after %d", id2, sysID)
			}
		})
	}
}

func TestSaveBenchmarksBatch(t *testing.T) {
	forEachImpl(t, func(t *testing.T, open func(t *testing.T) Repository) {
		r := open(t)
		sysID, _ := r.SaveSystem(sampleSystem())
		// A one-row batch first, so the batch has to continue an
		// existing id sequence.
		first, err := r.SaveBenchmarks([]Benchmark{{
			SystemID: sysID, AppHash: "hpcg", Cores: 1, FreqKHz: 1_500_000,
			ThreadsPerCore: 1, GFLOPS: 1, AvgSystemW: 100, Created: epoch,
		}})
		if err != nil {
			t.Fatal(err)
		}
		firstID := first[0]
		batch := make([]Benchmark, 5)
		for i := range batch {
			batch[i] = Benchmark{
				SystemID: sysID, AppHash: "hpcg",
				Cores: i + 2, FreqKHz: 2_200_000, ThreadsPerCore: 1,
				GFLOPS: float64(i), AvgSystemW: 150, Created: epoch,
			}
		}
		ids, err := r.SaveBenchmarks(batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 5 {
			t.Fatalf("ids = %v", ids)
		}
		for i, id := range ids {
			if id != firstID+int64(i+1) {
				t.Fatalf("ids = %v, want consecutive after %d", ids, firstID)
			}
		}
		rows, _ := r.ListBenchmarks(sysID, "hpcg")
		if len(rows) != 6 {
			t.Fatalf("ListBenchmarks = %d rows", len(rows))
		}
		for i, b := range rows[1:] {
			if b.ID != ids[i] || b.Cores != i+2 {
				t.Fatalf("row %d out of order: %+v", i, b)
			}
		}
		if _, err := r.SaveBenchmarks(nil); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
		if _, err := r.SaveBenchmarks([]Benchmark{{AppHash: "x"}}); err == nil {
			t.Fatal("batch row without system id accepted")
		}
	})
}

func TestSaveBenchmarksPersistAcrossReopen(t *testing.T) {
	type opener func(dir string) (Repository, error)
	impls := map[string]opener{
		"filedb": func(dir string) (Repository, error) { return OpenDB(dir) },
		"csv":    func(dir string) (Repository, error) { return OpenCSV(dir) },
	}
	for name, open := range impls {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			sysID, _ := r.SaveSystem(sampleSystem())
			batch := make([]Benchmark, 138)
			for i := range batch {
				batch[i] = Benchmark{
					SystemID: sysID, AppHash: "hpcg",
					Cores: i%32 + 1, FreqKHz: 2_200_000, ThreadsPerCore: 1,
					GFLOPS: float64(i), AvgSystemW: 190.1, Created: epoch,
					TraceKey: "traces/run1/x.csv",
				}
			}
			ids, err := r.SaveBenchmarks(batch)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()

			r2, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			rows, _ := r2.ListBenchmarks(sysID, "hpcg")
			if len(rows) != 138 {
				t.Fatalf("reopen: %d rows, want 138", len(rows))
			}
			last := rows[len(rows)-1]
			if last.ID != ids[137] || last.GFLOPS != 137 || last.TraceKey != "traces/run1/x.csv" {
				t.Fatalf("last row mangled: %+v", last)
			}
		})
	}
}

// TestCSVBenchmarkWriteCounts pins the sweep I/O fix: a batch appends
// to benchmarks.csv in one write — the file is never replaced (an
// atomic rewrite would swap the inode), so a sweep of n configurations
// does O(n) I/O.
func TestCSVBenchmarkWriteCounts(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sysID, _ := r.SaveSystem(sampleSystem())
	bench := func(c int) Benchmark {
		return Benchmark{SystemID: sysID, AppHash: "hpcg", Cores: c,
			FreqKHz: 2_200_000, ThreadsPerCore: 1, GFLOPS: 1, AvgSystemW: 100, Created: epoch}
	}
	batch := make([]Benchmark, 50)
	for i := range batch {
		batch[i] = bench(i + 1)
	}
	if _, err := r.SaveBenchmarks(batch); err != nil {
		t.Fatal(err)
	}
	created, err := os.Stat(filepath.Join(dir, "benchmarks.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SaveBenchmarks([]Benchmark{bench(60)}); err != nil {
		t.Fatal(err)
	}
	appended, err := os.Stat(filepath.Join(dir, "benchmarks.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(created, appended) || appended.Size() <= created.Size() {
		t.Fatal("second batch replaced benchmarks.csv instead of appending to it")
	}
}
