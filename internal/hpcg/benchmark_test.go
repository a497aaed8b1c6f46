package hpcg

import (
	"strings"
	"testing"
	"time"
)

func TestRunBenchmarkEndToEnd(t *testing.T) {
	rep, err := RunBenchmark(BenchmarkOptions{
		Nx: 16, Ny: 16, Nz: 16,
		TargetTime: 50 * time.Millisecond,
		Workers:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("verification failed: symA=%g symM=%g", rep.SymmetryErrorA, rep.SymmetryErrorM)
	}
	if rep.Sets < 1 || rep.GFLOPS <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	if !rep.ResidualsConsistent() {
		t.Fatalf("sets converged differently: %v", rep.ResidualReductions)
	}
	if rep.Levels != 3 {
		t.Fatalf("16³ should have 3 MG levels (16→8→4), got %d", rep.Levels)
	}
	if !strings.Contains(rep.String(), "GFLOP/s") {
		t.Fatalf("String() = %q", rep.String())
	}
}

func TestRunBenchmarkColoredSmoother(t *testing.T) {
	rep, err := RunBenchmark(BenchmarkOptions{
		Nx: 16, Ny: 16, Nz: 16,
		TargetTime:    10 * time.Millisecond,
		Workers:       4,
		ParallelSymGS: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("coloured smoother failed verification — the permuted sweep must stay symmetric")
	}
}

func TestRunBenchmarkBadGrid(t *testing.T) {
	if _, err := RunBenchmark(BenchmarkOptions{Nx: 1, Ny: 1, Nz: 1}); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestSymmetryTestCatchesAsymmetry(t *testing.T) {
	p := mustProblem(t, 8, 8, 8)
	// Break symmetry in one off-diagonal entry.
	cols, vals := p.A.Row(100)
	for k, c := range cols {
		if int(c) != 100 {
			vals[k] = -2.5
			break
		}
	}
	errA, _ := symmetryErrors(p, 1)
	if errA < 1e-10 {
		t.Fatalf("asymmetry not detected: errA = %g", errA)
	}
}

func TestResidualsConsistentEdgeCases(t *testing.T) {
	if (BenchmarkReport{}).ResidualsConsistent() {
		t.Fatal("empty report consistent")
	}
	r := BenchmarkReport{ResidualReductions: []float64{1e-3, 1e-3}}
	if !r.ResidualsConsistent() {
		t.Fatal("identical reductions inconsistent")
	}
	r = BenchmarkReport{ResidualReductions: []float64{1e-3, 2e-3}}
	if r.ResidualsConsistent() {
		t.Fatal("different reductions consistent")
	}
	r = BenchmarkReport{ResidualReductions: []float64{0, 0}}
	if !r.ResidualsConsistent() {
		t.Fatal("zero reductions inconsistent")
	}
}

func BenchmarkHPCGRating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := RunBenchmark(BenchmarkOptions{
			Nx: 24, Ny: 24, Nz: 24,
			TargetTime: time.Millisecond,
			Workers:    8,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.GFLOPS, "hpcg-gflops")
	}
}

func TestWriteReportFormat(t *testing.T) {
	rep, err := RunBenchmark(BenchmarkOptions{Nx: 12, Ny: 12, Nz: 12, TargetTime: time.Millisecond, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.WriteReport(&buf)
	for _, frag := range []string{
		"Global nx: 12",
		"Departure from symmetry for SpMV",
		"Validation passed: true",
		"GFLOP/s rating of:",
	} {
		if !strings.Contains(buf.String(), frag) {
			t.Fatalf("report missing %q:\n%s", frag, buf.String())
		}
	}
}

// TestRunBenchmarkInjectedClock pins the timing side of the report to
// an injected clock: with a 250 ms tick and a 1 s target, the call
// sequence (setup start/stop, timed start, per-set CG start/stop, loop
// checks, timed stop) is fully determined, so the report's durations
// and set count must come out identical on every run.
func TestRunBenchmarkInjectedClock(t *testing.T) {
	fakeClock := func() func() time.Time {
		t0 := time.Unix(1700000000, 0)
		n := 0
		return func() time.Time {
			ts := t0.Add(time.Duration(n) * 250 * time.Millisecond)
			n++
			return ts
		}
	}
	run := func() BenchmarkReport {
		rep, err := RunBenchmark(BenchmarkOptions{
			Nx: 12, Ny: 12, Nz: 12,
			TargetTime:       time.Second,
			IterationsPerSet: 5,
			Clock:            fakeClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.Sets != 2 {
		t.Fatalf("Sets = %d, want 2 (deterministic with the fake clock)", rep.Sets)
	}
	if rep.SetupTime != 250*time.Millisecond {
		t.Fatalf("SetupTime = %v, want 250ms", rep.SetupTime)
	}
	if rep.TimedDuration != 1750*time.Millisecond {
		t.Fatalf("TimedDuration = %v, want 1.75s", rep.TimedDuration)
	}
	rep2 := run()
	if rep2.Sets != rep.Sets || rep2.SetupTime != rep.SetupTime ||
		rep2.TimedDuration != rep.TimedDuration || rep2.GFLOPS != rep.GFLOPS {
		t.Fatalf("injected-clock runs differ:\n%+v\n%+v", rep, rep2)
	}
}
