package hpcg

import (
	"math"
	"testing"
	"testing/quick"

	"ecosched/internal/leakcheck"
	"ecosched/internal/simclock"
)

func mustProblem(t testing.TB, nx, ny, nz int) *Problem {
	t.Helper()
	p, err := NewProblem(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProblemStencilShape(t *testing.T) {
	p := mustProblem(t, 8, 8, 8)
	if p.A.N != 512 {
		t.Fatalf("N = %d", p.A.N)
	}
	// Corner row: 2×2×2 neighbourhood = 8 entries.
	cols, vals := p.A.Row(0)
	if len(cols) != 8 {
		t.Fatalf("corner row has %d entries, want 8", len(cols))
	}
	var diag float64
	for k, c := range cols {
		if int(c) == 0 {
			diag = vals[k]
		}
	}
	if diag != 26 {
		t.Fatalf("diagonal = %v, want 26", diag)
	}
	// Interior row: full 27-point stencil.
	interior := 3 + 8*(3+8*3)
	cols, _ = p.A.Row(interior)
	if len(cols) != 27 {
		t.Fatalf("interior row has %d entries, want 27", len(cols))
	}
	if p.A.Diag(interior) != 26 {
		t.Fatalf("interior diagonal = %v", p.A.Diag(interior))
	}
}

func TestRHSIsAOnes(t *testing.T) {
	p := mustProblem(t, 10, 6, 8)
	y := make([]float64, p.A.N)
	SpMV(p.A, p.Xexact, y, 1)
	for i := range y {
		if math.Abs(y[i]-p.B[i]) > 1e-12 {
			t.Fatalf("(A·1)[%d] = %v, B[%d] = %v", i, y[i], i, p.B[i])
		}
	}
}

func TestMatrixSymmetry(t *testing.T) {
	p := mustProblem(t, 9, 7, 5)
	rng := simclock.NewRNG(11)
	n := p.A.N
	x := make([]float64, n)
	y := make([]float64, n)
	ax := make([]float64, n)
	ay := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
		y[i] = rng.Float64() - 0.5
	}
	SpMV(p.A, x, ax, 1)
	SpMV(p.A, y, ay, 1)
	lhs := Dot(y, ax, 1)
	rhs := Dot(x, ay, 1)
	if math.Abs(lhs-rhs) > 1e-9*math.Abs(lhs) {
		t.Fatalf("yᵀAx = %v ≠ xᵀAy = %v: matrix not symmetric", lhs, rhs)
	}
}

func TestTooSmallGridRejected(t *testing.T) {
	if _, err := NewProblem(1, 8, 8); err == nil {
		t.Fatal("1-wide grid accepted")
	}
}

func TestMultigridLevels(t *testing.T) {
	if got := mustProblem(t, 32, 32, 32).Levels(); got != 4 {
		t.Fatalf("32³ grid has %d levels, want 4", got)
	}
	if got := mustProblem(t, 8, 8, 8).Levels(); got != 2 {
		t.Fatalf("8³ grid has %d levels, want 2", got)
	}
	// Odd dimension: no coarsening possible.
	if got := mustProblem(t, 9, 8, 8).Levels(); got != 1 {
		t.Fatalf("9×8×8 grid has %d levels, want 1", got)
	}
}

func TestParallelKernelsMatchSerial(t *testing.T) {
	defer leakcheck.Check(t)()
	p := mustProblem(t, 12, 10, 8)
	n := p.A.N
	rng := simclock.NewRNG(3)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	ySerial := make([]float64, n)
	yPar := make([]float64, n)
	SpMV(p.A, x, ySerial, 1)
	SpMV(p.A, x, yPar, 8)
	for i := range ySerial {
		if ySerial[i] != yPar[i] {
			t.Fatalf("SpMV parallel mismatch at %d", i)
		}
	}
	if d1, d8 := Dot(x, ySerial, 1), Dot(x, ySerial, 8); math.Abs(d1-d8) > 1e-9*math.Abs(d1) {
		t.Fatalf("Dot parallel mismatch: %v vs %v", d1, d8)
	}
	w1 := make([]float64, n)
	w8 := make([]float64, n)
	WAXPBY(2.5, x, -1.25, ySerial, w1, 1)
	WAXPBY(2.5, x, -1.25, ySerial, w8, 8)
	for i := range w1 {
		if w1[i] != w8[i] {
			t.Fatalf("WAXPBY parallel mismatch at %d", i)
		}
	}
}

func TestWAXPBYSpecialCases(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	w := make([]float64, 3)
	WAXPBY(1, x, 2, y, w, 1)
	if w[2] != 63 {
		t.Fatalf("alpha=1 case: %v", w)
	}
	WAXPBY(3, x, 1, y, w, 1)
	if w[2] != 39 {
		t.Fatalf("beta=1 case: %v", w)
	}
}

func TestSymGSReducesResidual(t *testing.T) {
	p := mustProblem(t, 8, 8, 8)
	n := p.A.N
	x := make([]float64, n)
	resid := func() float64 {
		ax := make([]float64, n)
		SpMV(p.A, x, ax, 1)
		r := make([]float64, n)
		WAXPBY(1, p.B, -1, ax, r, 1)
		return Norm2(r, 1)
	}
	r0 := resid()
	SymGS(p.A, p.B, x)
	r1 := resid()
	SymGS(p.A, p.B, x)
	r2 := resid()
	if !(r2 < r1 && r1 < r0) {
		t.Fatalf("SymGS residuals not decreasing: %g → %g → %g", r0, r1, r2)
	}
}

func TestColoringIsIndependentSet(t *testing.T) {
	p := mustProblem(t, 6, 6, 6)
	colors := colorIndex(p)
	total := 0
	for c := 0; c < 8; c++ {
		rows := map[int32]bool{}
		for _, r := range colors[c] {
			rows[r] = true
		}
		total += len(rows)
		// No row may be adjacent to another row of the same colour.
		for _, r := range colors[c] {
			cols, _ := p.A.Row(int(r))
			for _, cc := range cols {
				if cc != r && rows[cc] {
					t.Fatalf("colour %d contains adjacent rows %d and %d", c, r, cc)
				}
			}
		}
	}
	if total != p.A.N {
		t.Fatalf("colouring covers %d of %d rows", total, p.A.N)
	}
}

func TestColoredSymGSReducesResidual(t *testing.T) {
	p := mustProblem(t, 8, 8, 8)
	n := p.A.N
	x := make([]float64, n)
	ax := make([]float64, n)
	r := make([]float64, n)
	resid := func() float64 {
		SpMV(p.A, x, ax, 4)
		WAXPBY(1, p.B, -1, ax, r, 4)
		return Norm2(r, 4)
	}
	r0 := resid()
	ColoredSymGS(p, p.B, x, 4)
	r1 := resid()
	if r1 >= r0 {
		t.Fatalf("coloured SymGS did not reduce residual: %g → %g", r0, r1)
	}
}

func TestCGUnpreconditionedConverges(t *testing.T) {
	p := mustProblem(t, 16, 16, 16)
	res, x, err := p.RunCG(Options{MaxIters: 500, Tolerance: 1e-8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge in %d iters (reduction %g)", res.Iterations, res.ResidualReduction())
	}
	if e := p.ErrorNorm(x, 1); e > 1e-5 {
		t.Fatalf("solution error ‖x−1‖ = %g", e)
	}
}

func TestPreconditionerAccelerates(t *testing.T) {
	p := mustProblem(t, 16, 16, 16)
	plain, _, err := p.RunCG(Options{MaxIters: 500, Tolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	prec, _, err := p.RunCG(Options{MaxIters: 500, Tolerance: 1e-8, Preconditioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if !prec.Converged {
		t.Fatal("preconditioned CG did not converge")
	}
	if prec.Iterations >= plain.Iterations {
		t.Fatalf("MG preconditioner did not accelerate: %d vs %d iterations",
			prec.Iterations, plain.Iterations)
	}
}

func TestParallelCGMatchesConvergence(t *testing.T) {
	p := mustProblem(t, 16, 16, 16)
	serial, _, err := p.RunCG(Options{MaxIters: 50, Preconditioned: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := p.RunCG(Options{MaxIters: 50, Preconditioned: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Parallel dot products reduce in a different order, so residuals
	// differ in rounding — but both runs must converge equally deep.
	sRed, pRed := serial.ResidualReduction(), par.ResidualReduction()
	if sRed > 1e-12 || pRed > 1e-12 {
		t.Fatalf("runs did not both converge: serial %g, parallel %g", sRed, pRed)
	}
}

func TestColoredSmootherCGConverges(t *testing.T) {
	p := mustProblem(t, 16, 16, 16)
	res, x, err := p.RunCG(Options{
		MaxIters: 500, Tolerance: 1e-8, Preconditioned: true, ParallelSymGS: true, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("CG with coloured smoother did not converge")
	}
	if e := p.ErrorNorm(x, 8); e > 1e-5 {
		t.Fatalf("solution error = %g", e)
	}
}

func TestCGAccounting(t *testing.T) {
	p := mustProblem(t, 8, 8, 8)
	res, _, err := p.RunCG(Options{MaxIters: 10, Preconditioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 10 {
		t.Fatalf("Iterations = %d", res.Iterations)
	}
	if res.FLOPs <= 0 || res.GFLOPS <= 0 {
		t.Fatalf("accounting missing: FLOPs=%d GFLOPS=%v", res.FLOPs, res.GFLOPS)
	}
	// Sanity: FLOPs must exceed MG smoothing cost alone.
	minFlops := int64(res.Iterations) * 4 * p.A.NNZ()
	if res.FLOPs < minFlops {
		t.Fatalf("FLOPs = %d below smoother-only floor %d", res.FLOPs, minFlops)
	}
}

func TestCGRejectsBadOptions(t *testing.T) {
	p := mustProblem(t, 8, 8, 8)
	if _, _, err := p.RunCG(Options{MaxIters: 0}); err == nil {
		t.Fatal("MaxIters=0 accepted")
	}
}

func TestResidualReductionZeroInitial(t *testing.T) {
	r := Result{InitialResidual: 0, FinalResidual: 1}
	if r.ResidualReduction() != 0 {
		t.Fatal("zero initial residual should report 0 reduction")
	}
}

// Property: the residual never increases across CG iteration budgets.
func TestCGMonotoneInIterations(t *testing.T) {
	p := mustProblem(t, 8, 8, 8)
	if err := quick.Check(func(a uint8) bool {
		k := 1 + int(a)%20
		r1, _, err1 := p.RunCG(Options{MaxIters: k, Preconditioned: true})
		r2, _, err2 := p.RunCG(Options{MaxIters: k + 5, Preconditioned: true})
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.FinalResidual <= r1.FinalResidual*(1+1e-9)
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpMV(b *testing.B) {
	p := mustProblem(b, 32, 32, 32)
	x := make([]float64, p.A.N)
	y := make([]float64, p.A.N)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(p.A.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpMV(p.A, x, y, 8)
	}
}

func BenchmarkSymGSSerialVsColored(b *testing.B) {
	p := mustProblem(b, 24, 24, 24)
	x := make([]float64, p.A.N)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SymGS(p.A, p.B, x)
		}
	})
	b.Run("colored8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ColoredSymGS(p, p.B, x, 8)
		}
	})
}
