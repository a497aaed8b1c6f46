package hpcg

import (
	"fmt"
	"time"
)

// Options control a CG run.
type Options struct {
	MaxIters       int     // iteration cap (reference uses 50 per set)
	Tolerance      float64 // stop when ‖r‖/‖r₀‖ ≤ Tolerance; 0 = run MaxIters
	Workers        int     // goroutines per kernel; ≤1 = serial
	Preconditioned bool    // apply the multigrid/SymGS preconditioner
	ParallelSymGS  bool    // use the 8-colour smoother instead of serial

	// Clock supplies the timestamps for Result.Elapsed/GFLOPS. nil
	// falls back to the wall clock; deterministic callers (tests, the
	// simulator) must inject one.
	Clock func() time.Time
}

// Result summarises a CG run, including the FLOP accounting the HPCG
// rating is computed from.
type Result struct {
	Iterations      int
	InitialResidual float64
	FinalResidual   float64
	FLOPs           int64
	Elapsed         time.Duration
	GFLOPS          float64
	Converged       bool // true when Tolerance > 0 was reached
}

// ResidualReduction returns final/initial residual.
func (r Result) ResidualReduction() float64 {
	if r.InitialResidual == 0 {
		return 0
	}
	return r.FinalResidual / r.InitialResidual
}

// state holds the work vectors for one CG run, reused across
// iterations to avoid allocation in the hot loop.
type state struct {
	p, ap, r, z []float64
	mg          *mgState
}

// RunCG solves A·x = b from x = 0 and returns the run summary plus the
// solution vector.
func (prob *Problem) RunCG(opts Options) (Result, []float64, error) {
	if opts.MaxIters <= 0 {
		return Result{}, nil, fmt.Errorf("hpcg: MaxIters must be positive, got %d", opts.MaxIters)
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	n := prob.A.N
	x := make([]float64, n)
	st := &state{
		p:  make([]float64, n),
		ap: make([]float64, n),
		r:  make([]float64, n),
		z:  make([]float64, n),
	}
	if opts.Preconditioned {
		st.mg = newMGState(prob)
	}

	var flops int64
	now := clockOrWall(opts.Clock)
	start := now()
	w := opts.Workers

	// r = b − A·x (x = 0 ⇒ r = b, but compute it the reference way).
	SpMV(prob.A, x, st.ap, w)
	flops += 2 * prob.A.NNZ()
	WAXPBY(1, prob.B, -1, st.ap, st.r, w)
	flops += 3 * int64(n)
	normr0 := Norm2(st.r, w)
	flops += 2 * int64(n)
	normr := normr0

	var rtz, oldrtz float64
	res := Result{InitialResidual: normr0}

	for k := 1; k <= opts.MaxIters; k++ {
		if opts.Preconditioned {
			flops += applyPreconditioner(prob, st, opts)
		} else {
			copy(st.z, st.r)
		}
		if k == 1 {
			copy(st.p, st.z)
			rtz = Dot(st.r, st.z, w)
			flops += 2 * int64(n)
		} else {
			oldrtz = rtz
			rtz = Dot(st.r, st.z, w)
			flops += 2 * int64(n)
			beta := rtz / oldrtz
			WAXPBY(1, st.z, beta, st.p, st.p, w)
			flops += 3 * int64(n)
		}
		SpMV(prob.A, st.p, st.ap, w)
		flops += 2 * prob.A.NNZ()
		pap := Dot(st.p, st.ap, w)
		flops += 2 * int64(n)
		if pap <= 0 {
			return res, x, fmt.Errorf("hpcg: matrix not positive definite (pᵀAp = %g at iter %d)", pap, k)
		}
		alpha := rtz / pap
		WAXPBY(1, x, alpha, st.p, x, w)
		WAXPBY(1, st.r, -alpha, st.ap, st.r, w)
		flops += 6 * int64(n)
		normr = Norm2(st.r, w)
		flops += 2 * int64(n)
		res.Iterations = k
		if opts.Tolerance > 0 && normr/normr0 <= opts.Tolerance {
			res.Converged = true
			break
		}
	}

	res.FinalResidual = normr
	res.FLOPs = flops
	res.Elapsed = now().Sub(start)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.GFLOPS = float64(flops) / secs / 1e9
	}
	return res, x, nil
}

// mgState holds per-level scratch vectors for the V-cycle.
type mgState struct {
	axf, rc, xc []float64
	coarse      *mgState
}

func newMGState(p *Problem) *mgState {
	st := &mgState{axf: make([]float64, p.A.N)}
	if p.coarse != nil {
		st.rc = make([]float64, p.coarse.A.N)
		st.xc = make([]float64, p.coarse.A.N)
		st.coarse = newMGState(p.coarse)
	}
	return st
}

// applyPreconditioner computes z = M⁻¹·r using the multigrid V-cycle
// (one pre-smooth, coarse solve, one post-smooth per level; SymGS only
// at the coarsest). Returns the FLOPs spent.
func applyPreconditioner(prob *Problem, st *state, opts Options) int64 {
	for i := range st.z {
		st.z[i] = 0
	}
	return vCycle(prob, st.mg, st.r, st.z, opts)
}

func vCycle(p *Problem, mg *mgState, r, z []float64, opts Options) int64 {
	var flops int64
	smooth := func() {
		if opts.ParallelSymGS {
			ColoredSymGS(p, r, z, opts.Workers)
		} else {
			SymGS(p.A, r, z)
		}
		flops += 4 * p.A.NNZ()
	}
	smooth()
	if p.coarse != nil {
		SpMV(p.A, z, mg.axf, opts.Workers)
		flops += 2 * p.A.NNZ()
		Restrict(p, r, mg.axf, mg.rc, opts.Workers)
		flops += int64(len(mg.rc))
		for i := range mg.xc {
			mg.xc[i] = 0
		}
		flops += vCycle(p.coarse, mg.coarse, mg.rc, mg.xc, opts)
		Prolongate(p, z, mg.xc, opts.Workers)
		flops += int64(len(mg.xc))
		smooth()
	}
	return flops
}

// ErrorNorm returns ‖x − xexact‖₂ — the verification the paper's
// Appendix D describes for HPCG output.
func (prob *Problem) ErrorNorm(x []float64, workers int) float64 {
	diff := make([]float64, len(x))
	WAXPBY(1, x, -1, prob.Xexact, diff, workers)
	return Norm2(diff, workers)
}
