// Package hpcg implements the High Performance Conjugate Gradients
// benchmark — the Application Runner the paper benchmarks with (§3.2).
// It is a real solver, not a stub: a symmetric Gauss–Seidel
// preconditioned conjugate-gradient iteration on the standard HPCG
// 27-point stencil over a 3-D grid, with an optional multigrid V-cycle
// preconditioner and goroutine-parallel kernels.
//
// The paper runs the reference binary at x = y = z = 104 for ~20
// minutes; the simulation path (internal/core's runner) uses the
// calibrated perfmodel for full-size timings, while this package runs
// for real at small problem sizes to validate numerics and provide an
// honest compute kernel for cmd/hpcgrun, tests and benches.
package hpcg

import "fmt"

// Matrix is the sparse operator for the 27-point stencil problem,
// stored row-wise with explicit values (HPCG permits storage
// transformations; flat slices keep it cache-friendly).
type Matrix struct {
	N       int       // rows
	nnz     []uint8   // nonzeros in each row (≤27)
	cols    []int32   // N×27, column indices, row-major, padded
	vals    []float64 // N×27, values aligned with cols
	diagIdx []int32   // index of the diagonal within each row's entries
}

// MaxRowNNZ is the stencil width: a 27-point stencil has at most 27
// nonzeros per row.
const MaxRowNNZ = 27

// NNZ returns the total number of stored nonzeros.
func (m *Matrix) NNZ() int64 {
	var total int64
	for _, c := range m.nnz {
		total += int64(c)
	}
	return total
}

// Row returns the column indices and values of row i.
func (m *Matrix) Row(i int) (cols []int32, vals []float64) {
	c := int(m.nnz[i])
	return m.cols[i*MaxRowNNZ : i*MaxRowNNZ+c], m.vals[i*MaxRowNNZ : i*MaxRowNNZ+c]
}

// Diag returns the diagonal value of row i.
func (m *Matrix) Diag(i int) float64 {
	return m.vals[i*MaxRowNNZ+int(m.diagIdx[i])]
}

// Problem is one HPCG discretisation level: the operator plus the
// grid geometry it came from.
type Problem struct {
	Nx, Ny, Nz int
	A          *Matrix
	B          []float64 // right-hand side
	Xexact     []float64 // known solution (all ones), for verification
	coarse     *Problem  // next multigrid level, nil at the coarsest
	f2c        []int32   // fine index of each coarse point
}

// NewProblem builds the HPCG problem on an nx×ny×nz grid with the
// standard coefficients (diagonal 26, off-diagonals −1) and the exact
// solution x ≡ 1, then constructs the multigrid hierarchy by halving
// each dimension while all three remain even and ≥ 8 (the reference
// code builds 4 levels at standard sizes).
func NewProblem(nx, ny, nz int) (*Problem, error) {
	if nx < 2 || ny < 2 || nz < 2 {
		return nil, fmt.Errorf("hpcg: grid %dx%dx%d too small", nx, ny, nz)
	}
	p := buildLevel(nx, ny, nz)
	cur := p
	for levels := 1; levels < 4; levels++ {
		cnx, cny, cnz := cur.Nx/2, cur.Ny/2, cur.Nz/2
		if cur.Nx%2 != 0 || cur.Ny%2 != 0 || cur.Nz%2 != 0 || cnx < 4 || cny < 4 || cnz < 4 {
			break
		}
		coarse := buildLevel(cnx, cny, cnz)
		cur.coarse = coarse
		cur.f2c = buildF2C(cur.Nx, cur.Ny, cur.Nz)
		cur = coarse
	}
	return p, nil
}

// Levels counts the multigrid levels including the finest.
func (p *Problem) Levels() int {
	n := 1
	for q := p; q.coarse != nil; q = q.coarse {
		n++
	}
	return n
}

func buildLevel(nx, ny, nz int) *Problem {
	n := nx * ny * nz
	p := &Problem{
		Nx: nx, Ny: ny, Nz: nz,
		A: &Matrix{
			N:       n,
			nnz:     make([]uint8, n),
			cols:    make([]int32, n*MaxRowNNZ),
			vals:    make([]float64, n*MaxRowNNZ),
			diagIdx: make([]int32, n),
		},
		B:      make([]float64, n),
		Xexact: make([]float64, n),
	}
	a := p.A
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				row := ix + nx*(iy+ny*iz)
				base := row * MaxRowNNZ
				cnt := 0
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							jx, jy, jz := ix+dx, iy+dy, iz+dz
							if jx < 0 || jx >= nx || jy < 0 || jy >= ny || jz < 0 || jz >= nz {
								continue
							}
							col := jx + nx*(jy+ny*jz)
							a.cols[base+cnt] = int32(col)
							if col == row {
								a.vals[base+cnt] = 26.0
								a.diagIdx[row] = int32(cnt)
							} else {
								a.vals[base+cnt] = -1.0
							}
							cnt++
						}
					}
				}
				a.nnz[row] = uint8(cnt)
				p.Xexact[row] = 1.0
				// b = A·1: diagonal plus the off-diagonal sum.
				p.B[row] = 26.0 - float64(cnt-1)
			}
		}
	}
	return p
}

// buildF2C maps each coarse grid point to the fine index at twice its
// coordinates (injection, as in the reference implementation).
func buildF2C(nx, ny, nz int) []int32 {
	cnx, cny, cnz := nx/2, ny/2, nz/2
	f2c := make([]int32, cnx*cny*cnz)
	for cz := 0; cz < cnz; cz++ {
		for cy := 0; cy < cny; cy++ {
			for cx := 0; cx < cnx; cx++ {
				c := cx + cnx*(cy+cny*cz)
				f := 2*cx + nx*(2*cy+ny*2*cz)
				f2c[c] = int32(f)
			}
		}
	}
	return f2c
}
