package lp

import "repro/internal/obs"

// Compiled is a model's constraint matrix in the column-major form the
// simplex works on: the structural columns, one slack column per row with
// the bounds its sense implies, and a pool of +1/-1 artificial columns per
// row for the cold start. It is built once and never modified afterwards,
// so any number of workspaces (one per branch-and-bound worker) may share
// it. Variable bounds and objective coefficients are not compiled: every
// solve reads them from the model.
type Compiled struct {
	model      *Model
	nStruct, m int
	// cols holds the structural then the slack columns. Entries of a
	// column are in row order.
	cols             [][]sparseEntry
	slackLo, slackHi []float64
	artPos, artNeg   [][]sparseEntry // row -> artificial column of sign +1 / -1
	maxColLen        int
}

// Compile builds the column-major matrix of m. Adding variables or
// constraints to m afterwards makes the result stale; workspaces detect
// that and solve m from scratch instead.
func Compile(m *Model) *Compiled {
	nStruct, rows := m.NumVariables(), m.NumConstraints()
	total := nStruct + rows
	c := &Compiled{
		model:     m,
		nStruct:   nStruct,
		m:         rows,
		cols:      make([][]sparseEntry, total),
		slackLo:   make([]float64, rows),
		slackHi:   make([]float64, rows),
		artPos:    make([][]sparseEntry, rows),
		artNeg:    make([][]sparseEntry, rows),
		maxColLen: 1,
	}
	// Count each structural column's entries, then fill one flat backing
	// array row by row. The capped sub-slices keep appends in place.
	count := make([]int, nStruct)
	nnz := 0
	for _, row := range m.rows {
		for _, t := range row {
			count[t.Var]++
		}
		nnz += len(row)
	}
	flat := make([]sparseEntry, nnz+3*rows)
	off := 0
	for j, k := range count {
		c.cols[j] = flat[off : off : off+k]
		off += k
		c.maxColLen = max(c.maxColLen, k)
	}
	for r, row := range m.rows {
		for _, t := range row {
			c.cols[t.Var] = append(c.cols[t.Var], sparseEntry{row: r, coef: t.Coef})
		}
	}
	for r := 0; r < rows; r++ {
		unit := flat[off : off+3 : off+3]
		off += 3
		unit[0] = sparseEntry{row: r, coef: 1}
		unit[1] = sparseEntry{row: r, coef: 1}
		unit[2] = sparseEntry{row: r, coef: -1}
		c.cols[nStruct+r] = unit[0:1:1]
		c.artPos[r] = unit[1:2:2]
		c.artNeg[r] = unit[2:3:3]
		switch m.senses[r] {
		case LE:
			c.slackLo[r], c.slackHi[r] = 0, Inf
		case GE:
			c.slackLo[r], c.slackHi[r] = -Inf, 0
		case EQ:
			c.slackLo[r], c.slackHi[r] = 0, 0
		}
	}
	return c
}

// compiledFrom reports whether c is the current matrix of m. Rows and
// variables are only ever appended to a model, so equal counts mean no
// constraint has changed since Compile.
func (c *Compiled) compiledFrom(m *Model) bool {
	return m == c.model && m.NumVariables() == c.nStruct && m.NumConstraints() == c.m
}

// artificial returns the pooled artificial column of row r with the given
// sign.
func (c *Compiled) artificial(r int, sign float64) []sparseEntry {
	if sign < 0 {
		return c.artNeg[r]
	}
	return c.artPos[r]
}

// Workspace is the reusable working state of repeated solves of one
// compiled model under different bounds and warm bases: the simplex
// vectors, the factorization scratch, the warm-start mask and one flat
// arena for the eta file. A solve through a workspace does the same
// arithmetic as a fresh solve, pivot for pivot, and allocates only its
// returned X and Basis. A Workspace is not safe for concurrent use; give
// each goroutine its own.
type Workspace struct {
	s simplex
}

// NewWorkspace allocates a workspace for solves of c's model. Every
// buffer is sized for the largest solve, with one artificial per row.
func (c *Compiled) NewWorkspace() *Workspace {
	total := c.nStruct + c.m
	capN := total + c.m
	w := &Workspace{}
	s := &w.s
	s.c = c
	s.cols = make([][]sparseEntry, total, capN)
	copy(s.cols, c.cols)
	s.lo = make([]float64, total, capN)
	s.hi = make([]float64, total, capN)
	s.cost = make([]float64, 0, capN)
	s.cost2 = make([]float64, total, capN)
	s.x = make([]float64, 0, capN)
	s.stat = make([]vstat, 0, capN)
	s.inBasis = make([]bool, capN)
	s.basis = make([]int, c.m)
	s.y = make([]float64, c.m)
	s.alpha = make([]float64, c.m)
	s.rho = make([]float64, c.m)
	s.d = make([]float64, 0, capN)
	s.arow = make([]float64, 0, capN)
	s.forder = make([]int, c.m)
	s.fcount = make([]int, c.maxColLen+2)
	s.fpivoted = make([]bool, c.m)
	s.fbasis = make([]int, c.m)
	s.fmark = make([]bool, c.m)
	s.find = make([]int32, 0, 64)
	s.fwork = make([]float64, c.m)
	return w
}

// SolveWithBounds is the package-level SolveWithBounds reusing w's
// buffers. When m is not the model w was compiled from, or has gained
// rows or variables since, it compiles m afresh and never touches w's
// stale columns.
func (w *Workspace) SolveWithBounds(m *Model, opts Options, loOverride, hiOverride []float64) Solution {
	if !w.s.c.compiledFrom(m) {
		w = Compile(m).NewWorkspace()
	}
	sol := w.s.solve(opts, loOverride, hiOverride)
	if opts.Obs != nil && sol.Iterations > 0 {
		opts.Obs.Add(obs.Pivots, int64(sol.Iterations))
	}
	return sol
}
