package lp

import (
	"sync"

	"repro/internal/obs"
)

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
// vectors, the factorization scratch, the warm-start mask, one flat arena
// for the eta file, the returned X and a free list of Basis snapshots. A
// solve through a workspace does the same arithmetic as a fresh solve,
// pivot for pivot, and allocates nothing once its eta arena has grown and
// RecycleBasis has handed it a basis to reuse.
//
// Lifetimes: the X of a workspace solve is a workspace-owned buffer,
// valid until the next solve on the same workspace (or Release); copy it
// to keep it. The Basis is the caller's and immutable, safe to share
// across goroutines, until the caller passes it to RecycleBasis; the
// next snapshot may then overwrite it. A Workspace is not safe for
// concurrent use; give each goroutine its own.
type Workspace struct {
	s simplex
}

// workspacePool holds released workspaces, whose buffers NewWorkspace
// refits to the next compiled model instead of allocating them again.
var workspacePool sync.Pool

// NewWorkspace returns a workspace for solves of c's model, taken from
// the pool of released workspaces when one is there. Every buffer is
// sized for the largest solve, with one artificial per row.
func (c *Compiled) NewWorkspace() *Workspace {
	w, _ := workspacePool.Get().(*Workspace)
	if w == nil {
		w = &Workspace{}
	}
	w.s.bind(c)
	return w
}

// bind fits every buffer of s to c, reusing the capacity it has. The
// buffers whose contents a solve relies on between calls (the
// factorization marks, counts and work vector, all zero at rest) are
// cleared; a solve rewrites the others before reading them.
func (s *simplex) bind(c *Compiled) {
	total := c.nStruct + c.m
	capN := total + c.m
	s.c = c
	s.cols = fit(s.cols, total, capN)
	copy(s.cols, c.cols)
	s.lo = fit(s.lo, total, capN)
	s.hi = fit(s.hi, total, capN)
	s.cost = fit(s.cost, 0, capN)
	s.cost2 = fit(s.cost2, total, capN)
	s.x = fit(s.x, 0, capN)
	s.xOut = fit(s.xOut, c.nStruct, c.nStruct)
	s.stat = fit(s.stat, 0, capN)
	s.inBasis = fit(s.inBasis, capN, capN)
	s.basis = fit(s.basis, c.m, c.m)
	s.y = fit(s.y, c.m, c.m)
	s.alpha = fit(s.alpha, c.m, c.m)
	s.rho = fit(s.rho, c.m, c.m)
	s.d = fit(s.d, 0, capN)
	s.arow = fit(s.arow, 0, capN)
	s.forder = fit(s.forder, c.m, c.m)
	s.fcount = fit(s.fcount, c.maxColLen+2, c.maxColLen+2)
	s.fpivoted = fit(s.fpivoted, c.m, c.m)
	s.fbasis = fit(s.fbasis, c.m, c.m)
	s.fmark = fit(s.fmark, c.m, c.m)
	s.find = fit(s.find, 0, 64)
	s.fwork = fit(s.fwork, c.m, c.m)
	clear(s.fcount)
	clear(s.fmark)
	clear(s.fwork)
	s.resetEtas()
}

// fit returns buf resliced to length n, or a new slice of capacity
// capN when buf's is smaller.
func fit[T any](buf []T, n, capN int) []T {
	if cap(buf) < capN {
		return make([]T, n, capN)
	}
	return buf[:n]
}

// Release returns w's buffers to the pool that NewWorkspace draws from.
// Neither w nor an X it returned may be used afterwards. Bases on its
// free list are dropped; bases the caller still holds stay valid.
func (w *Workspace) Release() {
	s := &w.s
	// Drop every reference into the compiled model and into old arenas,
	// so a pooled workspace keeps only its own buffers alive.
	clear(s.cols[:cap(s.cols)])
	clear(s.etas[:cap(s.etas)])
	clear(s.freeBases)
	s.freeBases = s.freeBases[:0]
	s.c, s.b = nil, nil
	workspacePool.Put(w)
}

// RecycleBasis hands b, a Basis that no one reads any more, to w for its
// next snapshot to overwrite. b must not be used after the call. A nil b
// is ignored.
func (w *Workspace) RecycleBasis(b *Basis) {
	if b != nil {
		w.s.freeBases = append(w.s.freeBases, b)
	}
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
