package lp

import (
	"math"
	"time"
)

// Basis is a warm-start snapshot of a simplex basis: the basic column per
// row plus the status of every structural and slack column. A Basis taken
// from an optimal solve of a model stays dual-feasible when only variable
// bounds change, which is exactly the branch-and-bound situation — child
// nodes re-solve the parent relaxation with one tightened bound, so the
// parent basis lets the dual simplex finish in a handful of pivots instead
// of re-solving from scratch.
//
// A Basis is immutable once returned by the solver and safe to share
// across goroutines; warm solves copy it before mutating anything. The
// exception is a Basis handed to Workspace.RecycleBasis: that workspace's
// next snapshot overwrites it.
type Basis struct {
	// Basic maps each constraint row to its basic column index
	// (0..nStruct-1 structural, nStruct..nStruct+rows-1 slack).
	// Artificial columns never appear: solutions whose final basis still
	// contains an artificial are not snapshotted.
	Basic []int32
	// Stat holds the vstat of every structural and slack column.
	Stat []int8
}

// eta is one elementary transformation of the product-form basis inverse:
// the identity except for column r, encoding the pivot B^{-1}a_q = alpha.
// Applying it forward (ftran) maps v[r] -> v[r]/alphaR and
// v[i] -> v[i] - alpha_i * (v[r]/alphaR) for the stored off-pivot rows.
type eta struct {
	r      int32
	alphaR float64
	rows   []int32
	vals   []float64
}

// ftran computes v <- B^{-1} v by applying the eta file in append order.
// Dense v; the v[e.r] == 0 skip makes sparse right-hand sides cheap.
func (s *simplex) ftran(v []float64) {
	for i := range s.etas {
		e := &s.etas[i]
		vr := v[e.r]
		if vr == 0 {
			continue
		}
		vr /= e.alphaR
		v[e.r] = vr
		for k, row := range e.rows {
			v[row] -= e.vals[k] * vr
		}
	}
}

// btran computes u <- (B^{-1})^T u by applying the transposed eta file in
// reverse append order: only u[e.r] changes per eta.
func (s *simplex) btran(u []float64) {
	for i := len(s.etas) - 1; i >= 0; i-- {
		e := &s.etas[i]
		acc := 0.0
		for k, row := range e.rows {
			acc += e.vals[k] * u[row]
		}
		u[e.r] = (u[e.r] - acc) / e.alphaR
	}
}

// appendEta records the pivot (alpha, leaveRow) as a new eta. alpha is the
// ftran'd entering column; tiny off-pivot entries are dropped to keep the
// file sparse (they are far below the solver's feasibility tolerance).
func (s *simplex) appendEta(alpha []float64, r int) {
	start := len(s.etaRows)
	for i, a := range alpha {
		if i == r || a == 0 {
			continue
		}
		if math.Abs(a) < 1e-13 {
			continue
		}
		s.etaRows = append(s.etaRows, int32(i))
		s.etaVals = append(s.etaVals, a)
	}
	s.pushEta(int32(r), alpha[r], start)
}

// pushEta appends the eta whose off-pivot entries are the arena's tail
// from start on. The capped sub-slices stay valid when a later append
// moves the arena: an eta is never written after it is pushed.
func (s *simplex) pushEta(r int32, alphaR float64, start int) {
	end := len(s.etaRows)
	s.etas = append(s.etas, eta{r: r, alphaR: alphaR, rows: s.etaRows[start:end:end], vals: s.etaVals[start:end:end]})
}

// resetEtas empties the eta file and its arena together.
func (s *simplex) resetEtas() {
	s.etas = s.etas[:0]
	s.etaRows = s.etaRows[:0]
	s.etaVals = s.etaVals[:0]
}

// factorize rebuilds the eta file from the current basis columns and
// recomputes the basic variable values, replacing the drifted product
// form. Columns are processed in nonzero-count order so slack columns
// (which yield identity etas that are skipped entirely) come first; the
// pivot row of each column is chosen by partial pivoting over the rows no
// earlier column claimed. Unlike the dense O(m^3) Gauss-Jordan it
// replaces, the cost is near-linear in basis nonzeros plus fill, and the
// deadline is polled throughout — refactorization was the un-deadlined
// stage behind the milp-ho 18x budget blowout on sdr2.
//
// Returns StatusOptimal on success, StatusIterationLimit on deadline, and
// StatusNumericalFailure if the basis matrix is singular.
func (s *simplex) factorize() Status {
	m := s.m
	s.resetEtas()
	// Rows by the length of their basic column, ties by row: a stable
	// counting sort, as column lengths are at most c.maxColLen.
	order, count := s.forder, s.fcount
	for r := 0; r < m; r++ {
		s.fpivoted[r] = false
		count[len(s.cols[s.basis[r]])+1]++
	}
	for l := 1; l < len(count); l++ {
		count[l] += count[l-1]
	}
	for r := 0; r < m; r++ {
		l := len(s.cols[s.basis[r]])
		order[count[l]] = r
		count[l]++
	}
	clear(count)

	v := s.fwork
	for t, r0 := range order {
		if t&63 == 0 && !s.deadline.IsZero() && time.Now().After(s.deadline) {
			return StatusIterationLimit
		}
		j := s.basis[r0]
		// Scatter column j and ftran it through the etas built so far,
		// tracking touched rows so pivot search and cleanup stay sparse.
		ind := s.find[:0]
		for _, e := range s.cols[j] {
			if e.coef == 0 {
				continue
			}
			if !s.fmark[e.row] {
				s.fmark[e.row] = true
				ind = append(ind, int32(e.row))
			}
			v[e.row] += e.coef
		}
		for ei := range s.etas {
			e := &s.etas[ei]
			vr := v[e.r]
			if vr == 0 {
				continue
			}
			vr /= e.alphaR
			v[e.r] = vr
			for k, row := range e.rows {
				if !s.fmark[row] {
					s.fmark[row] = true
					ind = append(ind, row)
				}
				v[row] -= e.vals[k] * vr
			}
		}
		// Partial pivot over the rows not yet claimed.
		best := int32(-1)
		bestAbs := 1e-11
		for _, r := range ind {
			if !s.fpivoted[r] {
				if a := math.Abs(v[r]); a > bestAbs {
					best, bestAbs = r, a
				}
			}
		}
		if best < 0 {
			for _, r := range ind {
				v[r] = 0
				s.fmark[r] = false
			}
			s.find = ind[:0]
			return StatusNumericalFailure
		}
		// Identity columns (a slack pivoting its own untouched row) need
		// no eta at all.
		if !(len(ind) == 1 && v[best] == 1) {
			start := len(s.etaRows)
			for _, r := range ind {
				if r == best || v[r] == 0 || math.Abs(v[r]) < 1e-13 {
					continue
				}
				s.etaRows = append(s.etaRows, r)
				s.etaVals = append(s.etaVals, v[r])
			}
			s.pushEta(best, v[best], start)
		}
		s.fpivoted[best] = true
		s.fbasis[best] = j
		for _, r := range ind {
			v[r] = 0
			s.fmark[r] = false
		}
		s.find = ind[:0]
	}
	copy(s.basis, s.fbasis)
	s.recomputeBasics()
	return StatusOptimal
}

// recomputeBasics refreshes the basic variable values from the nonbasic
// point: xB = B^{-1}(b - N xN).
func (s *simplex) recomputeBasics() {
	rhs := s.fwork
	copy(rhs, s.b)
	for j := 0; j < s.n; j++ {
		if s.stat[j] == basic {
			continue
		}
		if v := s.x[j]; v != 0 {
			for _, e := range s.cols[j] {
				rhs[e.row] -= e.coef * v
			}
		}
	}
	s.ftran(rhs)
	for r := 0; r < s.m; r++ {
		s.x[s.basis[r]] = rhs[r]
		rhs[r] = 0
	}
}

// snapshotBasis captures the final basis for reuse by warm starts, or nil
// when an artificial variable is still basic (such a basis cannot be
// replayed on a model built without artificials).
func (s *simplex) snapshotBasis() *Basis {
	nReal := s.nStruct + s.m
	for _, j := range s.basis {
		if j >= nReal {
			return nil
		}
	}
	b := s.freeBasis(nReal)
	for r, j := range s.basis {
		b.Basic[r] = int32(j)
	}
	for j := 0; j < nReal; j++ {
		b.Stat[j] = int8(s.stat[j])
	}
	return b
}

// freeBasis pops a recycled Basis with room for m rows and nReal columns,
// or allocates one when the free list has none.
func (s *simplex) freeBasis(nReal int) *Basis {
	for len(s.freeBases) > 0 {
		k := len(s.freeBases) - 1
		b := s.freeBases[k]
		s.freeBases[k] = nil
		s.freeBases = s.freeBases[:k]
		if cap(b.Basic) >= s.m && cap(b.Stat) >= nReal {
			b.Basic, b.Stat = b.Basic[:s.m], b.Stat[:nReal]
			return b
		}
	}
	return &Basis{Basic: make([]int32, s.m), Stat: make([]int8, nReal)}
}
