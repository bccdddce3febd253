package lp

import (
	"math"
	"time"
)

// warmSolve attempts to solve from a previously snapshotted basis using
// the dual simplex. It returns (solution, true) when the warm start
// reached a definitive answer — optimal, infeasible, or out of budget —
// and (zero, false) when the basis is unusable (stale shape, singular, or
// numerically stuck), in which case the caller re-solves cold. A false
// return therefore never changes the final answer, only its cost.
//
// The warm basis comes from an optimal solve of the same model under
// different bounds (the branch-and-bound parent). The old basis is still
// dual feasible — reduced costs depend on costs and the basis, not on
// bounds — so the dual simplex restores primal feasibility directly,
// typically in a few pivots per changed bound.
func (s *simplex) warmSolve(wb *Basis, returnBasis bool) (Solution, bool) {
	if !s.installBasis(wb) {
		return Solution{}, false
	}
	if st := s.factorize(); st != StatusOptimal {
		if st == StatusIterationLimit {
			return Solution{Status: st, Iterations: s.iters}, true
		}
		return Solution{}, false
	}

	s.cost = s.cost[:s.n]
	copy(s.cost, s.cost2)
	switch st := s.dualRun(); st {
	case StatusOptimal:
		// Primal feasibility restored; let the primal polish any dual
		// infeasibility left by tolerance drift and confirm optimality.
		s.bland = false
		s.degenStreak = 0
		switch st2 := s.run(); st2 {
		case StatusOptimal:
			return s.solution(returnBasis), true
		case StatusUnbounded:
			return Solution{Status: StatusUnbounded, Iterations: s.iters}, true
		case StatusIterationLimit:
			if s.deadlineExceeded() {
				return Solution{Status: StatusIterationLimit, Iterations: s.iters}, true
			}
			return Solution{}, false
		default:
			return Solution{}, false
		}
	case StatusInfeasible:
		return Solution{Status: StatusInfeasible, Iterations: s.iters}, true
	case StatusIterationLimit:
		if s.deadlineExceeded() {
			return Solution{Status: StatusIterationLimit, Iterations: s.iters}, true
		}
		return Solution{}, false
	default:
		return Solution{}, false
	}
}

// installBasis makes the snapshot wb the current basis, placing each
// nonbasic column at the bound its status names. It copies, never
// mutating the shared *Basis; the basic entries of x are left to
// factorize. It reports false when wb does not fit the model.
func (s *simplex) installBasis(wb *Basis) bool {
	if len(wb.Basic) != s.m || len(wb.Stat) != s.n {
		return false
	}
	s.basis = s.basis[:s.m]
	s.stat = s.stat[:s.n]
	s.x = s.x[:s.n]
	inBasis := s.inBasis[:s.n]
	clear(inBasis)
	for r, j := range wb.Basic {
		if j < 0 || int(j) >= s.n || inBasis[j] {
			return false
		}
		inBasis[j] = true
		s.basis[r] = int(j)
	}
	for j := 0; j < s.n; j++ {
		st := vstat(wb.Stat[j])
		if (st == basic) != inBasis[j] {
			return false
		}
		if st == basic {
			s.stat[j] = basic
			continue
		}
		s.stat[j], s.x[j] = s.nonbasicPoint(j, st)
	}
	return true
}

// nonbasicPoint places nonbasic column j at the point implied by its
// snapshotted status, re-deriving the status when the bounds changed
// shape underneath it (a branch may fix a variable whose snapshot said
// free, etc.).
func (s *simplex) nonbasicPoint(j int, st vstat) (vstat, float64) {
	loFin, hiFin := !math.IsInf(s.lo[j], -1), !math.IsInf(s.hi[j], 1)
	switch st {
	case nbLower:
		if loFin {
			return nbLower, s.lo[j]
		}
	case nbUpper:
		if hiFin {
			return nbUpper, s.hi[j]
		}
	}
	switch {
	case loFin:
		return nbLower, s.lo[j]
	case hiFin:
		return nbUpper, s.hi[j]
	default:
		return nbFree, 0
	}
}

func (s *simplex) deadlineExceeded() bool {
	return !s.deadline.IsZero() && time.Now().After(s.deadline)
}

// dualRun iterates the bounded-variable dual simplex: while some basic
// variable violates a bound, pivot it out against the entering column
// that keeps the reduced costs dual feasible. Terminates with
// StatusOptimal when primal feasibility is restored, StatusInfeasible
// when a violated row has no feasible entering direction (a Farkas
// certificate independent of the objective), or the usual budget/numeric
// statuses.
//
// The reduced costs live in s.d. They are computed from fresh duals once
// per (re)factorization and otherwise updated from the pivot row the
// ratio test computes anyway, which saves a btran and a dot product per
// column on every iteration. Fixed columns never enter, so the ratio
// test skips them and their entries go stale; nothing reads them.
func (s *simplex) dualRun() Status {
	feasTol := math.Max(s.tol, 1e-9)
	sinceRefactor := 0
	s.refreshReducedCosts()
	for {
		if s.iters >= s.maxIter {
			return StatusIterationLimit
		}
		if s.deadlineExceeded() {
			return StatusIterationLimit
		}

		// Leaving row: the basic variable with the largest bound
		// violation.
		leaveRow := -1
		viol := 0.0
		worst := feasTol
		for r := 0; r < s.m; r++ {
			bi := s.basis[r]
			if d := s.x[bi] - s.hi[bi]; d > worst {
				leaveRow, worst, viol = r, d, d
			} else if d := s.lo[bi] - s.x[bi]; d > worst {
				leaveRow, worst, viol = r, d, -d
			}
		}
		if leaveRow < 0 {
			return StatusOptimal // primal feasible
		}

		s.iters++
		sinceRefactor++
		if sinceRefactor >= refactorEvery {
			if st := s.factorize(); st != StatusOptimal {
				return st
			}
			s.refreshReducedCosts()
			sinceRefactor = 0
			continue // re-scan: refreshed values may shift the pick
		}

		// rho = row leaveRow of B^{-1}; arow_j = rho . a_j.
		for r := 0; r < s.m; r++ {
			s.rho[r] = 0
		}
		s.rho[leaveRow] = 1
		s.btran(s.rho)

		// Dual ratio test: among columns that can absorb the violation,
		// pick the one whose reduced cost reaches zero first, keeping
		// the remaining columns dual feasible.
		enter := -1
		bestRatio := math.Inf(1)
		bestAbs := 0.0
		for j := 0; j < s.n; j++ {
			if s.stat[j] == basic || s.lo[j] == s.hi[j] {
				continue
			}
			arj := 0.0
			for _, e := range s.cols[j] {
				arj += s.rho[e.row] * e.coef
			}
			s.arow[j] = arj
			if math.Abs(arj) < 1e-9 {
				continue
			}
			// The entering step is viol/arj; it must move j into its
			// feasible direction.
			dq := viol / arj
			switch s.stat[j] {
			case nbLower:
				if dq < 0 {
					continue
				}
			case nbUpper:
				if dq > 0 {
					continue
				}
			}
			ratio := math.Abs(s.d[j]) / math.Abs(arj)
			if ratio < bestRatio-1e-12 ||
				(ratio <= bestRatio+1e-12 && math.Abs(arj) > bestAbs) {
				enter, bestRatio, bestAbs = j, ratio, math.Abs(arj)
			}
		}
		if enter < 0 {
			// No column can reduce the violation: every feasible point
			// puts this row's basic variable at least as far outside its
			// bound, so the problem is infeasible regardless of costs.
			return StatusInfeasible
		}

		// Full entering column for the primal update.
		for r := range s.alpha {
			s.alpha[r] = 0
		}
		for _, e := range s.cols[enter] {
			s.alpha[e.row] = e.coef
		}
		s.ftran(s.alpha)
		arj := s.alpha[leaveRow]
		if math.Abs(arj) < 1e-10 {
			// The ftran'd pivot disagrees with the btran'd row — drifted
			// factors. Rebuild and retry the iteration.
			if st := s.factorize(); st != StatusOptimal {
				return st
			}
			s.refreshReducedCosts()
			sinceRefactor = 0
			continue
		}

		// Reduced-cost update along the pivot row: the entering column's
		// reduced cost goes to zero and the leaving column, whose row
		// entry is 1, takes -theta.
		leave := s.basis[leaveRow]
		theta := s.d[enter] / s.arow[enter]
		for j := 0; j < s.n; j++ {
			if s.stat[j] != basic && s.lo[j] != s.hi[j] {
				s.d[j] -= theta * s.arow[j]
			}
		}
		s.d[enter] = 0
		s.d[leave] = -theta

		dq := viol / arj
		s.x[enter] += dq
		for r := 0; r < s.m; r++ {
			if s.alpha[r] != 0 {
				s.x[s.basis[r]] -= s.alpha[r] * dq
			}
		}
		// The leaving variable settles exactly on the bound it violated.
		if viol > 0 {
			s.stat[leave] = nbUpper
			s.x[leave] = s.hi[leave]
		} else {
			s.stat[leave] = nbLower
			s.x[leave] = s.lo[leave]
		}

		s.appendEta(s.alpha, leaveRow)
		s.basis[leaveRow] = enter
		s.stat[enter] = basic
	}
}

// refreshReducedCosts recomputes every reduced cost d_j = c_j - y.a_j
// from fresh duals; basic columns get exactly zero.
func (s *simplex) refreshReducedCosts() {
	s.computeDuals()
	s.d = s.d[:s.n]
	s.arow = s.arow[:s.n]
	for j := 0; j < s.n; j++ {
		if s.stat[j] == basic {
			s.d[j] = 0
			continue
		}
		s.d[j] = s.reducedCost(j)
	}
}
