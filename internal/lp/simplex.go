package lp

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
)

// Status reports the outcome of an LP solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterationLimit
	StatusNumericalFailure
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterationLimit:
		return "iteration-limit"
	case StatusNumericalFailure:
		return "numerical-failure"
	}
	return "unknown"
}

// Solution is the result of an LP solve.
type Solution struct {
	Status     Status
	Objective  float64
	X          []float64 // structural variable values
	Iterations int
	// Basis is the final basis snapshot when Options.ReturnBasis was set
	// and the solve ended optimal with no artificial left basic. It warm
	// starts subsequent solves of the same model under changed bounds.
	Basis *Basis
}

// Options tunes the simplex solver. The zero value selects defaults.
type Options struct {
	// MaxIterations bounds the total simplex iterations across both
	// phases (0 = default).
	MaxIterations int
	// Tol is the feasibility/optimality tolerance (0 = default 1e-7).
	Tol float64
	// Deadline, when nonzero, bounds the wall-clock time of the solve.
	// A solve cut short by the deadline reports StatusIterationLimit,
	// which callers already treat as "no usable relaxation". Every stage
	// of the solve polls it, including basis refactorization.
	Deadline time.Time
	// WarmBasis, when non-nil, starts the solve from this basis via the
	// dual simplex instead of the two-phase primal from scratch. The
	// basis must come from a solve of the same model (same variable and
	// constraint count); only bounds may differ. Invalid or numerically
	// unusable bases fall back to a cold solve, so a warm start never
	// changes the answer — only the work needed to reach it.
	WarmBasis *Basis
	// ReturnBasis requests a Basis snapshot on Solution for warm-starting
	// later solves.
	ReturnBasis bool
	// Obs, when non-nil, receives the pivot count of each solve (the
	// obs.Pivots counter). The LP core is the sole reporter of pivots so
	// layered callers (MILP branch-and-bound) never double-count.
	Obs obs.Span
}

const (
	defaultTol = 1e-7
	// refactorEvery bounds eta-file growth: after this many pivots the
	// product-form inverse is rebuilt from the basis columns. With the
	// sparse factorization this costs about as much as a handful of
	// pivots, unlike the dense O(m^3) rebuild it replaced.
	refactorEvery = 100
	// blandTrigger is the number of consecutive degenerate iterations
	// after which the solver switches to Bland's anti-cycling rule.
	blandTrigger = 60
)

// variable status within the simplex tableau.
type vstat int8

const (
	nbLower vstat = iota // nonbasic at lower bound
	nbUpper              // nonbasic at upper bound
	nbFree               // nonbasic free variable, value 0
	basic
)

type sparseEntry struct {
	row  int
	coef float64
}

// simplex holds the working state of a solve. It lives in a Workspace
// and is reset, not reallocated, by each solve: NewWorkspace fits its
// buffers once and solves reslice them (only the eta file and its arena
// grow, and they keep their capacity across solves and, through the
// workspace pool, across models).
type simplex struct {
	c       *Compiled
	m, n    int // rows, total columns (structural + slack + artificial)
	nStruct int
	cols    [][]sparseEntry // c's columns, then this solve's artificials
	lo, hi  []float64
	cost    []float64 // current phase costs
	cost2   []float64 // phase-2 costs
	b       []float64 // the model's right-hand sides (read-only)

	basis []int   // row -> column
	stat  []vstat // column -> status
	x     []float64
	// xOut is the X of the last solution: the workspace owns it.
	xOut []float64
	// freeBases are recycled snapshots that snapshotBasis overwrites
	// before it allocates a new one.
	freeBases []*Basis
	etas      []eta // product-form basis inverse
	// etaRows and etaVals are the arena the etas' rows and vals slice
	// into. They are truncated only together with etas.
	etaRows  []int32
	etaVals  []float64
	tol      float64
	iters    int
	maxIter  int
	deadline time.Time

	degenStreak int
	bland       bool

	// scratch buffers
	y     []float64
	alpha []float64
	rho   []float64
	// d and arow are the dual simplex's per-column reduced costs and
	// pivot row (see dualRun).
	d       []float64
	arow    []float64
	inBasis []bool // warm-start duplicate check
	// factorization scratch
	forder   []int
	fcount   []int // counting-sort buckets by column length
	fpivoted []bool
	fbasis   []int
	fmark    []bool
	find     []int32
	fwork    []float64
}

// Solve minimizes the model objective subject to its constraints and
// bounds. Integrality markers are ignored (use internal/milp).
func Solve(m *Model, opts Options) Solution {
	return SolveWithBounds(m, opts, nil, nil)
}

// SolveWithBounds solves the model with per-variable bound overrides.
// Either override slice may be nil (use model bounds); individual entries
// equal to NaN also fall back to the model bound. Repeated solves of one
// model, such as branch-and-bound nodes, should go through a Workspace,
// which compiles the matrix and allocates the working arrays only once.
func SolveWithBounds(m *Model, opts Options, loOverride, hiOverride []float64) Solution {
	// Poll before compiling, so an expired deadline costs no setup work.
	if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
		return Solution{Status: StatusIterationLimit}
	}
	w := Compile(m).NewWorkspace()
	sol := w.SolveWithBounds(m, opts, loOverride, hiOverride)
	sol.X = slices.Clone(sol.X) // the caller's, not the pooled workspace's
	w.Release()
	return sol
}

// solve runs one solve of the compiled model on s: a warm start when
// opts.WarmBasis is usable, the cold two-phase primal otherwise.
func (s *simplex) solve(opts Options, loOverride, hiOverride []float64) Solution {
	if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
		return Solution{Status: StatusIterationLimit}
	}
	if st := s.setup(opts, loOverride, hiOverride); st != StatusOptimal {
		return Solution{Status: st}
	}

	if opts.WarmBasis != nil {
		if sol, ok := s.warmSolve(opts.WarmBasis, opts.ReturnBasis); ok {
			return sol
		}
		// Warm start unusable (stale basis, numerical trouble): rebuild
		// clean state and fall through to the cold two-phase solve.
		iters := s.iters
		if st := s.setup(opts, loOverride, hiOverride); st != StatusOptimal {
			return Solution{Status: st}
		}
		s.iters = iters
	}

	if status := s.initialize(); status != StatusOptimal {
		return Solution{Status: status, Iterations: s.iters}
	}

	// Phase 1 if artificials were needed.
	total := s.nStruct + s.m
	if s.n > total {
		s.cost = s.cost[:s.n]
		clear(s.cost)
		for j := total; j < s.n; j++ {
			s.cost[j] = 1
		}
		st := s.run()
		if st != StatusOptimal {
			if st == StatusUnbounded {
				// A minimization of a nonnegative sum cannot be
				// unbounded; treat as numerical failure.
				st = StatusNumericalFailure
			}
			return Solution{Status: st, Iterations: s.iters}
		}
		if s.phaseObjective() > 1e-6 {
			return Solution{Status: StatusInfeasible, Iterations: s.iters}
		}
		// Freeze artificials at zero for phase 2.
		for j := total; j < s.n; j++ {
			s.lo[j], s.hi[j] = 0, 0
			if s.stat[j] != basic {
				s.stat[j] = nbLower
				s.x[j] = 0
			}
		}
	}

	// Phase 2.
	s.cost = s.cost[:s.n]
	copy(s.cost, s.cost2)
	s.bland = false
	s.degenStreak = 0
	if st := s.run(); st != StatusOptimal {
		return Solution{Status: st, Iterations: s.iters}
	}
	return s.solution(opts.ReturnBasis)
}

// solution packages the optimal point currently held by the simplex. Its
// X is s.xOut, overwritten by the next solution.
func (s *simplex) solution(returnBasis bool) Solution {
	x := s.xOut[:s.nStruct]
	copy(x, s.x[:s.nStruct])
	obj := 0.0
	for j := 0; j < s.nStruct; j++ {
		obj += s.cost2[j] * x[j]
	}
	sol := Solution{Status: StatusOptimal, Objective: obj, X: x, Iterations: s.iters}
	if returnBasis {
		sol.Basis = s.snapshotBasis()
	}
	return sol
}

// setup resets the working arrays for a solve: bounds with overrides
// applied over the compiled columns, phase-2 costs, counters. It returns
// StatusInfeasible when an override crosses its bound.
func (s *simplex) setup(opts Options, loOverride, hiOverride []float64) Status {
	c, m := s.c, s.c.model
	tol := opts.Tol
	if tol <= 0 {
		tol = defaultTol
	}
	nStruct, rows := c.nStruct, c.m
	total := nStruct + rows
	s.m, s.nStruct, s.n = rows, nStruct, total
	s.tol = tol
	s.iters, s.degenStreak, s.bland = 0, 0, false
	s.maxIter = opts.MaxIterations
	if s.maxIter <= 0 {
		s.maxIter = 2000 + 40*(rows+nStruct)
	}
	s.deadline = opts.Deadline

	s.cols = s.cols[:total]
	s.lo, s.hi, s.cost2 = s.lo[:total], s.hi[:total], s.cost2[:total]
	for j := 0; j < nStruct; j++ {
		s.lo[j] = m.lo[j]
		s.hi[j] = m.hi[j]
		if loOverride != nil && j < len(loOverride) && !math.IsNaN(loOverride[j]) {
			s.lo[j] = loOverride[j]
		}
		if hiOverride != nil && j < len(hiOverride) && !math.IsNaN(hiOverride[j]) {
			s.hi[j] = hiOverride[j]
		}
		if s.lo[j] > s.hi[j]+tol {
			return StatusInfeasible
		}
		if s.lo[j] > s.hi[j] {
			s.lo[j] = s.hi[j]
		}
		s.cost2[j] = m.obj[j]
	}
	copy(s.lo[nStruct:], c.slackLo)
	copy(s.hi[nStruct:], c.slackHi)
	clear(s.cost2[nStruct:])
	s.b = m.rhs
	return StatusOptimal
}

// initialize sets the cold starting point: structurals at a finite bound
// (or 0 if free), slacks basic where feasible, artificials elsewhere. The
// initial basis is diagonal, so its product-form inverse needs one eta per
// negative-signed artificial and nothing else.
func (s *simplex) initialize() Status {
	s.x = s.x[:s.n]
	s.stat = s.stat[:s.n]
	for j := 0; j < s.nStruct; j++ {
		switch {
		case !math.IsInf(s.lo[j], -1):
			s.stat[j] = nbLower
			s.x[j] = s.lo[j]
		case !math.IsInf(s.hi[j], 1):
			s.stat[j] = nbUpper
			s.x[j] = s.hi[j]
		default:
			s.stat[j] = nbFree
			s.x[j] = 0
		}
	}

	// Row activity of the nonbasic structurals, accumulated in alpha,
	// which run rewrites before every read.
	act := s.alpha
	clear(act)
	for j := 0; j < s.nStruct; j++ {
		if v := s.x[j]; v != 0 {
			for _, e := range s.cols[j] {
				act[e.row] += e.coef * v
			}
		}
	}

	s.resetEtas()
	for r := 0; r < s.m; r++ {
		slack := s.nStruct + r
		resid := s.b[r] - act[r]
		if resid >= s.lo[slack]-s.tol && resid <= s.hi[slack]+s.tol {
			// Slack is basic and feasible.
			s.basis[r] = slack
			s.stat[slack] = basic
			s.x[slack] = clamp(resid, s.lo[slack], s.hi[slack])
			continue
		}
		// Clamp the slack at its nearest bound and cover the residual
		// with an artificial variable.
		var sv float64
		if resid < s.lo[slack] {
			sv = s.lo[slack]
			s.stat[slack] = nbLower
		} else {
			sv = s.hi[slack]
			s.stat[slack] = nbUpper
		}
		s.x[slack] = sv
		gap := resid - sv
		sign := 1.0
		if gap < 0 {
			sign = -1.0
		}
		aj := len(s.cols)
		s.cols = append(s.cols, s.c.artificial(r, sign))
		s.lo = append(s.lo, 0)
		s.hi = append(s.hi, Inf)
		s.cost2 = append(s.cost2, 0)
		s.x = append(s.x, math.Abs(gap))
		s.stat = append(s.stat, basic)
		s.basis[r] = aj
		if sign < 0 {
			s.etas = append(s.etas, eta{r: int32(r), alphaR: sign})
		}
		s.n++
	}
	return StatusOptimal
}

func (s *simplex) phaseObjective() float64 {
	v := 0.0
	for j, c := range s.cost {
		if c != 0 {
			v += c * s.x[j]
		}
	}
	return v
}

// run iterates the bounded-variable revised simplex until optimality,
// unboundedness, or the iteration limit.
func (s *simplex) run() Status {
	sinceRefactor := 0
	for {
		if s.iters >= s.maxIter {
			return StatusIterationLimit
		}
		// A clock read is trivial next to a pivot, so the deadline is
		// polled every iteration.
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			return StatusIterationLimit
		}
		s.iters++
		sinceRefactor++
		if sinceRefactor >= refactorEvery {
			if st := s.factorize(); st != StatusOptimal {
				return st
			}
			sinceRefactor = 0
		}

		s.computeDuals()
		enter, dir := s.price()
		if enter < 0 {
			return StatusOptimal
		}

		// alpha = B^{-1} a_enter
		for r := range s.alpha {
			s.alpha[r] = 0
		}
		for _, e := range s.cols[enter] {
			s.alpha[e.row] = e.coef
		}
		s.ftran(s.alpha)

		leaveRow, step, flip, ok := s.ratioTest(enter, dir)
		if !ok {
			return StatusUnbounded
		}
		if step < s.tol {
			s.degenStreak++
			if s.degenStreak > blandTrigger {
				s.bland = true
			}
		} else {
			s.degenStreak = 0
			s.bland = false
		}

		// Move the entering variable and update basic values.
		s.x[enter] += dir * step
		if step != 0 {
			for r := 0; r < s.m; r++ {
				if s.alpha[r] != 0 {
					s.x[s.basis[r]] -= dir * step * s.alpha[r]
				}
			}
		}

		if flip {
			// Bound flip: the entering variable moved to its other
			// bound; the basis is unchanged.
			if dir > 0 {
				s.stat[enter] = nbUpper
				s.x[enter] = s.hi[enter]
			} else {
				s.stat[enter] = nbLower
				s.x[enter] = s.lo[enter]
			}
			continue
		}

		leave := s.basis[leaveRow]
		// The leaving variable settles at the bound it hit.
		if dir*s.alpha[leaveRow] > 0 {
			s.stat[leave] = nbLower
			s.x[leave] = s.lo[leave]
		} else {
			s.stat[leave] = nbUpper
			s.x[leave] = s.hi[leave]
		}
		if math.IsInf(s.lo[leave], -1) && math.IsInf(s.hi[leave], 1) {
			s.stat[leave] = nbFree
			s.x[leave] = 0
		}

		// Pivot: append the eta encoding this basis change.
		piv := s.alpha[leaveRow]
		if math.Abs(piv) < 1e-10 {
			if st := s.factorize(); st != StatusOptimal {
				return st
			}
			sinceRefactor = 0
			continue
		}
		s.appendEta(s.alpha, leaveRow)
		s.basis[leaveRow] = enter
		s.stat[enter] = basic
	}
}

// computeDuals sets y = c_B^T B^{-1} via a backward transformation of the
// basic costs through the eta file.
func (s *simplex) computeDuals() {
	for r := 0; r < s.m; r++ {
		s.y[r] = s.cost[s.basis[r]]
	}
	s.btran(s.y)
}

// price selects the entering column and its direction (+1 to increase, -1
// to decrease), or (-1, 0) at optimality. Dantzig pricing with a Bland
// fallback under degeneracy.
func (s *simplex) price() (enter int, dir float64) {
	best := -1
	bestScore := s.tol
	bestDir := 0.0
	for j := 0; j < s.n; j++ {
		st := s.stat[j]
		if st == basic {
			continue
		}
		if s.lo[j] == s.hi[j] && st != nbFree {
			continue // fixed variable can never improve
		}
		d := s.reducedCost(j)
		var score, dj float64
		switch st {
		case nbLower:
			if d < -s.tol {
				score, dj = -d, 1
			}
		case nbUpper:
			if d > s.tol {
				score, dj = d, -1
			}
		case nbFree:
			if d < -s.tol {
				score, dj = -d, 1
			} else if d > s.tol {
				score, dj = d, -1
			}
		}
		if dj == 0 {
			continue
		}
		if s.bland {
			return j, dj
		}
		if score > bestScore {
			best, bestScore, bestDir = j, score, dj
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestDir
}

func (s *simplex) reducedCost(j int) float64 {
	d := s.cost[j]
	for _, e := range s.cols[j] {
		d -= s.y[e.row] * e.coef
	}
	return d
}

// ratioTest computes the maximal step for the entering variable. It
// returns the limiting basic row (or -1), the step, whether the limit is
// the entering variable's own opposite bound (a bound flip), and false
// when the problem is unbounded in this direction.
func (s *simplex) ratioTest(enter int, dir float64) (leaveRow int, step float64, flip bool, ok bool) {
	step = math.Inf(1)
	leaveRow = -1
	// Entering variable's own range.
	if r := s.hi[enter] - s.lo[enter]; !math.IsInf(r, 1) {
		step = r
		flip = true
	}
	for r := 0; r < s.m; r++ {
		a := dir * s.alpha[r]
		if math.Abs(a) < 1e-9 {
			continue
		}
		bi := s.basis[r]
		var limit float64
		if a > 0 {
			if math.IsInf(s.lo[bi], -1) {
				continue
			}
			limit = (s.x[bi] - s.lo[bi]) / a
		} else {
			if math.IsInf(s.hi[bi], 1) {
				continue
			}
			limit = (s.x[bi] - s.hi[bi]) / a
		}
		if limit < 0 {
			limit = 0
		}
		better := limit < step-1e-12
		tie := !better && limit <= step+1e-12
		if better ||
			(tie && leaveRow >= 0 && s.tieBreak(r, leaveRow)) ||
			(tie && leaveRow < 0 && flip) {
			step = limit
			leaveRow = r
			flip = false
		}
	}
	if math.IsInf(step, 1) {
		return -1, 0, false, false
	}
	return leaveRow, step, flip, true
}

// tieBreak prefers r over current when ratios tie: Bland's rule picks the
// lowest basis column index; otherwise prefer the larger pivot magnitude
// for numerical stability.
func (s *simplex) tieBreak(r, current int) bool {
	if s.bland {
		return s.basis[r] < s.basis[current]
	}
	return math.Abs(s.alpha[r]) > math.Abs(s.alpha[current])
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String renders a short human-readable description of a solution.
func (sol Solution) String() string {
	return fmt.Sprintf("%s obj=%.6g iters=%d", sol.Status, sol.Objective, sol.Iterations)
}
