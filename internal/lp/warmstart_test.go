package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// randomBoundedLP generates a bounded random LP in the size class of a
// branch-and-bound node relaxation: finite boxes on every variable so the
// solve can never be unbounded, mixed-sense constraints so both slack
// directions and artificials appear.
func randomBoundedLP(rng *rand.Rand) *Model {
	m := NewModel()
	n := 3 + rng.Intn(8)
	for v := 0; v < n; v++ {
		lo := float64(rng.Intn(9) - 4)
		m.AddVariable("v", lo, lo+float64(1+rng.Intn(12)), float64(rng.Intn(15)-7))
	}
	for c := 0; c < 2+rng.Intn(8); c++ {
		var terms []Term
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{VarID(v), float64(rng.Intn(9) - 4)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		m.AddConstraint("c", terms, Sense(rng.Intn(3)), float64(rng.Intn(41)-10))
	}
	return m
}

// branchBounds mimics a branch-and-bound child: pick a variable and
// tighten one side of its box to an integer point inside it, as the MILP
// layer does via bound overrides.
func branchBounds(rng *rand.Rand, m *Model, lo, hi []float64) {
	for tries := 0; tries < 3; tries++ {
		v := rng.Intn(m.NumVariables())
		l, h := m.Bounds(VarID(v))
		if !math.IsNaN(lo[v]) {
			l = lo[v]
		}
		if !math.IsNaN(hi[v]) {
			h = hi[v]
		}
		if h-l < 1 {
			continue
		}
		cut := math.Floor(l + float64(rng.Intn(int(h-l))) + 0.5)
		if rng.Intn(2) == 0 {
			hi[v] = cut
		} else {
			lo[v] = cut
		}
	}
}

// TestWarmStartMatchesColdProperty is the warm-start soundness property:
// for random LPs and random branch-style bound tightenings, the
// dual-simplex warm start from the parent's optimal basis must agree with
// a cold solve of the child — same status, and on optimal children the
// same objective with a feasible point. This is the invariant the MILP
// layer relies on when it reuses bases across branch-and-bound nodes.
func TestWarmStartMatchesColdProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	warmStarted := 0
	for trial := 0; trial < 500; trial++ {
		m := randomBoundedLP(rng)
		parent := Solve(m, Options{ReturnBasis: true})
		if parent.Status != StatusOptimal || parent.Basis == nil {
			continue
		}
		n := m.NumVariables()
		lo, hi := make([]float64, n), make([]float64, n)
		for v := range lo {
			lo[v], hi[v] = math.NaN(), math.NaN()
		}
		branchBounds(rng, m, lo, hi)

		cold := SolveWithBounds(m, Options{}, lo, hi)
		warm := SolveWithBounds(m, Options{WarmBasis: parent.Basis}, lo, hi)
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold status %v", trial, warm.Status, cold.Status)
		}
		if cold.Status != StatusOptimal {
			continue
		}
		warmStarted++
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: warm obj %g != cold obj %g", trial, warm.Objective, cold.Objective)
		}
		if err := m.CheckFeasible(warm.X, 1e-5); err != nil {
			t.Fatalf("trial %d: warm solution violates model: %v", trial, err)
		}
		for v := 0; v < n; v++ {
			l, h := effectiveBound(m, v, lo, hi)
			if warm.X[v] < l-1e-6 || warm.X[v] > h+1e-6 {
				t.Fatalf("trial %d: warm x[%d]=%g outside tightened [%g, %g]", trial, v, warm.X[v], l, h)
			}
		}
	}
	if warmStarted < 50 {
		t.Fatalf("only %d trials exercised the warm-start path; generator too restrictive", warmStarted)
	}
}

// TestDualReducedCostsMatchFresh is the invariant behind dualRun's
// incremental reduced costs: at the end of every warm dual run, the
// maintained d_j of each basic and each non-fixed nonbasic column must
// equal c_j - y.a_j recomputed from fresh duals. (Fixed columns never
// enter, so dualRun does not maintain theirs.)
func TestDualReducedCostsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	checked, pivoted := 0, 0
	for trial := 0; trial < 500; trial++ {
		m := randomBoundedLP(rng)
		parent := Solve(m, Options{ReturnBasis: true})
		if parent.Status != StatusOptimal || parent.Basis == nil {
			continue
		}
		n := m.NumVariables()
		lo, hi := make([]float64, n), make([]float64, n)
		for v := range lo {
			lo[v], hi[v] = math.NaN(), math.NaN()
		}
		branchBounds(rng, m, lo, hi)

		// warmSolve up to the end of its dual run.
		s := &Compile(m).NewWorkspace().s
		if s.setup(Options{}, lo, hi) != StatusOptimal || !s.installBasis(parent.Basis) ||
			s.factorize() != StatusOptimal {
			continue
		}
		s.cost = s.cost[:s.n]
		copy(s.cost, s.cost2)
		st := s.dualRun()
		if st != StatusOptimal && st != StatusInfeasible {
			continue
		}
		checked++
		if s.iters > 0 {
			pivoted++
		}
		s.computeDuals()
		for j := 0; j < s.n; j++ {
			want := 0.0
			switch {
			case s.stat[j] == basic:
			case s.lo[j] == s.hi[j]:
				continue
			default:
				want = s.reducedCost(j)
			}
			if math.Abs(s.d[j]-want) > 1e-7 {
				t.Fatalf("trial %d (%v after %d pivots): d[%d] = %g, fresh %g", trial, st, s.iters, j, s.d[j], want)
			}
		}
	}
	if checked < 100 || pivoted < 50 {
		t.Fatalf("only %d dual runs checked, %d with pivots; generator too restrictive", checked, pivoted)
	}
}

func effectiveBound(m *Model, v int, lo, hi []float64) (float64, float64) {
	l, h := m.Bounds(VarID(v))
	if !math.IsNaN(lo[v]) {
		l = lo[v]
	}
	if !math.IsNaN(hi[v]) {
		h = hi[v]
	}
	return l, h
}

// TestWarmStartFromStaleBasisFallsBack feeds a basis of the wrong shape;
// the solve must ignore it and still reach the optimum.
func TestWarmStartFromStaleBasisFallsBack(t *testing.T) {
	m := NewModel()
	x := m.AddVariable("x", 0, 4, -1)
	y := m.AddVariable("y", 0, 4, -2)
	m.AddConstraint("c", []Term{{x, 1}, {y, 1}}, LE, 5)
	bogus := &Basis{Basic: []int32{0, 1, 2}, Stat: []int8{0, 0, 0, 0, 0, 0, 0}}
	sol := Solve(m, Options{WarmBasis: bogus})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	approx(t, sol.Objective, -9, 1e-6, "obj") // y=4, x=1
}

// TestDeadlineExpiredReturnsImmediately pins the entry-point check: a
// deadline already in the past must short-circuit before any setup work.
func TestDeadlineExpiredReturnsImmediately(t *testing.T) {
	m := NewModel()
	for v := 0; v < 50; v++ {
		m.AddVariable("v", 0, 1, -1)
	}
	start := time.Now()
	sol := Solve(m, Options{Deadline: start.Add(-time.Second)})
	if sol.Status != StatusIterationLimit {
		t.Fatalf("status = %v, want iteration limit", sol.Status)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("expired-deadline solve took %s", elapsed)
	}
}

// TestDeadlinePolledInsideSolve is the regression test for the PR5
// benchmark's budget blowout: the un-deadlined dense refactorization let a
// single Solve call overshoot its deadline by tens of seconds. Every
// phase loop and the factorization itself now poll the deadline, so even
// a model large enough to need many pivots and several refactorizations
// must come back within a small multiple of the budget, never a large
// one. The allowance (150ms) is the cost of at most one pivot plus one
// sparse factorization on this size class — if a future change
// reintroduces an unpolled O(m^3) stage, this test fails by seconds, not
// milliseconds.
func TestDeadlinePolledInsideSolve(t *testing.T) {
	// Assignment-relaxation LP, large enough that a full solve needs
	// hundreds of pivots (and therefore crosses refactorEvery).
	const n = 40
	m := NewModel()
	rng := rand.New(rand.NewSource(99))
	vars := make([][]VarID, n)
	for i := range vars {
		vars[i] = make([]VarID, n)
		for j := range vars[i] {
			vars[i][j] = m.AddVariable("x", 0, 1, float64(rng.Intn(100)))
		}
	}
	for i := 0; i < n; i++ {
		var row, col []Term
		for j := 0; j < n; j++ {
			row = append(row, Term{vars[i][j], 1})
			col = append(col, Term{vars[j][i], 1})
		}
		m.AddConstraint("r", row, EQ, 1)
		m.AddConstraint("c", col, EQ, 1)
	}
	const budget = 20 * time.Millisecond
	start := time.Now()
	sol := Solve(m, Options{Deadline: start.Add(budget)})
	elapsed := time.Since(start)
	if elapsed > budget+150*time.Millisecond {
		t.Fatalf("solve with %s deadline returned after %s", budget, elapsed)
	}
	if sol.Status == StatusOptimal {
		// Fast machines may finish inside the budget; that satisfies the
		// contract trivially but still verifies the answer.
		if err := m.CheckFeasible(sol.X, 1e-5); err != nil {
			t.Fatal(err)
		}
	}
}
