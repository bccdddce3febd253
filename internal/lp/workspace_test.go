package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// nodeLP is a fixed LP in the shape of a floorplanning relaxation: boxed
// variables, mixed-sense rows whose right-hand sides force artificials on
// a cold start, and two structurally identical columns (0 and 1) so a
// basis holding both is singular.
func nodeLP() *Model {
	rng := rand.New(rand.NewSource(77))
	m := NewModel()
	const n, rows = 24, 18
	for v := 0; v < n; v++ {
		m.AddVariable(fmt.Sprintf("v%d", v), 0, float64(2+rng.Intn(6)), float64(rng.Intn(11)-5))
	}
	for r := 0; r < rows; r++ {
		var terms []Term
		for v := 2; v < n; v++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{VarID(v), float64(1 + rng.Intn(4))})
			}
		}
		if r%3 == 0 {
			c := float64(1 + rng.Intn(3))
			terms = append(terms, Term{0, c}, Term{1, c})
		}
		sense := Sense(r % 3)
		rhs := float64(2 + rng.Intn(12))
		if sense == LE {
			rhs += 20
		}
		m.AddConstraint(fmt.Sprintf("c%d", r), terms, sense, rhs)
	}
	return m
}

func nanBounds(n int) (lo, hi []float64) {
	lo, hi = make([]float64, n), make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = math.NaN(), math.NaN()
	}
	return lo, hi
}

// sameSolution requires bit-identical results: the workspace must do the
// same arithmetic as a fresh solve, not merely reach the same optimum.
func sameSolution(t *testing.T, label string, got, want Solution) {
	t.Helper()
	if got.Status != want.Status || got.Iterations != want.Iterations ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: workspace %v, fresh %v", label, got, want)
	}
	if !reflect.DeepEqual(got.X, want.X) {
		t.Fatalf("%s: X differs\nworkspace %v\nfresh     %v", label, got.X, want.X)
	}
	if !reflect.DeepEqual(got.Basis, want.Basis) {
		t.Fatalf("%s: Basis differs\nworkspace %+v\nfresh     %+v", label, got.Basis, want.Basis)
	}
}

// singularBasis makes both duplicate columns of nodeLP basic, so the warm
// start's factorization fails and the solve falls back to a cold start
// after the workspace state was already rewritten.
func singularBasis(m *Model) *Basis {
	nStruct, rows := m.NumVariables(), m.NumConstraints()
	b := &Basis{Basic: make([]int32, rows), Stat: make([]int8, nStruct+rows)}
	b.Basic[0], b.Basic[1] = 0, 1
	b.Stat[0], b.Stat[1] = int8(basic), int8(basic)
	for r := 2; r < rows; r++ {
		b.Basic[r] = int32(nStruct + r)
		b.Stat[nStruct+r] = int8(basic)
	}
	return b
}

// poison scribbles over every part of the workspace a solve must reset
// or fully rewrite before reading, so a missed reset shows up as a
// difference from a fresh solve.
func poison(s *simplex) {
	s.iters, s.degenStreak, s.bland = 12345, 1000, true
	for _, buf := range [][]float64{s.lo, s.hi, s.cost, s.cost2, s.x} {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	for _, buf := range [][]float64{s.y, s.alpha, s.rho} {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	stat := s.stat[:cap(s.stat)]
	for i := range stat {
		stat[i] = basic
	}
	for i := range s.basis {
		s.basis[i] = 0
	}
	for i := range s.inBasis {
		s.inBasis[i] = true
	}
}

// TestWorkspaceMatchesFresh solves one model under random bound overrides
// through a single reused workspace and requires each answer to equal a
// fresh solve: cold solves with phase 1, warm solves from earlier bases,
// and warm starts that must fall back (wrong-shape and singular bases).
func TestWorkspaceMatchesFresh(t *testing.T) {
	m := nodeLP()
	ws := Compile(m).NewWorkspace()
	rng := rand.New(rand.NewSource(5))
	var bases []*Basis
	phase1, warm := 0, 0
	for trial := 0; trial < 300; trial++ {
		lo, hi := nanBounds(m.NumVariables())
		for k := rng.Intn(4); k > 0; k-- {
			branchBounds(rng, m, lo, hi)
		}
		opts := Options{ReturnBasis: true}
		switch kind := trial % 4; {
		case kind == 1 && len(bases) > 0:
			opts.WarmBasis = bases[rng.Intn(len(bases))]
			warm++
		case kind == 2:
			opts.WarmBasis = singularBasis(m)
		case kind == 3 && trial%8 == 3:
			opts.WarmBasis = &Basis{Basic: []int32{0}, Stat: []int8{3}}
		}
		poison(&ws.s)
		got := ws.SolveWithBounds(m, opts, lo, hi)
		if opts.WarmBasis == nil && ws.s.n > ws.s.nStruct+ws.s.m {
			phase1++
		}
		want := SolveWithBounds(m, opts, lo, hi)
		sameSolution(t, fmt.Sprintf("trial %d", trial), got, want)
		if got.Basis != nil {
			bases = append(bases, got.Basis)
		}
	}
	if phase1 < 20 || warm < 20 {
		t.Fatalf("coverage too thin: %d cold solves with artificials, %d warm solves", phase1, warm)
	}
}

// TestWorkspaceOtherModel hands a workspace a model it was not compiled
// from, and a model that gained a row after compiling: both must be
// solved from scratch, and the workspace must still serve its own model.
func TestWorkspaceOtherModel(t *testing.T) {
	m := nodeLP()
	ws := Compile(m).NewWorkspace()
	lo, hi := nanBounds(m.NumVariables())
	own := ws.SolveWithBounds(m, Options{ReturnBasis: true}, lo, hi)
	sameSolution(t, "own model", own, SolveWithBounds(m, Options{ReturnBasis: true}, lo, hi))

	other := NewModel()
	x := other.AddVariable("x", 0, 4, -1)
	y := other.AddVariable("y", 0, 4, -2)
	other.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 5)
	got := ws.SolveWithBounds(other, Options{ReturnBasis: true}, nil, nil)
	sameSolution(t, "other model", got, SolveWithBounds(other, Options{ReturnBasis: true}, nil, nil))

	again := ws.SolveWithBounds(m, Options{WarmBasis: own.Basis, ReturnBasis: true}, lo, hi)
	sameSolution(t, "own model after other", again, SolveWithBounds(m, Options{WarmBasis: own.Basis, ReturnBasis: true}, lo, hi))

	grown := nodeLP()
	gws := Compile(grown).NewWorkspace()
	grown.AddConstraint("extra", []Term{{2, 1}, {3, 1}}, LE, 1)
	got = gws.SolveWithBounds(grown, Options{}, lo, hi)
	want := SolveWithBounds(grown, Options{}, lo, hi)
	sameSolution(t, "grown model", got, want)
	if err := grown.CheckFeasible(got.X, 1e-6); got.Status == StatusOptimal && err != nil {
		t.Fatalf("grown model: %v", err)
	}
}

// TestWarmNodeSolveAllocations pins the point of the workspace: once its
// eta arena has grown and its basis free list holds a recycled snapshot,
// a warm-started node solve allocates nothing. X lives in the workspace
// and the Basis is the recycled one, overwritten.
func TestWarmNodeSolveAllocations(t *testing.T) {
	m := nodeLP()
	root := Solve(m, Options{ReturnBasis: true})
	if root.Status != StatusOptimal || root.Basis == nil {
		t.Fatalf("root: %v", root)
	}
	lo, hi := nanBounds(m.NumVariables())
	for v := 2; v < m.NumVariables(); v++ {
		if x := root.X[v]; x != math.Floor(x) {
			hi[v] = math.Floor(x)
			break
		}
	}
	ws := Compile(m).NewWorkspace()
	opts := Options{WarmBasis: root.Basis, ReturnBasis: true}
	sol := ws.SolveWithBounds(m, opts, lo, hi)
	if sol.Status != StatusOptimal || sol.Iterations == 0 || sol.Basis == nil {
		t.Fatalf("node solve: %v", sol)
	}
	ws.RecycleBasis(sol.Basis)
	arena := cap(ws.s.etaRows)
	allocs := testing.AllocsPerRun(50, func() {
		sol := ws.SolveWithBounds(m, opts, lo, hi)
		ws.RecycleBasis(sol.Basis)
	})
	if allocs != 0 {
		t.Fatalf("warm node solve allocates %.2f times, want none", allocs)
	}
	// The arena is reset with the eta file, so repeating a solve never
	// grows it.
	if got := cap(ws.s.etaRows); got != arena {
		t.Fatalf("eta arena grew from %d to %d entries over repeated solves", arena, got)
	}
}

// TestRecycledBasisMatchesFresh recycles every returned basis at once
// and requires the overwritten snapshot to equal a fresh solve's.
func TestRecycledBasisMatchesFresh(t *testing.T) {
	m := nodeLP()
	ws := Compile(m).NewWorkspace()
	rng := rand.New(rand.NewSource(9))
	stale := &Basis{Basic: make([]int32, 1), Stat: make([]int8, 1)} // too small to reuse
	ws.RecycleBasis(stale)
	for trial := 0; trial < 60; trial++ {
		lo, hi := nanBounds(m.NumVariables())
		branchBounds(rng, m, lo, hi)
		got := ws.SolveWithBounds(m, Options{ReturnBasis: true}, lo, hi)
		want := SolveWithBounds(m, Options{ReturnBasis: true}, lo, hi)
		sameSolution(t, fmt.Sprintf("trial %d", trial), got, want)
		if got.Basis == stale {
			t.Fatal("a basis too small for the model was reused")
		}
		ws.RecycleBasis(got.Basis)
	}
}

// TestReleasedWorkspaceRefits solves a large model, releases the
// workspace, and requires the pooled buffers refitted to a smaller and
// then a larger model to give fresh solves' answers.
func TestReleasedWorkspaceRefits(t *testing.T) {
	small := NewModel()
	x := small.AddVariable("x", 0, 4, -1)
	y := small.AddVariable("y", 0, 4, -2)
	small.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 5)
	small.AddConstraint("d", []Term{{x, 1}, {y, 2}}, LE, 9)
	big := nodeLP()
	for _, m := range []*Model{big, small, big, small} {
		ws := Compile(m).NewWorkspace()
		poison(&ws.s)
		lo, hi := nanBounds(m.NumVariables())
		got := ws.SolveWithBounds(m, Options{ReturnBasis: true}, lo, hi)
		got.X = append([]float64(nil), got.X...)
		ws.Release()
		var ref Workspace // never pooled
		ref.s.bind(Compile(m))
		want := ref.SolveWithBounds(m, Options{ReturnBasis: true}, lo, hi)
		sameSolution(t, fmt.Sprintf("%d variables", m.NumVariables()), got, want)
	}
}

// TestFactorizeOrder checks the counting sort against the comparison
// sort it replaced: rows by basic-column length, ties by row.
func TestFactorizeOrder(t *testing.T) {
	m := nodeLP()
	root := Solve(m, Options{ReturnBasis: true})
	ws := Compile(m).NewWorkspace()
	s := &ws.s
	s.setup(Options{}, nil, nil)
	if _, ok := s.warmSolve(root.Basis, false); !ok {
		t.Fatal("warm start from the root basis failed")
	}
	if st := s.factorize(); st != StatusOptimal {
		t.Fatalf("factorize: %v", st)
	}
	want := make([]int, s.m)
	for r := range want {
		want[r] = r
	}
	sort.SliceStable(want, func(a, b int) bool {
		return len(s.cols[s.basis[want[a]]]) < len(s.cols[s.basis[want[b]]])
	})
	if !reflect.DeepEqual(s.forder, want) {
		t.Fatalf("factorize order %v, want %v", s.forder, want)
	}
	lengths := map[int]bool{}
	for _, j := range s.basis {
		lengths[len(s.cols[j])] = true
	}
	if len(lengths) < 3 {
		t.Fatalf("basis has only %d distinct column lengths; the check is too weak", len(lengths))
	}
}
