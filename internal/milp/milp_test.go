package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
	// Candidates: a+c (val 17, w 5), b+c (20, 6) <- optimum, a+b (w 7 no).
	m := lp.NewModel()
	a := m.AddBinary("a", -10)
	b := m.AddBinary("b", -13)
	c := m.AddBinary("c", -7)
	m.AddConstraint("w", []lp.Term{{Var: a, Coef: 3}, {Var: b, Coef: 4}, {Var: c, Coef: 2}}, lp.LE, 6)
	res := Solve(context.Background(), m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-(-20)) > 1e-6 {
		t.Fatalf("objective = %g, want -20", res.Objective)
	}
	if math.Round(res.X[b]) != 1 || math.Round(res.X[c]) != 1 || math.Round(res.X[a]) != 0 {
		t.Fatalf("solution = %v", res.X)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2x = 1 with x integer: LP feasible (x=0.5) but no integer point.
	m := lp.NewModel()
	x := m.AddInteger("x", 0, 10, 1)
	m.AddConstraint("c", []lp.Term{{Var: x, Coef: 2}}, lp.EQ, 1)
	res := Solve(context.Background(), m, Options{})
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestLPInfeasibleRoot(t *testing.T) {
	m := lp.NewModel()
	x := m.AddInteger("x", 0, 10, 1)
	m.AddConstraint("lo", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 7)
	m.AddConstraint("hi", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 2)
	res := Solve(context.Background(), m, Options{})
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := lp.NewModel()
	m.AddInteger("x", 0, math.Inf(1), -1)
	res := Solve(context.Background(), m, Options{})
	if res.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -y - 10x  s.t. y <= 2.5 + 0.5x, y <= 10 - x, x binary, y >= 0.
	// x=1: y <= 3 and y <= 9 -> y = 3, obj = -13.
	// x=0: y <= 2.5 -> obj = -2.5.
	m := lp.NewModel()
	x := m.AddBinary("x", -10)
	y := m.AddVariable("y", 0, lp.Inf, -1)
	m.AddConstraint("c1", []lp.Term{{Var: y, Coef: 1}, {Var: x, Coef: -0.5}}, lp.LE, 2.5)
	m.AddConstraint("c2", []lp.Term{{Var: y, Coef: 1}, {Var: x, Coef: 1}}, lp.LE, 10)
	res := Solve(context.Background(), m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-(-13)) > 1e-6 {
		t.Fatalf("objective = %g, want -13", res.Objective)
	}
}

func TestWarmStartAcceptedAndImproved(t *testing.T) {
	m := lp.NewModel()
	a := m.AddBinary("a", -3)
	b := m.AddBinary("b", -5)
	m.AddConstraint("w", []lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, lp.LE, 1)
	var incumbents []float64
	res := Solve(context.Background(), m, Options{
		WarmStart:   []float64{1, 0}, // obj -3, suboptimal
		OnIncumbent: func(obj float64, _ []float64) { incumbents = append(incumbents, obj) },
	})
	if res.Status != StatusOptimal || math.Abs(res.Objective-(-5)) > 1e-6 {
		t.Fatalf("res = %+v", res)
	}
	if len(incumbents) < 2 || incumbents[0] != -3 {
		t.Fatalf("incumbent trail = %v, want warm start then improvement", incumbents)
	}
}

func TestInvalidWarmStartIgnored(t *testing.T) {
	m := lp.NewModel()
	a := m.AddBinary("a", -1)
	m.AddConstraint("w", []lp.Term{{Var: a, Coef: 1}}, lp.LE, 0)
	res := Solve(context.Background(), m, Options{WarmStart: []float64{1}})
	if res.Status != StatusOptimal || math.Abs(res.Objective) > 1e-9 {
		t.Fatalf("res = %+v", res)
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	m := hardKnapsack(30, 99)
	res := Solve(context.Background(), m, Options{TimeLimit: 30 * time.Millisecond})
	if res.Status == StatusOptimal {
		return // machine fast enough; fine
	}
	if res.Status != StatusFeasible && res.Status != StatusNoSolution {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Status == StatusFeasible && res.Gap() < 0 {
		t.Fatalf("negative gap %g", res.Gap())
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := hardKnapsack(25, 3)
	res := Solve(ctx, m, Options{})
	if res.Nodes > 2 {
		t.Fatalf("processed %d nodes after cancellation", res.Nodes)
	}
}

func hardKnapsack(n int, seed int64) *lp.Model {
	rng := rand.New(rand.NewSource(seed))
	m := lp.NewModel()
	var terms []lp.Term
	total := 0.0
	for i := 0; i < n; i++ {
		w := float64(20 + rng.Intn(30))
		v := w + float64(rng.Intn(10))
		x := m.AddBinary("x", -v)
		terms = append(terms, lp.Term{Var: x, Coef: w})
		total += w
	}
	m.AddConstraint("cap", terms, lp.LE, total/2)
	return m
}

// enumerate solves a pure small integer program by brute force.
func enumerate(m *lp.Model, lo, hi []int) (float64, []float64, bool) {
	n := m.NumVariables()
	x := make([]float64, n)
	best := math.Inf(1)
	var bestX []float64
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if m.CheckFeasible(x, 1e-9) == nil {
				obj := m.Objective(x)
				if obj < best {
					best = obj
					bestX = append([]float64(nil), x...)
				}
			}
			return
		}
		for v := lo[i]; v <= hi[i]; v++ {
			x[i] = float64(v)
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestX, bestX != nil
}

// randomIP builds a small random pure-integer program of seed: two to
// five boxed integer variables and up to four mixed-sense rows. It
// returns the variable boxes too, for enumerate.
func randomIP(seed int64) (m *lp.Model, lo, hi []int) {
	rng := rand.New(rand.NewSource(seed))
	m = lp.NewModel()
	n := 2 + rng.Intn(4)
	lo = make([]int, n)
	hi = make([]int, n)
	for v := 0; v < n; v++ {
		lo[v] = rng.Intn(3) - 1
		hi[v] = lo[v] + rng.Intn(4)
		m.AddInteger("x", float64(lo[v]), float64(hi[v]), float64(rng.Intn(15)-7))
	}
	for c := 0; c < 1+rng.Intn(4); c++ {
		var terms []lp.Term
		for v := 0; v < n; v++ {
			if rng.Intn(3) > 0 {
				terms = append(terms, lp.Term{Var: lp.VarID(v), Coef: float64(rng.Intn(9) - 4)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		m.AddConstraint("c", terms, lp.Sense(rng.Intn(3)), float64(rng.Intn(15)-7))
	}
	return m, lo, hi
}

// TestRandomIPAgainstEnumeration cross-checks branch-and-bound against
// exhaustive enumeration on random small pure-integer programs.
func TestRandomIPAgainstEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		m, lo, hi := randomIP(seed)
		want, _, feasible := enumerate(m, lo, hi)
		res := Solve(context.Background(), m, Options{})
		if !feasible {
			if res.Status != StatusInfeasible {
				t.Logf("seed %d: oracle infeasible, solver %v obj %g", seed, res.Status, res.Objective)
				return false
			}
			return true
		}
		if res.Status != StatusOptimal {
			t.Logf("seed %d: status %v, want optimal (oracle %g)", seed, res.Status, want)
			return false
		}
		if math.Abs(res.Objective-want) > 1e-5 {
			t.Logf("seed %d: solver %g vs oracle %g", seed, res.Objective, want)
			return false
		}
		if err := m.CheckFeasible(res.X, 1e-5); err != nil {
			t.Logf("seed %d: incumbent infeasible: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelMatchesSequential verifies that the parallel search reaches
// the same optimum as the sequential one.
func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		m := hardKnapsack(16, seed)
		seq := Solve(context.Background(), m, Options{Workers: 1})
		par := Solve(context.Background(), m, Options{Workers: 4})
		if seq.Status != StatusOptimal || par.Status != StatusOptimal {
			t.Fatalf("seed %d: statuses %v / %v", seed, seq.Status, par.Status)
		}
		if math.Abs(seq.Objective-par.Objective) > 1e-6 {
			t.Fatalf("seed %d: sequential %g != parallel %g", seed, seq.Objective, par.Objective)
		}
	}
}

func TestGapReporting(t *testing.T) {
	m := hardKnapsack(10, 5)
	res := Solve(context.Background(), m, Options{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Gap() != 0 {
		t.Fatalf("optimal gap = %g, want 0", res.Gap())
	}
	if res.Bound > res.Objective+1e-9 {
		t.Fatalf("bound %g above objective %g", res.Bound, res.Objective)
	}
}

func TestMaxNodesBudget(t *testing.T) {
	m := hardKnapsack(40, 11)
	res := Solve(context.Background(), m, Options{MaxNodes: 5})
	if res.Nodes > 6 {
		t.Fatalf("processed %d nodes with MaxNodes=5", res.Nodes)
	}
}
