package milp

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/lp"
	"repro/internal/obs"
)

// poisonRecycled replaces recycleBasis for the rest of the test: each
// basis is scribbled over instead of reused, so a node that still warm
// starts from it after release fails the install and re-solves cold. It
// returns the count of recycled bases.
func poisonRecycled(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	saved := recycleBasis
	recycleBasis = func(_ *lp.Workspace, b *lp.Basis) {
		if b == nil {
			return
		}
		for i := range b.Basic {
			b.Basic[i] = -1
		}
		n.Add(1)
	}
	t.Cleanup(func() { recycleBasis = saved })
	return &n
}

// solveCounts solves m sequentially and returns the node and pivot counts
// with the objective.
func solveCounts(t *testing.T, m *lp.Model) (nodes, pivots int64, obj float64) {
	t.Helper()
	rec := obs.NewRecorder()
	res := Solve(context.Background(), m, Options{Workers: 1, Obs: rec.Span("milp")})
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	return int64(res.Nodes), rec.Total(obs.Pivots), res.Objective
}

// TestRecycledBasisNeverInstalled poisons every basis as it is released.
// A child that installed its shared basis after the last release would
// fail the install and re-solve cold, which changes the pivot count; the
// sequential search must take exactly the path of the unpoisoned one.
func TestRecycledBasisNeverInstalled(t *testing.T) {
	type counts struct {
		nodes, pivots int64
		obj           float64
	}
	var want []counts
	for seed := int64(0); seed < 6; seed++ {
		nodes, pivots, obj := solveCounts(t, hardKnapsack(22, seed))
		want = append(want, counts{nodes, pivots, obj})
	}
	recycled := poisonRecycled(t)
	for seed := int64(0); seed < 6; seed++ {
		nodes, pivots, obj := solveCounts(t, hardKnapsack(22, seed))
		if got := (counts{nodes, pivots, obj}); got != want[seed] {
			t.Fatalf("seed %d: poisoned %+v, want %+v", seed, got, want[seed])
		}
	}
	if recycled.Load() == 0 {
		t.Fatal("no basis was recycled")
	}
}

// TestParallelRecyclingMatchesSequential runs four workers against one on
// random integer programs and knapsacks with recycled bases poisoned.
// Both must reach the same optimum; under -race, a basis released while
// another worker's child still reads it is a reported race.
func TestParallelRecyclingMatchesSequential(t *testing.T) {
	poisonRecycled(t)
	models := make([]*lp.Model, 0, 208)
	for seed := int64(0); seed < 200; seed++ {
		m, _, _ := randomIP(seed)
		models = append(models, m)
	}
	for seed := int64(0); seed < 8; seed++ {
		models = append(models, hardKnapsack(20, seed))
	}
	for i, m := range models {
		seq := Solve(context.Background(), m, Options{Workers: 1})
		par := Solve(context.Background(), m, Options{Workers: 4})
		if seq.Status != par.Status {
			t.Fatalf("model %d: sequential %v, parallel %v", i, seq.Status, par.Status)
		}
		if seq.Status == StatusOptimal && math.Abs(seq.Objective-par.Objective) > 1e-6 {
			t.Fatalf("model %d: sequential %g != parallel %g", i, seq.Objective, par.Objective)
		}
	}
}
