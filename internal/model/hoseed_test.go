package model

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/heuristic"
)

// TestHOSeedOneCallWithRemainingBudget pins the seed policy: HO calls
// the heuristic once, with the whole remaining budget. Without a seed
// there is no MILP to run, and the constructive placer stops as soon as
// it has a placement, so a smaller slice could only make a slow seed
// (sdr3 under load) miss.
func TestHOSeedOneCallWithRemainingBudget(t *testing.T) {
	p := smallProblem(1, core.RelocMetric)
	const limit = 8 * time.Second

	var budgets []time.Duration
	eng := &HOEngine{
		SkipWireStage: true,
		seedSolve: func(ctx context.Context, p *core.Problem, opts core.SolveOptions) (*core.Solution, error) {
			budgets = append(budgets, opts.TimeLimit)
			return (&heuristic.Constructive{}).Solve(ctx, p, opts)
		},
	}
	sol, err := eng.Solve(context.Background(), p, core.SolveOptions{TimeLimit: limit, Seed: 1})
	if err != nil {
		t.Fatalf("HO failed: %v", err)
	}
	if verr := sol.Validate(p); verr != nil {
		t.Fatalf("HO solution invalid: %v", verr)
	}
	if len(budgets) != 1 {
		t.Fatalf("seed calls = %d, want 1", len(budgets))
	}
	if budgets[0] > limit || budgets[0] < limit-time.Second {
		t.Errorf("seed budget = %s, want the remaining budget (just under %s)", budgets[0], limit)
	}
}

// TestHOSeedGiveUpIsNoSolution: when the seed fails, HO gives up after
// that one call with ErrNoSolution — never ErrInfeasible, since a
// heuristic give-up is not a proof.
func TestHOSeedGiveUpIsNoSolution(t *testing.T) {
	p := smallProblem(0, core.RelocConstraint)
	calls := 0
	eng := &HOEngine{
		seedSolve: func(ctx context.Context, p *core.Problem, opts core.SolveOptions) (*core.Solution, error) {
			calls++
			return nil, core.ErrInfeasible
		},
	}
	_, err := eng.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second, Seed: 1})
	if !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
	if errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("heuristic give-up surfaced as infeasibility proof: %v", err)
	}
	if calls != 1 {
		t.Fatalf("seed calls = %d, want 1", calls)
	}
}

// TestHOSeedNotCalledOnCanceledContext: a canceled context ends the
// solve before the seed runs.
func TestHOSeedNotCalledOnCanceledContext(t *testing.T) {
	p := smallProblem(0, core.RelocConstraint)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	eng := &HOEngine{
		seedSolve: func(ctx context.Context, p *core.Problem, opts core.SolveOptions) (*core.Solution, error) {
			calls++
			return nil, core.ErrNoSolution
		},
	}
	_, err := eng.Solve(ctx, p, core.SolveOptions{TimeLimit: time.Second, Seed: 1})
	if !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
	if calls != 0 {
		t.Fatalf("seed calls = %d, want 0 on a canceled context", calls)
	}
}
