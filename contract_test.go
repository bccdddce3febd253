package floorplanner_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	floorplanner "repro"
	"repro/internal/sdr"
)

// contractProblem builds an instance chosen to be adversarial for every
// engine under a tiny budget: a long chain of heavily-weighted nets (the
// wire-length pass matters), mixed CLB/BRAM requirements (candidate
// filtering matters), and a relocation-constrained FC area (the paper's
// hard mode). At n=12 the MILP encoding has ~8500 constraints — far more
// than any engine can solve to optimality in 200ms, so a prompt return
// exercises the deadline path, not a fast solve.
func contractProblem(n int) *floorplanner.Problem {
	dev := floorplanner.VirtexFX70T()
	regions := make([]floorplanner.Region, n)
	for i := range regions {
		regions[i] = floorplanner.Region{
			Name: fmt.Sprintf("r%02d", i),
			Req:  floorplanner.Requirements{floorplanner.ClassCLB: 8 + i%5},
		}
		if i%3 == 0 {
			regions[i].Req[floorplanner.ClassBRAM] = 1
		}
	}
	nets := make([]floorplanner.Net, 0, n-1)
	for i := 0; i+1 < n; i++ {
		nets = append(nets, floorplanner.Net{A: i, B: i + 1, Weight: 16})
	}
	p := &floorplanner.Problem{
		Device:    dev,
		Regions:   regions,
		Nets:      nets,
		Objective: floorplanner.DefaultObjective(),
	}
	p.FCAreas = []floorplanner.FCRequest{{Region: 0, Mode: floorplanner.RelocConstraint}}
	return p
}

// TestEngineDeadlineContract asserts the deadline half of the engine
// contract (DESIGN.md "Engine contract"): every registered engine,
// given a TimeLimit far below what the instance needs, returns within
// TimeLimit plus a small epsilon. The epsilon (contractEpsilon, larger
// under the race detector) absorbs the granularity of the engines'
// deadline polls — e.g. one simplex pivot on an ~8500-constraint model.
func TestEngineDeadlineContract(t *testing.T) {
	if testing.Short() {
		t.Skip("deadline contract test runs every engine; skipped in -short")
	}
	p := contractProblem(12)
	const limit = 200 * time.Millisecond
	for _, name := range floorplanner.EngineNames() {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			sol, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{
				Engine:    name,
				TimeLimit: limit,
				Seed:      1,
			})
			elapsed := time.Since(start)
			if elapsed > limit+contractEpsilon {
				t.Errorf("returned after %s, want ≤ %s", elapsed, limit+contractEpsilon)
			}
			switch {
			case err == nil:
				if sol == nil {
					t.Fatal("nil solution with nil error")
				}
				if verr := sol.Validate(p); verr != nil {
					t.Errorf("returned invalid solution: %v", verr)
				}
			case errors.Is(err, floorplanner.ErrNoSolution),
				errors.Is(err, floorplanner.ErrInfeasible):
				// A bounded solve may legitimately fail; it must say so
				// with the contract's sentinel errors.
			default:
				t.Errorf("budget exhaustion surfaced as unexpected error: %v", err)
			}
		})
	}
}

// TestEngineCancellationContract asserts the context half of the
// contract: a canceled context makes every engine return promptly even
// when its TimeLimit is generous.
func TestEngineCancellationContract(t *testing.T) {
	p := contractProblem(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range floorplanner.EngineNames() {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			_, err := floorplanner.Solve(ctx, p, floorplanner.Options{
				Engine:    name,
				TimeLimit: time.Hour,
				Seed:      1,
			})
			if elapsed := time.Since(start); elapsed > contractEpsilon {
				t.Errorf("returned after %s on a pre-canceled context, want ≤ %s", elapsed, contractEpsilon)
			}
			if err == nil {
				t.Error("nil error on a pre-canceled context")
			}
		})
	}
}

// sdrContractInstances are the paper's evaluation instances, used to pin
// the deadline contract on realistic model sizes (sdr2's MILP basis is
// ~9300×9300 — the size class where the PR5 benchmark caught milp-ho
// blowing an 18× hole through its 2s budget inside an un-deadlined dense
// refactorization). The synthetic contractProblem cannot reproduce that
// failure mode: it never grows a basis large enough for one factorization
// to dominate the budget.
func sdrContractInstances() []struct {
	name string
	p    *floorplanner.Problem
} {
	return []struct {
		name string
		p    *floorplanner.Problem
	}{
		{"sdr", sdr.Problem()},
		{"sdr2", sdr.SDR2()},
		{"sdr3", sdr.SDR3()},
	}
}

// TestMILPDeadlineContractSDRInstances asserts that both MILP engines
// honor TimeLimit+epsilon on every SDR instance. The budget is kept small
// so a single runaway stage (factorization, presolve, warm-start replay)
// is immediately visible as a contract breach rather than hiding inside a
// generous allowance.
func TestMILPDeadlineContractSDRInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the full SDR instances; skipped in -short")
	}
	const limit = 500 * time.Millisecond
	for _, engine := range []string{"milp-o", "milp-ho"} {
		for _, inst := range sdrContractInstances() {
			inst := inst
			t.Run(engine+"/"+inst.name, func(t *testing.T) {
				start := time.Now()
				sol, err := floorplanner.Solve(context.Background(), inst.p, floorplanner.Options{
					Engine:    engine,
					TimeLimit: limit,
					Seed:      1,
				})
				elapsed := time.Since(start)
				if elapsed > limit+contractEpsilon {
					t.Errorf("returned after %s, want ≤ %s", elapsed, limit+contractEpsilon)
				}
				switch {
				case err == nil:
					if verr := sol.Validate(inst.p); verr != nil {
						t.Errorf("returned invalid solution: %v", verr)
					}
				case errors.Is(err, floorplanner.ErrNoSolution),
					errors.Is(err, floorplanner.ErrInfeasible):
				default:
					t.Errorf("budget exhaustion surfaced as unexpected error: %v", err)
				}
			})
		}
	}
}

// TestMILPCancellationContractSDRInstances asserts the context half on
// the real instances: a pre-canceled context must stop the MILP path
// before any expensive stage (model build, presolve, root LP) runs.
func TestMILPCancellationContractSDRInstances(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []string{"milp-o", "milp-ho"} {
		for _, inst := range sdrContractInstances() {
			inst := inst
			t.Run(engine+"/"+inst.name, func(t *testing.T) {
				start := time.Now()
				_, err := floorplanner.Solve(ctx, inst.p, floorplanner.Options{
					Engine:    engine,
					TimeLimit: time.Hour,
					Seed:      1,
				})
				if elapsed := time.Since(start); elapsed > contractEpsilon {
					t.Errorf("returned after %s on a pre-canceled context, want ≤ %s", elapsed, contractEpsilon)
				}
				if err == nil {
					t.Error("nil error on a pre-canceled context")
				}
			})
		}
	}
}

// TestSDROutcomesWithinBudget runs the paper's evaluation cells (exact,
// milp-ho and constructive on SDR, SDR2 and SDR3) at a 2s budget and
// checks each answer together with the deadline contract: every cell
// returns a valid floorplan within budget+contractEpsilon, exact proves
// the reference optimum (the values perfbench's refs.go checks), and
// milp-ho and constructive score no worse than they did when this test
// was written. A lost proof, a lost solution, a worse score or a budget
// overrun fails the cell at any magnitude.
func TestSDROutcomesWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the full SDR instances; skipped in -short")
	}
	const budget = 2 * time.Second
	const relTol = 1e-9
	want := map[string]struct{ optimum, heuristic float64 }{
		"sdr":  {10968.086471775339, 10968.234430959012},
		"sdr2": {10968.09667585697, 13405.64707094537},
		"sdr3": {10968.117084020236, 13579.558104996873},
	}
	for _, engine := range []string{"exact", "milp-ho", "constructive"} {
		for _, inst := range sdrContractInstances() {
			t.Run(engine+"/"+inst.name, func(t *testing.T) {
				start := time.Now()
				sol, err := floorplanner.Solve(context.Background(), inst.p, floorplanner.Options{
					Engine:    engine,
					TimeLimit: budget,
					Seed:      1,
				})
				if elapsed := time.Since(start); elapsed > budget+contractEpsilon {
					t.Errorf("returned after %s, want ≤ %s", elapsed, budget+contractEpsilon)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := sol.Validate(inst.p); err != nil {
					t.Fatalf("returned invalid solution: %v", err)
				}
				obj, w := sol.Objective(inst.p), want[inst.name]
				if engine == "exact" {
					if !sol.Proven {
						t.Error("not proven optimal")
					}
					if math.Abs(obj-w.optimum) > relTol*w.optimum {
						t.Errorf("objective %v, want the proven optimum %v", obj, w.optimum)
					}
				} else if obj > w.heuristic*(1+relTol) {
					t.Errorf("objective %v, want ≤ %v", obj, w.heuristic)
				}
			})
		}
	}
}

// TestPortfolioTracksFastestMember asserts the portfolio's wall-clock
// behavior on a real instance: the exact engine proves SDR's optimum in
// well under a second, so the portfolio must accept it and return far
// sooner than its 30s budget — its latency tracks the fastest proving
// member, not the sum (or max) of all members.
func TestPortfolioTracksFastestMember(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full portfolio race; skipped in -short")
	}
	p := sdr.Problem()
	const budget = 30 * time.Second
	start := time.Now()
	sol, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{
		Engine:    "portfolio",
		TimeLimit: budget,
		Seed:      1,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Proven {
		t.Error("portfolio did not surface the proven optimum on SDR")
	}
	if elapsed > budget/2 {
		t.Errorf("portfolio took %s of its %s budget; early acceptance of the proven winner should cut the race short", elapsed, budget)
	}
}
