package guard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// composite builds a meta-engine on the given schedule.
func composite(s Schedule, members ...Member) *Composite {
	return &Composite{Schedule: s, Members: members}
}

// bothSchedules runs fn as one subtest per schedule, named after the
// schedule's engine ("portfolio", "fallback").
func bothSchedules(t *testing.T, fn func(t *testing.T, s Schedule)) {
	for _, s := range []Schedule{Race, Sequence} {
		t.Run((&Composite{Schedule: s}).Name(), func(t *testing.T) { fn(t, s) })
	}
}

func goodEngine(name string) core.Engine {
	return &stubEngine{name: name, fn: func(_ context.Context, p *core.Problem, _ core.SolveOptions) (*core.Solution, error) {
		return validSolution(p), nil
	}}
}

func panicEngine(name string) core.Engine {
	return &stubEngine{name: name, fn: func(context.Context, *core.Problem, core.SolveOptions) (*core.Solution, error) {
		panic(name + " exploded")
	}}
}

func lyingEngine(name string) core.Engine {
	return &stubEngine{name: name, fn: func(_ context.Context, p *core.Problem, _ core.SolveOptions) (*core.Solution, error) {
		return invalidSolution(p), nil
	}}
}

func erroringEngine(name string, err error) core.Engine {
	return &stubEngine{name: name, fn: func(context.Context, *core.Problem, core.SolveOptions) (*core.Solution, error) {
		return nil, err
	}}
}

func TestFallbackAdvancesPastFaults(t *testing.T) {
	p := testProblem(t)
	f := composite(Sequence,
		Member{Engine: panicEngine("boom")},
		Member{Engine: lyingEngine("liar")},
		Member{Engine: goodEngine("good")},
	)
	sol, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 5 * time.Second})
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatalf("fallback served an invalid solution: %v", err)
	}
	if sol.Engine != "fallback(good)" {
		t.Errorf("winner = %q, want fallback(good)", sol.Engine)
	}
}

func TestFallbackTrustedInfeasibleShortCircuits(t *testing.T) {
	p := testProblem(t)
	called := false
	later := &stubEngine{name: "later", fn: func(_ context.Context, p *core.Problem, _ core.SolveOptions) (*core.Solution, error) {
		called = true
		return validSolution(p), nil
	}}
	f := composite(Sequence,
		Member{Engine: erroringEngine("prover", core.ErrInfeasible), TrustInfeasible: true},
		Member{Engine: later},
	)
	_, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if called {
		t.Error("chain advanced past a trusted infeasibility proof")
	}
}

func TestFallbackUntrustedInfeasibleAdvances(t *testing.T) {
	p := testProblem(t)
	f := composite(Sequence,
		Member{Engine: erroringEngine("heuristic", core.ErrInfeasible)},
		Member{Engine: goodEngine("good")},
	)
	sol, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if sol.Engine != "fallback(good)" {
		t.Errorf("winner = %q, want fallback(good)", sol.Engine)
	}
}

func TestFallbackBudgetExhaustionIsNoSolution(t *testing.T) {
	p := testProblem(t)
	f := composite(Sequence,
		Member{Engine: erroringEngine("a", core.ErrNoSolution)},
		Member{Engine: erroringEngine("b", fmt.Errorf("slow: %w", context.DeadlineExceeded))},
	)
	_, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("budget exhaustion should wrap ErrNoSolution, got %v", err)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Errorf("budget exhaustion misreported as a panic: %v", err)
	}
}

func TestFallbackAllHardFaults(t *testing.T) {
	p := testProblem(t)
	f := composite(Sequence,
		Member{Engine: panicEngine("boom")},
		Member{Engine: lyingEngine("liar")},
	)
	_, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if err == nil {
		t.Fatal("all-faulty chain returned nil error")
	}
	if errors.Is(err, core.ErrNoSolution) || errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("hard faults must not masquerade as budget/infeasible outcomes: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("joined error does not expose the PanicError: %v", err)
	}
	var ie *InvalidSolutionError
	if !errors.As(err, &ie) {
		t.Errorf("joined error does not expose the InvalidSolutionError: %v", err)
	}
	if got := core.ObsOutcome(nil, err); got != obs.OutcomePanic {
		t.Errorf("ObsOutcome = %q, want %q", got, obs.OutcomePanic)
	}
}

// TestFallbackHardFaultDoesNotLeakStageSentinels is the regression test
// for a false infeasibility proof: milp-ho claims infeasible (untrusted,
// not a proof), then the next member panics. The joined hard-fault error
// must not satisfy errors.Is for the budget-class sentinels the chain
// deliberately advanced past, or the server would cache and serve the
// claim as definitive "infeasible" — and the fallback engine's own
// breaker would score the total failure as a success. A race over the
// same members must answer the same way.
func TestFallbackHardFaultDoesNotLeakStageSentinels(t *testing.T) {
	bothSchedules(t, func(t *testing.T, s Schedule) {
		p := testProblem(t)
		f := composite(s,
			Member{Engine: erroringEngine("heuristic", core.ErrInfeasible)},
			Member{Engine: erroringEngine("slow", fmt.Errorf("slow: %w", context.DeadlineExceeded))},
			Member{Engine: erroringEngine("dry", core.ErrNoSolution)},
			Member{Engine: panicEngine("boom")},
		)
		_, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 5 * time.Second})
		if err == nil {
			t.Fatal("faulty chain returned nil error")
		}
		for sentinel, name := range map[error]string{
			core.ErrInfeasible:       "ErrInfeasible",
			core.ErrNoSolution:       "ErrNoSolution",
			context.DeadlineExceeded: "DeadlineExceeded",
			context.Canceled:         "Canceled",
		} {
			if errors.Is(err, sentinel) {
				t.Errorf("hard-fault error leaks stage sentinel %s: %v", name, err)
			}
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Errorf("joined error does not expose the PanicError: %v", err)
		}
		if got := BreakerOutcomeOf(err); got != BreakerFailure {
			t.Errorf("BreakerOutcomeOf = %v, want BreakerFailure", got)
		}
	})
}

// TestFallbackAllBreakersOpen: when every member is skipped because its
// breaker is open, no engine ran at all, so the chain (and the race)
// must report the retryable ErrBreakersOpen — not ErrNoSolution, which
// the daemon would serve as a definitive "budget exhausted" answer.
func TestFallbackAllBreakersOpen(t *testing.T) {
	bothSchedules(t, func(t *testing.T, s Schedule) {
		p := testProblem(t)
		clk := newFakeClock()
		set := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour, Clock: clk.Now})
		f := &Composite{
			Schedule: s,
			Members: []Member{
				{Engine: panicEngine("boom-a")},
				{Engine: panicEngine("boom-b")},
			},
			Breakers: set,
		}
		// First solve trips both breakers (each member panics once).
		if _, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second}); err == nil {
			t.Fatal("all-panicking chain returned nil error")
		}
		// Second solve: every member is skipped, nothing runs.
		_, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
		if !errors.Is(err, ErrBreakersOpen) {
			t.Fatalf("want ErrBreakersOpen, got %v", err)
		}
		if errors.Is(err, core.ErrNoSolution) {
			t.Errorf("breaker-skip outcome masquerades as ErrNoSolution: %v", err)
		}
		if got := BreakerOutcomeOf(err); got != BreakerNeutral {
			t.Errorf("BreakerOutcomeOf = %v, want BreakerNeutral", got)
		}
	})
}

func TestFallbackHonorsCancellation(t *testing.T) {
	bothSchedules(t, func(t *testing.T, s Schedule) {
		p := testProblem(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		f := composite(s, Member{Engine: goodEngine("good")})
		_, err := f.Solve(ctx, p, core.SolveOptions{TimeLimit: time.Second})
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled context not honored: %v", err)
		}
	})
}

func TestFallbackSkipsOpenBreaker(t *testing.T) {
	p := testProblem(t)
	clk := newFakeClock()
	set := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour, Clock: clk.Now})
	boomCalls := 0
	boom := &stubEngine{name: "boom", fn: func(context.Context, *core.Problem, core.SolveOptions) (*core.Solution, error) {
		boomCalls++
		panic("boom")
	}}
	f := &Composite{
		Schedule: Sequence,
		Members: []Member{
			{Engine: boom},
			{Engine: goodEngine("good")},
		},
		Breakers: set,
	}
	// First solve: boom panics and trips its breaker, good wins.
	sol, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if err != nil || sol.Engine != "fallback(good)" {
		t.Fatalf("solve 1: %v, %v", sol, err)
	}
	if st := set.For("boom").State(); st != BreakerOpen {
		t.Fatalf("boom breaker = %v, want open", st)
	}
	// Second solve: boom's breaker is open, so boom is never called again.
	sol, err = f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if err != nil || sol.Engine != "fallback(good)" {
		t.Fatalf("solve 2: %v, %v", sol, err)
	}
	if boomCalls != 1 {
		t.Errorf("boom called %d times, want 1 (breaker should skip it)", boomCalls)
	}
}

// TestFallbackProbeContract mirrors the engine probe contract for the
// chain as a whole: one span named "fallback", ended exactly once, with
// the final incumbent equal to the returned objective.
func TestFallbackProbeContract(t *testing.T) {
	p := testProblem(t)
	rec := obs.NewRecorder()
	f := composite(Sequence,
		Member{Engine: panicEngine("boom")},
		Member{Engine: goodEngine("good")},
	)
	sol, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second, Probe: rec})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	var ended int
	for _, sp := range tr.Spans {
		if sp.Name == "fallback" && sp.Outcome != "" {
			ended++
			if sp.Outcome != string(obs.OutcomeSolved) {
				t.Errorf("fallback span outcome = %q, want %q", sp.Outcome, obs.OutcomeSolved)
			}
		}
	}
	if ended != 1 {
		t.Fatalf("fallback span ended %d times, want 1", ended)
	}
	incs := rec.Incumbents("fallback")
	if len(incs) == 0 {
		t.Fatal("no incumbent recorded on the fallback span")
	}
	if got, want := incs[len(incs)-1].Objective, sol.Objective(p); got != want {
		t.Errorf("final incumbent %v != returned objective %v", got, want)
	}
}
