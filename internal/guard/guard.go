// Package guard is the fault-tolerance layer around the floorplanning
// engines: it isolates solver panics, verifies every returned solution
// before it may be accepted, runs engines together in one composite
// meta-engine, trips per-engine circuit breakers on repeated failures,
// and injects deterministic faults for chaos testing.
//
// Like the obs telemetry layer, guard wraps any core.Engine without
// changing the Engine interface, so the serving stack composes it freely
// around real solvers and test stubs:
//
//	eng := guard.Wrap(&exact.Engine{})        // panics -> PanicError,
//	                                          // invalid -> InvalidSolutionError
//	fb  := &guard.Composite{Schedule: guard.Sequence, Members: members}
//	brs := guard.NewBreakerSet(guard.BreakerConfig{})
//	ch  := guard.NewChaos(eng, guard.ChaosConfig{Seed: 7, PanicWeight: 1})
//
// Composite is the only meta-engine. Its Race schedule is the
// "portfolio" engine (members run concurrently, best answer wins); its
// Sequence schedule is the "fallback" engine (members tried in order,
// first validated solution wins). Both share the breaker gate, the
// per-member stage log, the trust rule for infeasibility claims and the
// final-error rule.
//
// The structured errors implement an ObsOutcome method, which
// core.ObsOutcome recognizes, so recovered panics and rejected solutions
// surface in traces and metrics as the terminal outcomes "panic" and
// "invalid" rather than a generic "error".
package guard

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/obs"
)

// PanicError is a solver panic recovered by the guard layer: structured
// enough to alert on (engine, request digest) and to debug (panic value,
// stack at the panic site).
type PanicError struct {
	// Engine names the engine whose Solve panicked.
	Engine string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
	// Request is a short digest of the problem (RequestDigest), so log
	// lines correlate panics with the requests that triggered them.
	Request string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("guard: engine %s panicked on request %s: %v", e.Engine, e.Request, e.Value)
}

// ObsOutcome marks recovered panics with their own terminal outcome.
func (e *PanicError) ObsOutcome() obs.Outcome { return obs.OutcomePanic }

// InvalidSolutionError reports a solution that failed verification at the
// guard boundary: it must never be accepted, cached, or served.
type InvalidSolutionError struct {
	// Engine names the engine that produced the solution.
	Engine string
	// Reason is the underlying validation failure.
	Reason error
}

func (e *InvalidSolutionError) Error() string {
	return fmt.Sprintf("guard: engine %s returned an invalid solution: %v", e.Engine, e.Reason)
}

func (e *InvalidSolutionError) Unwrap() error { return e.Reason }

// ObsOutcome marks rejected solutions with their own terminal outcome.
func (e *InvalidSolutionError) ObsOutcome() obs.Outcome { return obs.OutcomeInvalid }

// RequestDigest returns a short stable digest of the problem for log
// correlation. It is not the serving cache key (that is SHA-256 over the
// full request); fnv-64a over the problem JSON is enough to tell requests
// apart in logs.
func RequestDigest(p *core.Problem) string {
	data, err := json.Marshal(p)
	if err != nil {
		return "unknown"
	}
	h := fnv.New64a()
	_, _ = h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Protect runs fn, converting a panic into a *PanicError so one buggy
// engine cannot take down the worker pool or a meta-engine.
func Protect(engine string, p *core.Problem, fn func() (*core.Solution, error)) (sol *core.Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol = nil
			err = &PanicError{
				Engine:  engine,
				Value:   r,
				Stack:   debug.Stack(),
				Request: RequestDigest(p),
			}
		}
	}()
	return fn()
}

// CheckSolution verifies a solution before it may cross a trust boundary
// (be accepted by a meta-engine, cached, or served): it must be
// non-nil, pass the full Solution.Validate oracle, and evaluate to a
// finite, non-negative objective. A nil error means the solution is safe
// to accept; otherwise the returned error is an *InvalidSolutionError.
func CheckSolution(engine string, p *core.Problem, sol *core.Solution) error {
	if sol == nil {
		return &InvalidSolutionError{Engine: engine, Reason: fmt.Errorf("nil solution with nil error")}
	}
	if err := sol.Validate(p); err != nil {
		return &InvalidSolutionError{Engine: engine, Reason: err}
	}
	if obj := sol.Objective(p); math.IsNaN(obj) || math.IsInf(obj, 0) || obj < 0 {
		return &InvalidSolutionError{Engine: engine, Reason: fmt.Errorf("objective is not a finite non-negative value: %g", obj)}
	}
	return nil
}

// Engine wraps an inner engine with panic isolation and solution
// verification. It is transparent on the happy path: Name and traces are
// the inner engine's own. On a fault it emits a "<engine>/guard" span
// ending with the fault outcome, so trajectories record what the guard
// intercepted without disturbing the engine's own span.
type Engine struct {
	// Inner is the wrapped engine.
	Inner core.Engine
}

// Wrap returns inner guarded by panic isolation and solution
// verification.
func Wrap(inner core.Engine) *Engine { return &Engine{Inner: inner} }

// Name implements core.Engine; the wrapper is transparent.
func (g *Engine) Name() string { return g.Inner.Name() }

// Solve implements core.Engine: run the inner engine under Protect and
// verify whatever it returns with CheckSolution.
func (g *Engine) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (*core.Solution, error) {
	opts = opts.Normalized()
	name := g.Inner.Name()
	sol, err := Protect(name, p, func() (*core.Solution, error) {
		return g.Inner.Solve(ctx, p, opts)
	})
	if err == nil {
		if verr := CheckSolution(name, p, sol); verr != nil {
			sol, err = nil, verr
		}
	}
	if oc, ok := err.(interface{ ObsOutcome() obs.Outcome }); ok {
		// Fault-only span: the engine's own span (if it got that far) is
		// untouched; this records what the guard intercepted.
		opts.Probe.Span(name+"/guard").End(oc.ObsOutcome(), 0)
	}
	return sol, err
}
