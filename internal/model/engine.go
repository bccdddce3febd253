package model

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/heuristic"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/seqpair"
)

// OEngine is the paper's O (Optimal) algorithm: the full MILP over the
// whole solution space, solved by branch-and-bound. The evaluation
// objective is lexicographic (relocation misses, wasted frames, wire
// length), realized as two MILP passes: pass 1 minimizes misses+waste,
// pass 2 freezes them and minimizes wire length. On instances that exceed
// the budget the best incumbent is returned with Proven=false — mirroring
// the paper's SDR3 run, which 6h of commercial-solver time did not prove
// optimal either.
type OEngine struct {
	// Encoding selects the compatibility encoding (default profile).
	Encoding Encoding
	// SkipWarmStart disables seeding branch-and-bound with the
	// constructive heuristic's solution.
	SkipWarmStart bool
	// Seed, when non-nil, warm-starts branch-and-bound with this
	// solution instead of running the constructive heuristic.
	Seed *core.Solution
	// MaxNodes caps branch-and-bound nodes per pass (0 = milp default).
	MaxNodes int
	// SkipWireStage skips pass 2 (waste-only optimization).
	SkipWireStage bool
}

// Name implements core.Engine.
func (e *OEngine) Name() string { return "milp-o" }

// Solve implements core.Engine.
func (e *OEngine) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (sol *core.Solution, err error) {
	opts = opts.Normalized()
	start := time.Now()
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	sp := opts.Probe.Span(e.Name())
	defer func() { sp.End(core.ObsOutcome(sol, err), obs.SlackUntil(deadline)) }()
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrNoSolution, cerr)
	}
	compiled, err := Build(p, Options{Encoding: e.Encoding})
	if err != nil {
		return nil, err
	}
	seed := e.Seed
	if seed == nil && !e.SkipWarmStart {
		// The seed solve inherits opts.Probe and reports under its own
		// "constructive" span.
		if s, err := (&heuristic.Constructive{}).Solve(ctx, p, seedBudget(opts)); err == nil {
			seed = s
		}
	}
	return solveLexicographic(ctx, compiled, remainingBudget(opts, start), e.Name(), sp, seed, e.MaxNodes, e.SkipWireStage, false)
}

// HOEngine is the paper's HO (Heuristic Optimal) algorithm: a heuristic
// solution is computed first, its sequence pair (including the
// free-compatible areas, as Section II.A prescribes) is extracted, and the
// MILP is solved restricted to placements consistent with that pair —
// a much smaller search space that locally improves the seed.
type HOEngine struct {
	// Encoding selects the compatibility encoding (default profile).
	Encoding Encoding
	// Seed, when non-nil, provides the heuristic solution; nil runs the
	// constructive placer.
	Seed *core.Solution
	// MaxNodes caps branch-and-bound nodes per pass (0 = milp default).
	MaxNodes int
	// SkipWireStage skips the wire-length pass.
	SkipWireStage bool
	// seedSolve replaces the constructive heuristic in tests; nil uses
	// heuristic.Constructive.
	seedSolve func(context.Context, *core.Problem, core.SolveOptions) (*core.Solution, error)
}

// Name implements core.Engine.
func (e *HOEngine) Name() string { return "milp-ho" }

// Solve implements core.Engine.
func (e *HOEngine) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (sol *core.Solution, err error) {
	opts = opts.Normalized()
	start := time.Now()
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	sp := opts.Probe.Span(e.Name())
	defer func() { sp.End(core.ObsOutcome(sol, err), obs.SlackUntil(deadline)) }()
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrNoSolution, cerr)
	}
	seed := e.Seed
	if seed == nil {
		solveSeed := e.seedSolve
		if solveSeed == nil {
			solveSeed = (&heuristic.Constructive{}).Solve
		}
		// Without a seed HO has no sequence pair and hence no MILP to
		// run, so the seed gets the whole remaining budget in one call:
		// the constructive placer's work does not depend on its budget
		// (bounded backtracking), it finishes as early as it can and the
		// MILP keeps the rest. A quarter slice would only make a slow
		// seed (sdr3 under load) miss and start over.
		var err error
		seed, err = solveSeed(ctx, p, remainingBudget(opts, start))
		if err != nil {
			// The constructive placer's give-up (bounded backtracking
			// exhausted) is not an infeasibility proof. Do not wrap err:
			// letting its ErrInfeasible escape through a MILP engine would
			// let callers such as the portfolio mistake it for one.
			return nil, fmt.Errorf("model: HO seed: %v: %w", err, core.ErrNoSolution)
		}
	}
	if err := seed.Validate(p); err != nil {
		return nil, fmt.Errorf("model: HO seed invalid: %w", err)
	}

	// Sequence pair over regions plus the placed FC areas.
	members := make([]int, 0, len(p.Regions)+len(seed.FC))
	rects := make([]grid.Rect, 0, len(p.Regions)+len(seed.FC))
	for i, r := range seed.Regions {
		members = append(members, i)
		rects = append(rects, r)
	}
	for f, fc := range seed.FC {
		if fc.Placed {
			members = append(members, len(p.Regions)+f)
			rects = append(rects, fc.Rect)
		}
	}
	pair, err := seqpair.FromPlacement(rects)
	if err != nil {
		return nil, fmt.Errorf("model: HO sequence pair: %w", err)
	}

	compiled, err := Build(p, Options{
		Encoding:   e.Encoding,
		SeqPair:    &pair,
		SeqMembers: members,
	})
	if err != nil {
		return nil, err
	}
	return solveLexicographic(ctx, compiled, remainingBudget(opts, start), e.Name(), sp, seed, e.MaxNodes, e.SkipWireStage, true)
}

// seedBudget carves the warm-start heuristic's slice out of the caller's
// budget (a quarter, so the MILP keeps the bulk of it). Zero stays zero:
// an unlimited solve runs an unlimited seed.
func seedBudget(opts core.SolveOptions) core.SolveOptions {
	if opts.TimeLimit > 0 {
		opts.TimeLimit /= 4
	}
	return opts
}

// remainingBudget shrinks opts.TimeLimit by what has already elapsed
// since start, so seed time is not paid twice. A fully consumed budget
// leaves a minimal slice: the MILP still gets to surface its warm-start
// incumbent, and the overrun stays bounded by this slice.
func remainingBudget(opts core.SolveOptions, start time.Time) core.SolveOptions {
	if opts.TimeLimit <= 0 {
		return opts
	}
	const minSlice = 5 * time.Millisecond
	rem := opts.TimeLimit - time.Since(start)
	if rem < minSlice {
		rem = minSlice
	}
	opts.TimeLimit = rem
	return opts
}

// milpOutcome maps a MILP status onto the telemetry outcome taxonomy for
// the per-pass sub-spans.
func milpOutcome(s milp.Status) obs.Outcome {
	switch s {
	case milp.StatusOptimal:
		return obs.OutcomeProven
	case milp.StatusFeasible:
		return obs.OutcomeSolved
	case milp.StatusInfeasible:
		return obs.OutcomeInfeasible
	case milp.StatusNoSolution:
		return obs.OutcomeNoSolution
	}
	return obs.OutcomeError
}

// solveLexicographic runs the two-pass lexicographic MILP solve.
// restricted marks a MILP over a subset of the solution space (the HO
// flow's seed-derived sequence pair): its infeasibility verdict does not
// extend to the full problem and is therefore never reported as
// core.ErrInfeasible — the engine falls back to the seed instead.
//
// sp is the engine's telemetry span; it receives one final incumbent on
// the problem-objective scale. Each MILP pass gets its own sub-span
// ("<name>/waste", "<name>/wire") carrying the raw branch-and-bound
// trajectory, whose objective scale differs per pass.
func solveLexicographic(ctx context.Context, c *Compiled, opts core.SolveOptions, name string, sp obs.Span, seed *core.Solution, maxNodes int, skipWire, restricted bool) (*core.Solution, error) {
	opts = opts.Normalized()
	sp = obs.OrNop(sp)
	start := time.Now()
	budget := opts.TimeLimit
	mopts := milp.Options{
		Workers:  opts.Workers,
		MaxNodes: maxNodes,
	}
	if budget > 0 {
		// Reserve a share of the budget for the wire-length pass.
		mopts.TimeLimit = budget
		if !skipWire && len(c.Problem.Nets) > 0 {
			mopts.TimeLimit = budget * 2 / 3
		}
	}
	if seed != nil {
		if ws, err := c.WarmStartFrom(seed); err == nil {
			mopts.WarmStart = ws
		}
	}

	wasteSp := opts.Probe.Span(name + "/waste")
	mopts.Obs = wasteSp
	var wasteDeadline time.Time
	if mopts.TimeLimit > 0 {
		wasteDeadline = start.Add(mopts.TimeLimit)
	}
	res := milp.Solve(ctx, c.LP, mopts)
	wasteSp.End(milpOutcome(res.Status), obs.SlackUntil(wasteDeadline))
	switch res.Status {
	case milp.StatusInfeasible, milp.StatusNoSolution:
		if res.Status == milp.StatusInfeasible && !restricted {
			return nil, core.ErrInfeasible
		}
		// Budget exhausted without an incumbent, or the restricted space
		// admits no placement (reachable when warm-start mapping or the
		// encoding excludes the seed itself — not a proof for the full
		// problem). The validated seed is still a legal floorplan: return
		// it unimproved rather than claiming failure, or worse a false
		// infeasibility proof, after a successful heuristic run.
		if seed != nil && seed.Validate(c.Problem) == nil {
			fallback := *seed
			fallback.Engine = name
			fallback.Proven = false
			fallback.Elapsed = time.Since(start)
			sp.Incumbent(fallback.Objective(c.Problem))
			return &fallback, nil
		}
		return nil, core.ErrNoSolution
	case milp.StatusUnbounded:
		return nil, errors.New("model: MILP relaxation unbounded (formulation bug)")
	}
	proven := res.Status == milp.StatusOptimal
	nodes := res.Nodes
	finalX := res.X

	wirePass := !skipWire && len(c.Problem.Nets) > 0
	remaining := time.Duration(0)
	if wirePass && budget > 0 {
		// Never extend past the caller's budget: an exhausted budget
		// skips the wire pass instead of borrowing extra wall-clock
		// (the engine deadline contract, see DESIGN.md).
		remaining = budget - time.Since(start)
		if remaining <= 0 {
			wirePass = false
			proven = false
		}
	}
	if wirePass {
		c.StageWireLength(res.X)
		wireSp := opts.Probe.Span(name + "/wire")
		m2 := milp.Options{
			Workers:   opts.Workers,
			MaxNodes:  maxNodes,
			WarmStart: res.X,
			Obs:       wireSp,
		}
		var wireDeadline time.Time
		if budget > 0 {
			m2.TimeLimit = remaining
			wireDeadline = time.Now().Add(remaining)
		}
		res2 := milp.Solve(ctx, c.LP, m2)
		wireSp.End(milpOutcome(res2.Status), obs.SlackUntil(wireDeadline))
		nodes += res2.Nodes
		if res2.X != nil {
			finalX = res2.X
			proven = proven && res2.Status == milp.StatusOptimal
		} else {
			proven = false
		}
	}

	sol, err := c.Decode(finalX)
	if err != nil {
		return nil, err
	}
	sol.Engine = name
	sol.Proven = proven
	sol.Elapsed = time.Since(start)
	sol.Nodes = nodes
	if err := sol.Validate(c.Problem); err != nil {
		return nil, fmt.Errorf("model: decoded MILP solution invalid: %w", err)
	}
	sp.Incumbent(sol.Objective(c.Problem))
	return sol, nil
}
