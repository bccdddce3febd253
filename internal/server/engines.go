package server

import (
	"context"

	floorplanner "repro"
	"repro/internal/core"
)

// defaultSolve dispatches to the public floorplanner entry point, so the
// daemon serves exactly what the library computes — including solution
// validation against the problem.
func defaultSolve(ctx context.Context, p *core.Problem, engine string, opts core.SolveOptions) (*core.Solution, error) {
	return floorplanner.Solve(ctx, p, floorplanner.Options{
		Engine:    engine,
		TimeLimit: opts.TimeLimit,
		Seed:      opts.Seed,
		Workers:   opts.Workers,
		Probe:     opts.Probe,
	})
}

// defaultFallbackSolve dispatches to the "fallback" meta-engine with the
// server's configured degradation chain (empty = the library default:
// exact, milp-ho, constructive).
func defaultFallbackSolve(ctx context.Context, p *core.Problem, chain []string, opts core.SolveOptions) (*core.Solution, error) {
	return floorplanner.Solve(ctx, p, floorplanner.Options{
		Engine:    "fallback",
		Members:   chain,
		TimeLimit: opts.TimeLimit,
		Seed:      opts.Seed,
		Workers:   opts.Workers,
		Probe:     opts.Probe,
	})
}

// defaultEngineNames lists the engines the default solver accepts.
func defaultEngineNames() []string { return floorplanner.EngineNames() }
