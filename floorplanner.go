// Package floorplanner is a relocation-aware floorplanner for
// partially-reconfigurable FPGA-based systems — an open reimplementation
// of Rabozzi et al., "Relocation-aware Floorplanning for
// Partially-Reconfigurable FPGA-based Systems" (IPDPSW 2015).
//
// The floorplanner places a design's reconfigurable regions on a
// tile-modeled FPGA and, on request, reserves free-compatible areas:
// spare rectangles with the same shape and tile-type layout as a region,
// into which that region's partial bitstream can later be relocated by a
// REPLICA/BiRF-style filter (also provided, in internal/bitstream).
//
// # Quick start
//
//	dev := floorplanner.VirtexFX70T()
//	p := &floorplanner.Problem{
//	    Device: dev,
//	    Regions: []floorplanner.Region{
//	        {Name: "filter", Req: floorplanner.Requirements{
//	            floorplanner.ClassCLB: 25, floorplanner.ClassDSP: 5}},
//	    },
//	}
//	p.FCAreas = []floorplanner.FCRequest{{Region: 0, Mode: floorplanner.RelocConstraint}}
//	sol, err := floorplanner.Solve(ctx, p, floorplanner.Options{})
//
// # Engines
//
//	exact        combinatorial branch-and-bound specialized to columnar
//	             devices; proves lexicographic optimality (default)
//	milp-o       the paper's O algorithm: full MILP via the built-in
//	             branch-and-bound LP solver
//	milp-ho      the paper's HO algorithm: MILP restricted to the
//	             sequence pair of a heuristic seed
//	constructive deterministic greedy placer
//	annealing    simulated-annealing baseline in the spirit of [9]
//	tessellation greedy columnar packer in the spirit of [8]
//	portfolio    the meta-engine's Race schedule: exact, milp-ho and the
//	             heuristics run concurrently under one shared time budget
//	             and the best answer wins
//	fallback     the meta-engine's Sequence schedule: exact, then
//	             milp-ho, then constructive under one shared budget,
//	             degrading past panics, invalid solutions and per-stage
//	             timeouts
//
// Both meta-engine presets are one guard.Composite (see internal/guard);
// Options.Members replaces either's default member list.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured evaluation.
package floorplanner

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/exact"
	"repro/internal/flight"
	"repro/internal/guard"
	"repro/internal/heuristic"
	"repro/internal/model"
	"repro/internal/obs"
)

// Re-exported problem/solution types: the stable public surface.
type (
	// Problem is a relocation-aware floorplanning instance.
	Problem = core.Problem
	// Region is a reconfigurable region to place.
	Region = core.Region
	// Net is a weighted two-pin connection between regions.
	Net = core.Net
	// FCRequest asks for one free-compatible area for a region.
	FCRequest = core.FCRequest
	// RelocMode selects constraint- or metric-mode relocation.
	RelocMode = core.RelocMode
	// Objective weighs the cost terms (Equation 14 of the paper).
	Objective = core.Objective
	// Solution is a computed floorplan.
	Solution = core.Solution
	// FCPlacement records the outcome of one FCRequest in a Solution.
	FCPlacement = core.FCPlacement
	// Metrics are a solution's raw cost terms.
	Metrics = core.Metrics
	// Engine is a floorplanning algorithm.
	Engine = core.Engine
	// SolveOptions carries engine-independent solver knobs.
	SolveOptions = core.SolveOptions

	// Probe observes a solve (telemetry); see the internal obs package
	// docs for the event taxonomy. nil means no observation at zero cost.
	Probe = obs.Probe
	// Span is one engine's (or stage's) observation scope on a Probe.
	Span = obs.Span
	// Recorder is the in-memory Probe used for traces and telemetry
	// tables; construct with NewRecorder.
	Recorder = obs.Recorder
	// Trace is the wire-format snapshot of a recorded solve.
	Trace = obs.Trace

	// Device is the tile-level FPGA model.
	Device = device.Device
	// TileType describes one tile type.
	TileType = device.TileType
	// Requirements states tiles-per-class needs.
	Requirements = device.Requirements
	// Class names a resource family (CLB, BRAM, DSP, ...).
	Class = device.Class
)

// Relocation handling modes.
const (
	// RelocConstraint makes a free-compatible area mandatory.
	RelocConstraint = core.RelocConstraint
	// RelocMetric trades missing areas against the objective.
	RelocMetric = core.RelocMetric
)

// Resource classes.
const (
	ClassCLB  = device.ClassCLB
	ClassBRAM = device.ClassBRAM
	ClassDSP  = device.ClassDSP
	ClassIO   = device.ClassIO
)

// Errors.
var (
	// ErrInfeasible reports a provably unsatisfiable problem.
	ErrInfeasible = core.ErrInfeasible
	// ErrNoSolution reports an exhausted budget without a solution.
	ErrNoSolution = core.ErrNoSolution
)

// VirtexFX70T returns the tile model of the paper's target device.
func VirtexFX70T() *Device { return device.VirtexFX70T() }

// Kintex7K160T returns a larger 7-series-class columnar device, per the
// paper's claim that the columnar description covers recent families.
func Kintex7K160T() *Device { return device.Kintex7K160T() }

// NewColumnarDevice builds a custom columnar device; see device.NewColumnar.
func NewColumnarDevice(name string, colTypes []device.TypeID, h int, types []TileType, forbidden []Rect) (*Device, error) {
	return device.NewColumnar(name, colTypes, h, types, forbidden)
}

// Rect is a rectangle of tiles.
type Rect = gridRect

// DefaultObjective returns the paper's evaluation objective
// (lexicographic: relocation misses, wasted frames, wire length).
func DefaultObjective() Objective { return core.DefaultObjective() }

// Options selects and tunes an engine for Solve.
type Options struct {
	// Engine names the algorithm (see the package documentation);
	// empty selects "exact".
	Engine string
	// TimeLimit bounds the solve.
	TimeLimit time.Duration
	// Seed drives randomized engines.
	Seed int64
	// Workers bounds parallelism where supported.
	Workers int
	// Members selects the "portfolio" engine's racing members or the
	// "fallback" engine's degradation chain, by name (empty = the engine's
	// default set); ignored by every other engine.
	Members []string
	// Probe, when non-nil, observes the solve: counters, incumbent
	// trajectory and span outcomes. Use NewRecorder for the built-in
	// recording probe.
	Probe Probe
}

// NewRecorder returns a recording probe: pass it in Options.Probe, then
// read the telemetry via its Trace or Table methods.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// NewEngine instantiates an engine by name.
func NewEngine(name string) (Engine, error) {
	switch name {
	case "", "exact":
		return &exact.Engine{}, nil
	case "milp-o":
		return &model.OEngine{}, nil
	case "milp-ho":
		return &model.HOEngine{}, nil
	case "constructive":
		return &heuristic.Constructive{}, nil
	case "annealing":
		return &heuristic.Annealing{}, nil
	case "tessellation":
		return &heuristic.Tessellation{}, nil
	case "portfolio":
		return NewPortfolio()
	case "fallback":
		return NewFallback()
	default:
		return nil, fmt.Errorf("floorplanner: unknown engine %q", name)
	}
}

// metaSchedules maps the meta-engine presets to their schedules.
var metaSchedules = map[string]guard.Schedule{"portfolio": guard.Race, "fallback": guard.Sequence}

// NewPortfolio builds a portfolio engine racing the named members
// (empty = exact, milp-ho and the three heuristics).
func NewPortfolio(members ...string) (Engine, error) { return newMeta(guard.Race, members) }

// DefaultFallbackChain is the fallback engine's default degradation
// order: the optimality-proving engine first, the paper's fast HO flow
// next, and the deterministic greedy placer as the last resort.
func DefaultFallbackChain() []string { return []string{"exact", "milp-ho", "constructive"} }

// NewFallback builds a graceful-degradation chain trying the named
// engines in order (empty = DefaultFallbackChain) under one shared
// budget, advancing past panics, invalid solutions, errors and
// per-stage budget expiry.
func NewFallback(members ...string) (Engine, error) { return newMeta(guard.Sequence, members) }

// newMeta builds the meta-engine on the given schedule over the named
// members (empty = that schedule's default list). Infeasibility verdicts
// are trusted only from the engines that search the full solution space,
// exact and milp-o: milp-ho's MILP is restricted to its seed's sequence
// pair and the heuristics' bounded searches prove nothing, so their
// "infeasible" counts as an exhausted budget.
func newMeta(schedule guard.Schedule, names []string) (Engine, error) {
	c := &guard.Composite{Schedule: schedule}
	switch {
	case len(names) > 0:
	case schedule == guard.Race:
		names = []string{"exact", "milp-ho", "constructive", "annealing", "tessellation"}
	default:
		names = DefaultFallbackChain()
	}
	for _, name := range names {
		if name == c.Name() {
			return nil, fmt.Errorf("floorplanner: %s cannot include itself", name)
		}
		eng, err := NewEngine(name)
		if err != nil {
			return nil, err
		}
		c.Members = append(c.Members, guard.Member{
			Engine:          eng,
			TrustInfeasible: name == "exact" || name == "milp-o",
		})
	}
	return c, nil
}

// EngineNames lists the available engines.
func EngineNames() []string {
	return []string{"exact", "milp-o", "milp-ho", "constructive", "annealing", "tessellation", "portfolio", "fallback"}
}

// SolveRecord is one entry of the flight recorder's ring: a finished
// solve's engine, outcome, objective, duration and stage timings. See
// RecentSolves.
type SolveRecord = flight.Record

// RecentSolves returns up to n records of the most recent Solve calls in
// this process, newest first (n <= 0 returns everything the ring holds).
// The ring keeps the last flight.DefaultSize solves.
func RecentSolves(n int) []SolveRecord { return flight.Default().Last(n) }

// Solve runs the selected engine on the problem. Every solve runs under
// the guard layer: panics are recovered into structured errors and the
// returned solution is verified (Solution.Validate plus an
// objective-consistency check) before being returned. Each call also
// appends one record to the process-wide flight recorder (RecentSolves).
func Solve(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	var eng Engine
	var err error
	if schedule, meta := metaSchedules[opts.Engine]; meta {
		eng, err = newMeta(schedule, opts.Members)
	} else {
		eng, err = NewEngine(opts.Engine)
	}
	if err != nil {
		return nil, err
	}
	ctx, stages := guard.WithStageLog(ctx)
	started := time.Now()
	sol, err := guard.Wrap(eng).Solve(ctx, p, SolveOptions{
		TimeLimit: opts.TimeLimit,
		Seed:      opts.Seed,
		Workers:   opts.Workers,
		Probe:     opts.Probe,
	})
	rec := flight.Record{
		RequestDigest: guard.RequestDigest(p),
		Engine:        eng.Name(),
		Outcome:       string(core.ObsOutcome(sol, err)),
		DurationMS:    float64(time.Since(started)) / float64(time.Millisecond),
	}
	if sol != nil {
		obj := sol.Objective(p)
		rec.Objective = &obj
	}
	if err != nil {
		rec.Err = err.Error()
	}
	rec.Stages = stages.Stages()
	flight.Default().Record(rec)
	return sol, err
}

// RenderASCII draws a floorplan as text (Figures 4-5 style).
func RenderASCII(p *Problem, s *Solution) string { return core.RenderASCII(p, s) }

// RenderSVG draws a floorplan as an SVG document.
func RenderSVG(p *Problem, s *Solution) string { return core.RenderSVG(p, s) }
