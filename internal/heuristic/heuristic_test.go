package heuristic

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/exact"
	"repro/internal/obs"
	"repro/internal/sdr"
)

func engines() []core.Engine {
	return []core.Engine{
		&Constructive{},
		&Annealing{},
		&Tessellation{},
	}
}

func TestAllEnginesSolveSDR(t *testing.T) {
	p := sdr.Problem()
	for _, eng := range engines() {
		sol, err := eng.Solve(context.Background(), p, core.SolveOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if err := sol.Validate(p); err != nil {
			t.Fatalf("%s: invalid solution: %v", eng.Name(), err)
		}
		if sol.Engine != eng.Name() {
			t.Fatalf("%s: solution engine label %q", eng.Name(), sol.Engine)
		}
	}
}

// TestHeuristicsNeverBeatExact: the exact engine's lexicographic optimum
// is a lower bound on every heuristic's result.
func TestHeuristicsNeverBeatExact(t *testing.T) {
	p := sdr.Problem()
	opt, err := (&exact.Engine{}).Solve(context.Background(), p, core.SolveOptions{TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	optWaste := opt.Metrics(p).WastedFrames
	for _, eng := range engines() {
		sol, err := eng.Solve(context.Background(), p, core.SolveOptions{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if w := sol.Metrics(p).WastedFrames; w < optWaste {
			t.Fatalf("%s: waste %d beats proven optimum %d", eng.Name(), w, optWaste)
		}
	}
}

func TestConstructiveDeterministic(t *testing.T) {
	p := sdr.SDR2()
	a, err := (&Constructive{}).Solve(context.Background(), p, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Constructive{}).Solve(context.Background(), p, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Regions {
		if a.Regions[i] != b.Regions[i] {
			t.Fatalf("region %d differs across runs: %v vs %v", i, a.Regions[i], b.Regions[i])
		}
	}
}

// TestConstructiveSDRPinned pins the constructive placer's node and
// backtrack counts on the paper's three instances. The placer is
// deterministic, so any change to its candidate order, backtracking
// bound or FC filter moves these counts and fails here with zero margin.
func TestConstructiveSDRPinned(t *testing.T) {
	for _, tc := range []struct {
		name              string
		p                 *core.Problem
		nodes, backtracks int64
	}{
		{"sdr", sdr.Problem(), 5, 0},
		{"sdr2", sdr.SDR2(), 275, 265},
		{"sdr3", sdr.SDR3(), 7342, 7332},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			sol, err := (&Constructive{}).Solve(context.Background(), tc.p,
				core.SolveOptions{TimeLimit: 60 * time.Second, Probe: rec})
			if err != nil {
				t.Fatal(err)
			}
			if err := sol.Validate(tc.p); err != nil {
				t.Fatal(err)
			}
			nodes, backtracks := rec.Total(obs.Nodes), rec.Total(obs.Backtracks)
			if nodes != tc.nodes || backtracks != tc.backtracks {
				t.Fatalf("%d nodes / %d backtracks, want %d / %d", nodes, backtracks, tc.nodes, tc.backtracks)
			}
		})
	}
}

func TestConstructiveSolvesFCConstraints(t *testing.T) {
	p := sdr.SDR2()
	sol, err := (&Constructive{}).Solve(context.Background(), p, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
	if got := sol.Metrics(p).PlacedFC; got != 6 {
		t.Fatalf("placed %d FC areas, want 6", got)
	}
}

func TestConstructiveInfeasible(t *testing.T) {
	p := &core.Problem{
		Device:  device.VirtexFX70T(),
		Regions: []core.Region{{Name: "huge", Req: device.Requirements{device.ClassDSP: 17}}},
	}
	if _, err := (&Constructive{}).Solve(context.Background(), p, core.SolveOptions{}); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want infeasible", err)
	}
}

func TestAnnealingSeedsDiffer(t *testing.T) {
	p := sdr.Problem()
	anneal := &Annealing{Iterations: 50, Steps: 30}
	solutions := map[string]bool{}
	for seed := int64(0); seed < 4; seed++ {
		sol, err := anneal.Solve(context.Background(), p, core.SolveOptions{Seed: seed})
		if err != nil {
			continue
		}
		if err := sol.Validate(p); err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, r := range sol.Regions {
			key += r.String()
		}
		solutions[key] = true
	}
	if len(solutions) == 0 {
		t.Fatal("annealing failed for every seed")
	}
}

func TestAnnealingRespectsTimeLimit(t *testing.T) {
	p := sdr.Problem()
	anneal := &Annealing{Iterations: 100000, Steps: 100000}
	start := time.Now()
	_, _ = anneal.Solve(context.Background(), p, core.SolveOptions{Seed: 1, TimeLimit: 200 * time.Millisecond})
	if time.Since(start) > 5*time.Second {
		t.Fatal("annealing ignored the time limit")
	}
}

func TestTessellationQuantum(t *testing.T) {
	p := sdr.Problem()
	free, err := (&Tessellation{}).Solve(context.Background(), p, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quant, err := (&Tessellation{BandQuantum: 2}).Solve(context.Background(), p, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := quant.Validate(p); err != nil {
		t.Fatal(err)
	}
	for _, r := range quant.Regions {
		if r.Y%2 != 0 || r.H%2 != 0 {
			t.Fatalf("quantized placement %v not aligned to 2-row bands", r)
		}
	}
	fw := free.Metrics(p).WastedFrames
	qw := quant.Metrics(p).WastedFrames
	if qw < fw {
		t.Fatalf("quantized tessellation waste %d below free waste %d", qw, fw)
	}
}

func TestGreedyFCMetricMiss(t *testing.T) {
	// Matched-filter FC areas are impossible on the FX70T; greedy
	// packing must report the metric-mode request as missed, not fail.
	p := sdr.Problem()
	p.FCAreas = []core.FCRequest{{Region: p.RegionIndex(sdr.MatchedFilter), Mode: core.RelocMetric}}
	sol, err := (&Constructive{}).Solve(context.Background(), p, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
	if sol.Metrics(p).PlacedFC != 0 {
		t.Fatal("impossible FC area reported as placed")
	}
}

func TestPlacementOrderMostConstrainedFirst(t *testing.T) {
	p := sdr.Problem()
	cands := make([][]core.Candidate, len(p.Regions))
	for i, r := range p.Regions {
		cands[i] = core.EnumerateCandidates(p.Device, r.Req)
	}
	order := placementOrder(p, cands)
	if len(order) != len(p.Regions) {
		t.Fatalf("order has %d entries", len(order))
	}
	for i := 1; i < len(order); i++ {
		if len(cands[order[i-1]]) > len(cands[order[i]]) {
			t.Fatalf("order not sorted by candidate count: %v", order)
		}
	}
}

func TestAnnealingRestartsSolveFCConstraints(t *testing.T) {
	p := sdr.SDR2()
	sol, err := (&Annealing{}).Solve(context.Background(), p, core.SolveOptions{Seed: 1})
	if err != nil {
		t.Skipf("annealing could not satisfy SDR2 even with restarts: %v", err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
	if sol.Metrics(p).PlacedFC != 6 {
		t.Fatal("restart path returned incomplete FC packing")
	}
}
