package model

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/sdr"
)

// tinyGenerated is a generated 10x2 design with two chained regions that
// each need more than one resource class, so its resource rows would come
// out in map order if Build did not sort them.
func tinyGenerated(t *testing.T, seed int64) *core.Problem {
	t.Helper()
	d := device.MustGenerate(device.GeneratorConfig{Width: 10, Height: 2, BRAMEvery: 5, DSPEvery: 7, Seed: seed})
	p, err := sdr.Synthetic(sdr.GeneratorConfig{Regions: 2, Device: d, MaxCLB: 4, MaxBRAM: 1, MaxDSP: 1, ChainNets: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func conNames(m *lp.Model) []string {
	out := make([]string, m.NumConstraints())
	for i := range out {
		out[i] = m.ConName(lp.ConID(i))
	}
	return out
}

// TestBuildRowOrderDeterministic builds the same problem repeatedly and
// requires the identical constraint sequence each time.
func TestBuildRowOrderDeterministic(t *testing.T) {
	p := smallProblem(1, core.RelocConstraint)
	p.Regions[0].Req[device.ClassBRAM] = 1 // three classes in one region
	first, err := Build(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := conNames(first.LP)
	for rep := 0; rep < 20; rep++ {
		c, err := Build(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := conNames(c.LP)
		if len(got) != len(want) {
			t.Fatalf("rep %d: %d rows, want %d", rep, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rep %d: row %d is %q, want %q", rep, i, got[i], want[i])
			}
		}
	}
}

// TestMILPSolveRepeats solves one generated design with milp-o several
// times and requires the same node and pivot counts every time: the
// search path depends only on the problem.
func TestMILPSolveRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated MILP solves")
	}
	var wantNodes, wantPivots int64
	for rep := 0; rep < 8; rep++ {
		rec := obs.NewRecorder()
		sol, err := (&OEngine{}).Solve(context.Background(), tinyGenerated(t, 13),
			core.SolveOptions{Workers: 1, TimeLimit: 60 * time.Second, Probe: rec})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Proven {
			t.Fatalf("rep %d: not proven optimal", rep)
		}
		nodes, pivots := rec.Total(obs.Nodes), rec.Total(obs.Pivots)
		if rep == 0 {
			wantNodes, wantPivots = nodes, pivots
			continue
		}
		if nodes != wantNodes || pivots != wantPivots {
			t.Fatalf("rep %d: %d nodes / %d pivots, want %d / %d", rep, nodes, pivots, wantNodes, wantPivots)
		}
	}
}

// TestMILPPivotPathPinned pins the node and pivot counts of one milp-o
// solve to the values the dense per-iteration dual recomputation gave.
// The simplex's pivot choices depend only on the problem, so an
// arithmetic rewrite of the pivot path (such as maintaining reduced
// costs incrementally) must reproduce them exactly; any change to which
// pivots are taken fails here loudly rather than only shifting timings.
func TestMILPPivotPathPinned(t *testing.T) {
	const wantNodes, wantPivots = 1224, 12007
	rec := obs.NewRecorder()
	sol, err := (&OEngine{}).Solve(context.Background(), tinyGenerated(t, 26),
		core.SolveOptions{Workers: 1, TimeLimit: 60 * time.Second, Probe: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Proven {
		t.Fatal("not proven optimal")
	}
	if pivots := rec.Total(obs.Pivots); sol.Nodes != wantNodes || pivots != wantPivots {
		t.Fatalf("%d nodes / %d pivots, want %d / %d", sol.Nodes, pivots, wantNodes, wantPivots)
	}
}

// TestHOPivotPathPinned pins the node and pivot counts of one milp-ho
// solve of a generated design with a metric-mode FC area, so the search
// over the sequence-pair-restricted model cannot drift unnoticed either.
func TestHOPivotPathPinned(t *testing.T) {
	const wantNodes, wantPivots = 152, 3286
	p := tinyGenerated(t, 14)
	p.FCAreas = []core.FCRequest{{Region: 0, Mode: core.RelocMetric, Weight: 1}}
	rec := obs.NewRecorder()
	sol, err := (&HOEngine{}).Solve(context.Background(), p,
		core.SolveOptions{Workers: 1, TimeLimit: 60 * time.Second, Probe: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Proven {
		t.Fatal("not proven optimal")
	}
	if pivots := rec.Total(obs.Pivots); sol.Nodes != wantNodes || pivots != wantPivots {
		t.Fatalf("%d nodes / %d pivots, want %d / %d", sol.Nodes, pivots, wantNodes, wantPivots)
	}
}

// TestSDRNodeCappedPathPinned pins the node and pivot counts of milp-o on
// the paper's SDR instance under a node cap: a search that stops on the
// cap, not on a proof, still takes the same path every run, so any change
// to node order, branching or pivoting on a full-size model shows here.
func TestSDRNodeCappedPathPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("milp-o on SDR")
	}
	const maxNodes = 120
	const wantNodes, wantPivots = 240, 16974
	rec := obs.NewRecorder()
	sol, err := (&OEngine{MaxNodes: maxNodes}).Solve(context.Background(), sdr.Problem(),
		core.SolveOptions{Workers: 1, TimeLimit: 10 * time.Minute, Probe: rec})
	if err != nil {
		t.Fatal(err)
	}
	if pivots := rec.Total(obs.Pivots); sol.Nodes != wantNodes || pivots != wantPivots {
		t.Fatalf("%d nodes / %d pivots, want %d / %d", sol.Nodes, pivots, wantNodes, wantPivots)
	}
}
