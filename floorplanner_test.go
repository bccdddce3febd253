package floorplanner_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	floorplanner "repro"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/sdr"
)

func quickProblem(t *testing.T) *floorplanner.Problem {
	t.Helper()
	cols := make([]device.TypeID, 16)
	for i := range cols {
		cols[i] = device.V5CLB
	}
	cols[4] = device.V5BRAM
	cols[9] = device.V5DSP
	dev, err := floorplanner.NewColumnarDevice("demo", cols, 4, device.V5Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return &floorplanner.Problem{
		Device: dev,
		Regions: []floorplanner.Region{
			{Name: "a", Req: floorplanner.Requirements{floorplanner.ClassCLB: 4, floorplanner.ClassDSP: 2}},
			{Name: "b", Req: floorplanner.Requirements{floorplanner.ClassCLB: 3, floorplanner.ClassBRAM: 1}},
		},
		Nets:      []floorplanner.Net{{A: 0, B: 1, Weight: 32}},
		FCAreas:   []floorplanner.FCRequest{{Region: 1, Mode: floorplanner.RelocConstraint}},
		Objective: floorplanner.DefaultObjective(),
	}
}

func TestSolveAllEngines(t *testing.T) {
	p := quickProblem(t)
	for _, name := range floorplanner.EngineNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sol, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{
				Engine:    name,
				TimeLimit: 30 * time.Second,
				Seed:      3,
			})
			if errors.Is(err, floorplanner.ErrNoSolution) && (name == "annealing" || name == "tessellation") {
				t.Skipf("%s could not pack the FC area (allowed for baselines)", name)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := sol.Validate(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSolveRecordsFlight(t *testing.T) {
	p := quickProblem(t)
	sol, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{
		Engine:    "exact",
		TimeLimit: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := floorplanner.RecentSolves(1)
	if len(recs) != 1 {
		t.Fatalf("RecentSolves(1) returned %d records", len(recs))
	}
	rec := recs[0]
	if rec.Engine != "exact" {
		t.Errorf("recorded engine %q, want exact", rec.Engine)
	}
	if rec.Outcome != "proven" {
		t.Errorf("recorded outcome %q, want proven", rec.Outcome)
	}
	if rec.Objective == nil || *rec.Objective != sol.Objective(p) {
		t.Errorf("recorded objective %v, want %v", rec.Objective, sol.Objective(p))
	}
	if rec.RequestDigest == "" {
		t.Error("record has no request digest")
	}
	if rec.DurationMS < 0 {
		t.Errorf("record has negative duration %v", rec.DurationMS)
	}
}

func TestSolveRecordsFallbackStages(t *testing.T) {
	for _, engine := range []string{"fallback", "portfolio"} {
		t.Run(engine, func(t *testing.T) {
			p := quickProblem(t)
			if _, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{
				Engine:    engine,
				TimeLimit: 30 * time.Second,
			}); err != nil {
				t.Fatal(err)
			}
			recs := floorplanner.RecentSolves(1)
			if len(recs) != 1 || recs[0].Engine != engine {
				t.Fatalf("newest record is not the %s solve: %+v", engine, recs)
			}
			stages := recs[0].Stages
			if len(stages) == 0 {
				t.Fatalf("%s record has no stage timings", engine)
			}
			if stages[0].Engine != "exact" || stages[0].Outcome != "proven" {
				t.Errorf("stage 0 = %s/%s, want exact/proven (the first member proves this instance)",
					stages[0].Engine, stages[0].Outcome)
			}
		})
	}
}

// TestDefaultMembersTrustOnlyFullSpaceEngines: only engines that search
// the full space (exact, milp-o) have their infeasibility verdicts
// trusted. milp-ho's MILP is restricted to its seed's sequence pair, so
// trusting it would turn heuristic give-ups into false proofs.
func TestDefaultMembersTrustOnlyFullSpaceEngines(t *testing.T) {
	for _, tc := range []struct {
		preset  func(...string) (floorplanner.Engine, error)
		members []string
	}{
		{floorplanner.NewPortfolio, nil},
		{floorplanner.NewFallback, nil},
		{floorplanner.NewPortfolio, []string{"milp-o", "milp-ho", "constructive"}},
		{floorplanner.NewFallback, []string{"milp-o", "milp-ho", "constructive"}},
	} {
		eng, err := tc.preset(tc.members...)
		if err != nil {
			t.Fatal(err)
		}
		c := eng.(*guard.Composite)
		for _, m := range c.Members {
			name := m.Engine.Name()
			if want := name == "exact" || name == "milp-o"; m.TrustInfeasible != want {
				t.Errorf("%s member %s: TrustInfeasible = %v, want %v", c.Name(), name, m.TrustInfeasible, want)
			}
		}
	}
}

func TestSolveUnknownEngine(t *testing.T) {
	p := quickProblem(t)
	if _, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{Engine: "nope"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestSolveInfeasibleSurfaced(t *testing.T) {
	p := quickProblem(t)
	p.Regions[0].Req[floorplanner.ClassDSP] = 99
	_, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{})
	if !errors.Is(err, floorplanner.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestRenderers(t *testing.T) {
	p := quickProblem(t)
	sol, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ascii := floorplanner.RenderASCII(p, sol); !strings.Contains(ascii, "A") {
		t.Fatal("ASCII render missing regions")
	}
	if svg := floorplanner.RenderSVG(p, sol); !strings.HasPrefix(svg, "<svg") {
		t.Fatal("SVG render invalid")
	}
}

func TestProblemJSONRoundTrip(t *testing.T) {
	p := sdr.SDR2()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back floorplanner.Problem
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(back.Regions) != 5 || len(back.FCAreas) != 6 {
		t.Fatalf("round trip lost content: %d regions, %d FC areas", len(back.Regions), len(back.FCAreas))
	}
	if back.Device.Width() != 41 || back.Device.Height() != 8 {
		t.Fatal("device lost in round trip")
	}
	// The round-tripped problem must be solvable identically.
	sol, err := floorplanner.Solve(context.Background(), &back, floorplanner.Options{TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(&back); err != nil {
		t.Fatal(err)
	}
}

func TestNewRect(t *testing.T) {
	r := floorplanner.NewRect(1, 2, 3, 4)
	if r.X != 1 || r.Y != 2 || r.W != 3 || r.H != 4 {
		t.Fatalf("rect = %+v", r)
	}
}

func TestVirtexFX70T(t *testing.T) {
	d := floorplanner.VirtexFX70T()
	if d.Name() != "xc5vfx70t" {
		t.Fatalf("name = %s", d.Name())
	}
}
