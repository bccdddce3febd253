// Benchmarks regenerating the paper's tables and figures (one benchmark
// per evaluation artifact), plus the ablation studies listed in
// DESIGN.md. Run everything with:
//
//	go test -bench=. -benchmem
//
// Solve benchmarks report waste/wirelength via b.ReportMetric so the
// regenerated numbers appear directly in the benchmark output.
package floorplanner_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	floorplanner "repro"
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/heuristic"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sdr"
)

const benchBudget = 30 * time.Second

// BenchmarkTable1FrameAccounting regenerates Table I (per-region frame
// requirements on the FX70T).
func BenchmarkTable1FrameAccounting(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range rows {
			total += r.Frames
		}
	}
	b.ReportMetric(float64(total), "frames")
}

// BenchmarkFeasibilityPerRegion regenerates the Section VI feasibility
// analysis: one free-compatible area per region at a time.
func BenchmarkFeasibilityPerRegion(b *testing.B) {
	base := sdr.Problem()
	for ri, region := range base.Regions {
		b.Run(region.Name, func(b *testing.B) {
			p := base.WithFCConstraints([]int{ri}, 1)
			feasible := 0.0
			for i := 0; i < b.N; i++ {
				_, err := (&exact.Engine{}).Solve(context.Background(), p, core.SolveOptions{TimeLimit: benchBudget})
				switch {
				case err == nil:
					feasible = 1
				case errors.Is(err, core.ErrInfeasible):
					feasible = 0
				default:
					b.Fatal(err)
				}
			}
			b.ReportMetric(feasible, "feasible")
		})
	}
}

// benchSolve runs one Table II row: solve and report waste/wirelength.
func benchSolve(b *testing.B, eng core.Engine, p *core.Problem) {
	b.Helper()
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		sol, err := eng.Solve(context.Background(), p, core.SolveOptions{TimeLimit: benchBudget, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := sol.Validate(p); err != nil {
			b.Fatal(err)
		}
		m = sol.Metrics(p)
	}
	b.ReportMetric(float64(m.WastedFrames), "wasted-frames")
	b.ReportMetric(m.WireLength, "wirelength")
	b.ReportMetric(float64(m.PlacedFC), "fc-areas")
}

// BenchmarkTable2 regenerates the four rows of Table II.
func BenchmarkTable2(b *testing.B) {
	b.Run("tessellation-SDR", func(b *testing.B) {
		benchSolve(b, &heuristic.Tessellation{BandQuantum: 2}, sdr.Problem())
	})
	b.Run("optimal-SDR", func(b *testing.B) {
		benchSolve(b, &exact.Engine{}, sdr.Problem())
	})
	b.Run("PA-SDR2", func(b *testing.B) {
		benchSolve(b, &exact.Engine{}, sdr.SDR2())
	})
	b.Run("PA-SDR3", func(b *testing.B) {
		benchSolve(b, &exact.Engine{}, sdr.SDR3())
	})
}

// BenchmarkFigure4 regenerates the SDR2 floorplan of Figure 4 (solve plus
// both renderings).
func BenchmarkFigure4(b *testing.B) {
	benchFigure(b, "SDR2")
}

// BenchmarkFigure5 regenerates the SDR3 floorplan of Figure 5.
func BenchmarkFigure5(b *testing.B) {
	benchFigure(b, "SDR3")
}

func benchFigure(b *testing.B, design string) {
	b.Helper()
	n := 0
	for i := 0; i < b.N; i++ {
		p, sol, err := experiments.Floorplan(context.Background(), design, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		ascii := core.RenderASCII(p, sol)
		svg := core.RenderSVG(p, sol)
		n = len(ascii) + len(svg)
	}
	b.ReportMetric(float64(n), "render-bytes")
}

// BenchmarkFigure1Compatibility exercises the Figure 1 compatibility
// checks across the whole FX70T.
func BenchmarkFigure1Compatibility(b *testing.B) {
	d := device.VirtexFX70T()
	src := grid.Rect{X: 4, Y: 0, W: 6, H: 5}
	count := 0
	for i := 0; i < b.N; i++ {
		count = len(d.CompatiblePlacements(src))
	}
	b.ReportMetric(float64(count), "placements")
}

// BenchmarkFigure2Partitioning runs the Figure 2 columnar partitioning.
func BenchmarkFigure2Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationEncoding compares the profile and pairwise (literal
// Equations 9/10) compatibility encodings: model size and root-LP time.
func BenchmarkAblationEncoding(b *testing.B) {
	p := sdr.SDR2()
	for _, enc := range []struct {
		name string
		e    model.Encoding
	}{{"profile", model.EncodingProfile}, {"pairwise", model.EncodingPairwise}} {
		b.Run(enc.name, func(b *testing.B) {
			var cons int
			for i := 0; i < b.N; i++ {
				c, err := model.Build(p, model.Options{Encoding: enc.e})
				if err != nil {
					b.Fatal(err)
				}
				cons = c.LP.NumConstraints()
			}
			b.ReportMetric(float64(cons), "constraints")
		})
	}
}

// BenchmarkAblationWarmStart measures MILP branch-and-bound with and
// without the constructive warm start on a small instance. The cold run
// regularly exhausts its budget without an incumbent — that IS the
// ablation's finding — so the benchmark reports a solved indicator
// instead of failing.
func BenchmarkAblationWarmStart(b *testing.B) {
	p := smallMILPProblem()
	for _, warm := range []bool{true, false} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			solved := 1.0
			for i := 0; i < b.N; i++ {
				eng := &model.OEngine{SkipWarmStart: !warm, SkipWireStage: true}
				_, err := eng.Solve(context.Background(), p, core.SolveOptions{TimeLimit: benchBudget / 3})
				switch {
				case err == nil:
				case errors.Is(err, core.ErrNoSolution):
					solved = 0
				default:
					b.Fatal(err)
				}
			}
			b.ReportMetric(solved, "solved")
		})
	}
}

// BenchmarkAblationHOvsO compares the paper's two algorithms on the same
// small instance.
func BenchmarkAblationHOvsO(b *testing.B) {
	p := smallMILPProblem()
	b.Run("O", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := &model.OEngine{SkipWireStage: true}
			if _, err := eng.Solve(context.Background(), p, core.SolveOptions{TimeLimit: benchBudget}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := &model.HOEngine{SkipWireStage: true}
			if _, err := eng.Solve(context.Background(), p, core.SolveOptions{TimeLimit: benchBudget}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelExact measures the exact engine's worker scaling on
// the SDR3 instance.
func BenchmarkParallelExact(b *testing.B) {
	p := sdr.SDR3()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := (&exact.Engine{}).Solve(context.Background(), p, core.SolveOptions{
					TimeLimit: benchBudget, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !sol.Proven {
					b.Fatal("not proven")
				}
			}
		})
	}
}

// BenchmarkParallelBnB measures branch-and-bound scaling with worker
// count on a knapsack family.
func BenchmarkParallelBnB(b *testing.B) {
	m := benchKnapsack(22)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := milp.Solve(context.Background(), m, milp.Options{Workers: workers})
				if res.Status != milp.StatusOptimal {
					b.Fatalf("status %v", res.Status)
				}
			}
		})
	}
}

// BenchmarkScalingRegions sweeps the exact engine over synthetic designs
// of growing size on the FX70T.
func BenchmarkScalingRegions(b *testing.B) {
	for _, n := range []int{3, 5, 7, 9} {
		b.Run(fmt.Sprintf("regions-%d", n), func(b *testing.B) {
			p, err := sdr.Synthetic(sdr.GeneratorConfig{
				Regions: n, MaxCLB: 12, MaxBRAM: 2, MaxDSP: 1, ChainNets: true, Seed: int64(n),
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				sol, err := (&exact.Engine{}).Solve(context.Background(), p, core.SolveOptions{TimeLimit: 10 * time.Second})
				if err != nil {
					b.Fatal(err)
				}
				if err := sol.Validate(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKintex7Scaling runs the SDR-style workload on the larger
// 7-series device model: same design, more fabric, more candidates.
func BenchmarkKintex7Scaling(b *testing.B) {
	p, err := sdr.Synthetic(sdr.GeneratorConfig{
		Regions: 8, Device: device.Kintex7K160T(),
		MaxCLB: 30, MaxBRAM: 4, MaxDSP: 3, ChainNets: true, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sol, err := (&exact.Engine{}).Solve(context.Background(), p, core.SolveOptions{TimeLimit: 10 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if err := sol.Validate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines compares the three heuristic engines on the SDR
// design.
func BenchmarkBaselines(b *testing.B) {
	engines := []core.Engine{
		&heuristic.Constructive{},
		&heuristic.Annealing{},
		&heuristic.Tessellation{},
	}
	p := sdr.Problem()
	for _, eng := range engines {
		b.Run(eng.Name(), func(b *testing.B) {
			benchSolve(b, eng, p)
		})
	}
}

// BenchmarkBitstreamRelocate measures the relocation filter on a
// Table I-sized bitstream (the Video Decoder's 2180 frames).
func BenchmarkBitstreamRelocate(b *testing.B) {
	d := device.VirtexFX70T()
	src := grid.Rect{X: 0, Y: 0, W: 13, H: 5}
	dst := grid.Rect{X: 0, Y: 3, W: 13, H: 5}
	bs, err := bitstream.Generate(d, src, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(bs.FrameCount() * bitstream.FrameBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bitstream.Relocate(d, bs, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeRelocation measures the end-to-end runtime experiment:
// floorplan SDR2, bring the system up, migrate every relocatable module
// through its reserved areas.
func BenchmarkRuntimeRelocation(b *testing.B) {
	var storageSave float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Runtime(context.Background(), benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		storageSave = 100 * (1 - float64(rep.StorageWith)/float64(rep.StorageWithout))
	}
	b.ReportMetric(storageSave, "storage-save-%")
}

// BenchmarkLPSolve measures the simplex on an assignment relaxation.
func BenchmarkLPSolve(b *testing.B) {
	m := benchAssignment(16)
	for i := 0; i < b.N; i++ {
		sol := lp.Solve(m, lp.Options{})
		if sol.Status != lp.StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkCandidateEnumeration measures placement-candidate generation
// for the Video Decoder on the FX70T.
func BenchmarkCandidateEnumeration(b *testing.B) {
	d := device.VirtexFX70T()
	req := device.Requirements{device.ClassCLB: 55, device.ClassBRAM: 2, device.ClassDSP: 5}
	n := 0
	for i := 0; i < b.N; i++ {
		n = len(core.EnumerateCandidates(d, req))
	}
	b.ReportMetric(float64(n), "candidates")
}

// BenchmarkCandidateCache compares a memoized candidate lookup against
// direct enumeration of the same shape — the speedup the portfolio's
// racing members share when they hit core.CachedCandidates (the "hit"
// case pays one mutex acquisition; "miss" pays the full sweep).
func BenchmarkCandidateCache(b *testing.B) {
	req := device.Requirements{device.ClassCLB: 55, device.ClassBRAM: 2, device.ClassDSP: 5}
	b.Run("miss", func(b *testing.B) {
		d := device.VirtexFX70T()
		n := 0
		for i := 0; i < b.N; i++ {
			n = len(core.EnumerateCandidates(d, req))
		}
		b.ReportMetric(float64(n), "candidates")
	})
	b.Run("hit", func(b *testing.B) {
		d := device.VirtexFX70T()
		core.CachedCandidates(d, req) // warm the entry
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			n = len(core.CachedCandidates(d, req))
		}
		b.ReportMetric(float64(n), "candidates")
	})
}

// BenchmarkPortfolioRace measures the portfolio engine end to end on the
// paper's SDR design: wall clock should track the fastest proving member
// (the exact engine), not the sum of all five members.
func BenchmarkPortfolioRace(b *testing.B) {
	p := sdr.Problem()
	for i := 0; i < b.N; i++ {
		sol, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{
			Engine: "portfolio", TimeLimit: benchBudget, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Proven {
			b.Fatal("portfolio missed the proven optimum on SDR")
		}
	}
}

// BenchmarkPublicAPI exercises the facade end to end (what a downstream
// user pays for a quickstart-sized problem).
func BenchmarkPublicAPI(b *testing.B) {
	p := sdr.SDR2()
	for i := 0; i < b.N; i++ {
		sol, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{TimeLimit: benchBudget})
		if err != nil {
			b.Fatal(err)
		}
		_ = floorplanner.RenderASCII(p, sol)
	}
}

// BenchmarkObsOverhead quantifies the telemetry layer's cost on a full
// exact solve of a small instance (the DESIGN.md "Observability" section
// promises the no-op default stays under 2% of solve time):
//
//	bare     nil Probe — the default path every pre-existing caller takes
//	nop      the explicit zero-allocation no-op probe
//	recorder the full recording probe (mutex + slice appends, one clock
//	         read per span open and end)
//
// Compare bare vs nop to see the instrumentation's intrinsic cost, and
// recorder to see what the daemon pays per observed solve.
func BenchmarkObsOverhead(b *testing.B) {
	p := smallMILPProblem()
	solve := func(b *testing.B, probe floorplanner.Probe) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			sol, err := (&exact.Engine{}).Solve(context.Background(), p, core.SolveOptions{
				TimeLimit: benchBudget, Probe: probe,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !sol.Proven {
				b.Fatal("not proven")
			}
		}
	}
	b.Run("bare", func(b *testing.B) { solve(b, nil) })
	b.Run("nop", func(b *testing.B) { solve(b, obs.Nop) })
	b.Run("recorder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := floorplanner.NewRecorder()
			sol, err := (&exact.Engine{}).Solve(context.Background(), p, core.SolveOptions{
				TimeLimit: benchBudget, Probe: rec,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !sol.Proven {
				b.Fatal("not proven")
			}
			if len(rec.Incumbents("")) == 0 {
				b.Fatal("recorder saw no incumbents")
			}
		}
	})
}

// BenchmarkProfileLabelOverhead quantifies the goroutine-label
// attribution layer's cost on the same exact solve (DESIGN.md's
// "Profiling & diagnostics" section promises the disabled
// path stays under 2% of solve time):
//
//	bare       nil Probe, labeling globally off — the seed baseline
//	labels-off the diag.LabelProbe wrapper with labeling disabled, the
//	           path every solve takes when -diag-dir is not set
//	labels-on  labeling enabled: pprof label sets swapped per span
//
// Compare bare vs labels-off for the disabled-path regression gate;
// labels-on shows what a profiling daemon pays per attributed solve.
func BenchmarkProfileLabelOverhead(b *testing.B) {
	p := smallMILPProblem()
	wasOn := diag.LabelingEnabled()
	defer diag.SetLabeling(wasOn)

	solve := func(b *testing.B, probe floorplanner.Probe) {
		b.Helper()
		ls := diag.LabelSet{Engine: "exact", Phase: "solve", Endpoint: "bench", Digest: "feedface"}
		for i := 0; i < b.N; i++ {
			diag.Do(context.Background(), ls, func(ctx context.Context) {
				sol, err := (&exact.Engine{}).Solve(ctx, p, core.SolveOptions{
					TimeLimit: benchBudget, Probe: probe,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !sol.Proven {
					b.Fatal("not proven")
				}
			})
		}
	}
	b.Run("bare", func(b *testing.B) {
		diag.SetLabeling(false)
		solve(b, nil)
	})
	b.Run("labels-off", func(b *testing.B) {
		diag.SetLabeling(false)
		lprobe := diag.NewLabelProbe(obs.Nop)
		lprobe.Bind(context.Background())
		solve(b, lprobe)
	})
	b.Run("labels-on", func(b *testing.B) {
		diag.SetLabeling(true)
		lprobe := diag.NewLabelProbe(obs.Nop)
		lprobe.Bind(context.Background())
		solve(b, lprobe)
	})
}

// --- helpers ---

func smallMILPProblem() *core.Problem {
	cols := make([]device.TypeID, 12)
	for i := range cols {
		cols[i] = device.V5CLB
	}
	cols[2], cols[8] = device.V5BRAM, device.V5BRAM
	cols[5] = device.V5DSP
	d, err := device.NewColumnar("bench-small", cols, 3, device.V5Types(), nil)
	if err != nil {
		panic(err)
	}
	return &core.Problem{
		Device: d,
		Regions: []core.Region{
			{Name: "A", Req: device.Requirements{device.ClassCLB: 3, device.ClassDSP: 1}},
			{Name: "B", Req: device.Requirements{device.ClassCLB: 2, device.ClassBRAM: 1}},
		},
		FCAreas:   []core.FCRequest{{Region: 0, Mode: core.RelocConstraint}},
		Objective: core.DefaultObjective(),
	}
}

func benchKnapsack(n int) *lp.Model {
	m := lp.NewModel()
	var terms []lp.Term
	total := 0.0
	for i := 0; i < n; i++ {
		w := float64(20 + (i*37)%30)
		v := w + float64((i*13)%10)
		x := m.AddBinary("x", -v)
		terms = append(terms, lp.Term{Var: x, Coef: w})
		total += w
	}
	m.AddConstraint("cap", terms, lp.LE, total/2)
	return m
}

func benchAssignment(n int) *lp.Model {
	m := lp.NewModel()
	vars := make([][]lp.VarID, n)
	for i := range vars {
		vars[i] = make([]lp.VarID, n)
		for j := range vars[i] {
			vars[i][j] = m.AddVariable("x", 0, 1, float64((i*31+j*17)%100))
		}
	}
	for i := 0; i < n; i++ {
		var row, col []lp.Term
		for j := 0; j < n; j++ {
			row = append(row, lp.Term{Var: vars[i][j], Coef: 1})
			col = append(col, lp.Term{Var: vars[j][i], Coef: 1})
		}
		m.AddConstraint("r", row, lp.EQ, 1)
		m.AddConstraint("c", col, lp.EQ, 1)
	}
	return m
}
