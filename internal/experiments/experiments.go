// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) on the reconstructed FX70T tile model, plus the
// concept figures of Sections II and III. It is shared by
// cmd/experiments and the repository benchmarks.
//
// Absolute numbers differ from the paper where the substrate differs (our
// device model and solvers are clean-room reconstructions — see
// EXPERIMENTS.md); each row therefore reports the paper's value alongside
// the measured one so the qualitative shape can be compared directly.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	floorplanner "repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/exact"
	"repro/internal/flight"
	"repro/internal/grid"
	"repro/internal/guard"
	"repro/internal/heuristic"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sdr"
)

// Table1Row is one region of Table I.
type Table1Row struct {
	Region string
	CLB    int
	BRAM   int
	DSP    int
	Frames int
}

// Table1 recomputes Table I: per-region tile requirements and the minimal
// configuration-frame counts they imply on the FX70T.
func Table1() ([]Table1Row, error) {
	d := device.VirtexFX70T()
	var rows []Table1Row
	for _, r := range sdr.TableI() {
		frames, err := d.FramesForRequirements(r.Req)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Region: r.Name,
			CLB:    r.Req[device.ClassCLB],
			BRAM:   r.Req[device.ClassBRAM],
			DSP:    r.Req[device.ClassDSP],
			Frames: frames,
		})
	}
	return rows, nil
}

// FormatTable1 renders Table I with the paper's totals row.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: Resource requirements for the SDR design\n")
	fmt.Fprintf(&b, "%-18s %5s %5s %5s %9s\n", "Region", "CLB", "BRAM", "DSP", "# Frames")
	var tc, tb, td, tf int
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %5d %5d %5d %9d\n", r.Region, r.CLB, r.BRAM, r.DSP, r.Frames)
		tc += r.CLB
		tb += r.BRAM
		td += r.DSP
		tf += r.Frames
	}
	fmt.Fprintf(&b, "%-18s %5d %5d %5d %9d\n", "Total", tc, tb, td, tf)
	return b.String()
}

// FeasibilityRow is one region of the Section VI feasibility test.
type FeasibilityRow struct {
	Region        string
	Feasible      bool
	PaperFeasible bool
	Elapsed       time.Duration
}

// paperFeasible records the published result: a free-compatible area
// exists for every region except the Matched Filter and Video Decoder.
var paperFeasible = map[string]bool{
	sdr.MatchedFilter:   false,
	sdr.CarrierRecovery: true,
	sdr.Demodulator:     true,
	sdr.SignalDecoder:   true,
	sdr.VideoDecoder:    false,
}

// Feasibility reruns the per-region feasibility analysis: place the full
// SDR design plus one constraint-mode free-compatible area for a single
// region at a time.
func Feasibility(ctx context.Context, budget time.Duration) ([]FeasibilityRow, error) {
	base := sdr.Problem()
	var rows []FeasibilityRow
	for ri, region := range base.Regions {
		p := base.WithFCConstraints([]int{ri}, 1)
		start := time.Now()
		_, err := (&exact.Engine{}).Solve(ctx, p, core.SolveOptions{TimeLimit: budget})
		row := FeasibilityRow{
			Region:        region.Name,
			PaperFeasible: paperFeasible[region.Name],
			Elapsed:       time.Since(start),
		}
		switch {
		case err == nil:
			row.Feasible = true
		case errors.Is(err, core.ErrInfeasible):
			row.Feasible = false
		default:
			return nil, fmt.Errorf("experiments: feasibility of %s: %w", region.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFeasibility renders the feasibility analysis.
func FormatFeasibility(rows []FeasibilityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Feasibility: one free-compatible area per region (Section VI)\n")
	fmt.Fprintf(&b, "%-18s %-10s %-10s %8s\n", "Region", "measured", "paper", "time")
	verdict := func(f bool) string {
		if f {
			return "feasible"
		}
		return "INFEASIBLE"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-10s %-10s %8s\n", r.Region, verdict(r.Feasible), verdict(r.PaperFeasible), r.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}

// Table2Row is one line of Table II.
type Table2Row struct {
	Algorithm   string
	Design      string
	FCAreas     int
	Wasted      int
	PaperWasted int // -1 when the paper has no corresponding row
	WireLength  float64
	Proven      bool
	Elapsed     time.Duration
}

// Table2 reruns the Table II comparison:
//
//	[8]  -> the tessellation baseline (band-quantized, reconfiguration-
//	        centric greedy) on the plain SDR design,
//	[10] -> the relocation-free optimum (our exact engine; the paper's O
//	        without relocation constraints),
//	PA   -> the relocation-aware floorplanner on SDR2 and SDR3.
func Table2(ctx context.Context, budget time.Duration) ([]Table2Row, error) {
	var rows []Table2Row
	run := func(alg string, eng core.Engine, p *core.Problem, paper int) error {
		start := time.Now()
		sol, err := eng.Solve(ctx, p, core.SolveOptions{TimeLimit: budget, Seed: 1})
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", alg, err)
		}
		if err := sol.Validate(p); err != nil {
			return fmt.Errorf("experiments: %s produced invalid solution: %w", alg, err)
		}
		m := sol.Metrics(p)
		design := "SDR"
		if len(p.FCAreas) == 6 {
			design = "SDR2"
		} else if len(p.FCAreas) == 9 {
			design = "SDR3"
		}
		rows = append(rows, Table2Row{
			Algorithm:   alg,
			Design:      design,
			FCAreas:     m.PlacedFC,
			Wasted:      m.WastedFrames,
			PaperWasted: paper,
			WireLength:  m.WireLength,
			Proven:      sol.Proven,
			Elapsed:     time.Since(start),
		})
		return nil
	}
	if err := run("[8] tessellation", &heuristic.Tessellation{BandQuantum: 2}, sdr.Problem(), 466); err != nil {
		return nil, err
	}
	if err := run("[10] MILP (no reloc)", &exact.Engine{}, sdr.Problem(), 306); err != nil {
		return nil, err
	}
	if err := run("PA (this work)", &exact.Engine{}, sdr.SDR2(), 306); err != nil {
		return nil, err
	}
	if err := run("PA (this work)", &exact.Engine{}, sdr.SDR3(), 346); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatTable2 renders the Table II comparison.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: Comparison of different floorplan solutions\n")
	fmt.Fprintf(&b, "%-22s %-6s %9s %14s %14s %10s %7s %9s\n",
		"Algorithm", "Design", "FC areas", "wasted frames", "paper wasted", "wirelen", "proven", "time")
	for _, r := range rows {
		paper := "-"
		if r.PaperWasted >= 0 {
			paper = fmt.Sprintf("%d", r.PaperWasted)
		}
		fmt.Fprintf(&b, "%-22s %-6s %9d %14d %14s %10.0f %7v %9s\n",
			r.Algorithm, r.Design, r.FCAreas, r.Wasted, paper, r.WireLength, r.Proven, r.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}

// PortfolioRow is one SDR instance of the portfolio race comparison.
type PortfolioRow struct {
	Design string
	// Winner is the member engine whose solution the portfolio accepted.
	Winner string
	// Wasted and WireLength are the winning solution's cost terms.
	Wasted     int
	WireLength float64
	// Elapsed is the portfolio's wall-clock; with members racing
	// concurrently it tracks the decisive member, not the sum.
	Elapsed time.Duration
	// Members records each member's own latency and outcome, from the
	// solve's stage log.
	Members []flight.Stage
}

// PortfolioRace runs the portfolio engine on the three SDR instances
// under the shared budget, reporting per-member latencies alongside the
// accepted winner — the serving-layer view of the paper's exact-vs-
// heuristic comparison (Section VI under wall-clock budgets).
func PortfolioRace(ctx context.Context, budget time.Duration) ([]PortfolioRow, error) {
	var rows []PortfolioRow
	for _, design := range []string{"SDR", "SDR2", "SDR3"} {
		var p *core.Problem
		switch design {
		case "SDR":
			p = sdr.Problem()
		case "SDR2":
			p = sdr.SDR2()
		case "SDR3":
			p = sdr.SDR3()
		}
		pf, err := floorplanner.NewPortfolio()
		if err != nil {
			return nil, err
		}
		sctx, stages := guard.WithStageLog(ctx)
		start := time.Now()
		sol, err := pf.Solve(sctx, p, core.SolveOptions{TimeLimit: budget, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("experiments: portfolio on %s: %w", design, err)
		}
		if err := sol.Validate(p); err != nil {
			return nil, fmt.Errorf("experiments: portfolio on %s produced invalid solution: %w", design, err)
		}
		m := sol.Metrics(p)
		rows = append(rows, PortfolioRow{
			Design:     design,
			Winner:     sol.Engine,
			Wasted:     m.WastedFrames,
			WireLength: m.WireLength,
			Elapsed:    time.Since(start),
			Members:    stages.Stages(),
		})
	}
	return rows, nil
}

// FormatPortfolio renders the portfolio race comparison.
func FormatPortfolio(rows []PortfolioRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Portfolio race: engines under one shared budget per design\n")
	fmt.Fprintf(&b, "%-6s %-24s %14s %10s %9s\n", "Design", "winner", "wasted frames", "wirelen", "time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-24s %14d %10.0f %9s\n",
			r.Design, r.Winner, r.Wasted, r.WireLength, r.Elapsed.Round(time.Millisecond))
		for _, st := range r.Members {
			verdict := st.Outcome
			if r.Winner == "portfolio("+st.Engine+")" {
				verdict = "WON"
			}
			elapsed := time.Duration(st.ElapsedMS * float64(time.Millisecond))
			fmt.Fprintf(&b, "    %-20s %9s  %s\n", st.Engine, elapsed.Round(time.Millisecond), verdict)
		}
	}
	return b.String()
}

// TelemetryRow is one engine's probe-layer telemetry on one SDR instance.
type TelemetryRow struct {
	Design  string
	Engine  string
	Outcome string
	// Nodes, Pivots and Backtracks are the work counters summed over the
	// engine's spans; Incumbents counts improvement events (capped points
	// included).
	Nodes      int64
	Pivots     int64
	Backtracks int64
	Incumbents int
	// Best is the final incumbent objective (NaN when none was found).
	Best    float64
	Elapsed time.Duration
}

// telemetryEngines are the engines the telemetry sweep runs, in report
// order. milp-o is omitted: on the full SDR instances its exhaustive MILP
// dominates the sweep's wall-clock without adding counter coverage beyond
// milp-ho.
var telemetryEngines = []string{"exact", "milp-ho", "constructive", "annealing", "tessellation", "portfolio"}

// Telemetry runs every engine on the named SDR instance under a recording
// probe and reports the per-engine work counters and incumbent
// trajectories — the paper's Section VI effort comparison restated in
// solver-internal units (nodes, pivots, improvements) instead of
// wall-clock alone.
func Telemetry(ctx context.Context, design string, budget time.Duration) ([]TelemetryRow, error) {
	p, _, err := problemFor(design)
	if err != nil {
		return nil, err
	}
	var rows []TelemetryRow
	for _, name := range telemetryEngines {
		eng, err := floorplanner.NewEngine(name)
		if err != nil {
			return nil, err
		}
		rec := obs.NewRecorder()
		start := time.Now()
		sol, serr := eng.Solve(ctx, p, core.SolveOptions{TimeLimit: budget, Seed: 1, Probe: rec})
		row := TelemetryRow{
			Design:     design,
			Engine:     eng.Name(),
			Outcome:    string(core.ObsOutcome(sol, serr)),
			Nodes:      rec.Total(obs.Nodes),
			Pivots:     rec.Total(obs.Pivots),
			Backtracks: rec.Total(obs.Backtracks),
			Incumbents: len(rec.Incumbents("")) + rec.DroppedIncumbents(),
			Elapsed:    time.Since(start),
		}
		if pts := rec.Incumbents(eng.Name()); len(pts) > 0 {
			row.Best = pts[len(pts)-1].Objective
		} else {
			row.Best = math.NaN()
		}
		if serr != nil && !errors.Is(serr, core.ErrInfeasible) && !errors.Is(serr, core.ErrNoSolution) {
			return nil, fmt.Errorf("experiments: telemetry %s on %s: %w", eng.Name(), design, serr)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTelemetry renders the per-engine telemetry table.
func FormatTelemetry(rows []TelemetryRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Solve telemetry on %s: per-engine work counters\n", rows[0].Design)
	}
	fmt.Fprintf(&b, "%-14s %-12s %10s %10s %10s %11s %10s %9s\n",
		"Engine", "outcome", "nodes", "pivots", "backtracks", "incumbents", "best", "time")
	for _, r := range rows {
		best := "-"
		if !math.IsNaN(r.Best) {
			best = fmt.Sprintf("%.0f", r.Best)
		}
		fmt.Fprintf(&b, "%-14s %-12s %10d %10d %10d %11d %10s %9s\n",
			r.Engine, r.Outcome, r.Nodes, r.Pivots, r.Backtracks, r.Incumbents, best,
			r.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}

// problemFor resolves a design name to its SDR instance.
func problemFor(design string) (*core.Problem, string, error) {
	switch design {
	case "SDR":
		return sdr.Problem(), design, nil
	case "SDR2":
		return sdr.SDR2(), design, nil
	case "SDR3":
		return sdr.SDR3(), design, nil
	default:
		return nil, "", fmt.Errorf("experiments: unknown design %q", design)
	}
}

// Floorplan solves the named SDR instance ("SDR", "SDR2" or "SDR3") and
// returns the problem and solution — the data behind Figures 4 and 5.
func Floorplan(ctx context.Context, design string, budget time.Duration) (*core.Problem, *core.Solution, error) {
	var p *core.Problem
	switch design {
	case "SDR":
		p = sdr.Problem()
	case "SDR2":
		p = sdr.SDR2()
	case "SDR3":
		p = sdr.SDR3()
	default:
		return nil, nil, fmt.Errorf("experiments: unknown design %q", design)
	}
	sol, err := (&exact.Engine{}).Solve(ctx, p, core.SolveOptions{TimeLimit: budget})
	if err != nil {
		return nil, nil, err
	}
	return p, sol, nil
}

// Figure1 renders the compatible/non-compatible areas example of
// Figure 1 as text.
func Figure1() string {
	d := device.Figure1Device()
	var b strings.Builder
	b.WriteString("Figure 1: compatible (A,B) and non-compatible (A,C) areas\n")
	a := core.Region{Name: "A", Req: device.Requirements{device.ClassCLB: 1}}
	p := &core.Problem{Device: d, Regions: []core.Region{a}}
	b.WriteString(core.RenderASCII(p, nil))
	ra := "(1,0) 2x3"
	rb := "(4,3) 2x3"
	rc := "(7,0) 2x3"
	b.WriteString(fmt.Sprintf("A=%s B=%s C=%s\n", ra, rb, rc))
	b.WriteString(fmt.Sprintf("Compatible(A,B) = %v\n", d.Compatible(
		rect(1, 0, 2, 3), rect(4, 3, 2, 3))))
	b.WriteString(fmt.Sprintf("Compatible(A,C) = %v\n", d.Compatible(
		rect(1, 0, 2, 3), rect(7, 0, 2, 3))))
	return b.String()
}

// Figure2 runs the columnar partitioning walkthrough of Figure 2.
func Figure2() (string, error) {
	d := device.Figure2Device()
	part, err := partition.Columnar(d)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 2: columnar partitioning with forbidden areas\n")
	p := &core.Problem{Device: d}
	b.WriteString(core.RenderASCII(p, nil))
	for _, por := range part.Portions {
		fmt.Fprintf(&b, "  %s\n", por)
	}
	for i, f := range part.Forbidden {
		fmt.Fprintf(&b, "  f%d = %v\n", i+1, f)
	}
	return b.String(), nil
}

func rect(x, y, w, h int) grid.Rect {
	return grid.Rect{X: x, Y: y, W: w, H: h}
}
