package exact

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sdr"
)

func solve(t *testing.T, p *core.Problem) (*core.Solution, error) {
	t.Helper()
	eng := &Engine{}
	sol, err := eng.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 120 * time.Second})
	if err != nil {
		return nil, err
	}
	if err := sol.Validate(p); err != nil {
		t.Fatalf("engine returned invalid solution: %v", err)
	}
	return sol, nil
}

func TestSDRBaseOptimal(t *testing.T) {
	p := sdr.Problem()
	sol, err := solve(t, p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Proven {
		t.Fatal("SDR must be solved to proven optimality")
	}
	m := sol.Metrics(p)
	// The optimum of the FX70T tile model (cross-checked by brute force
	// when first established; guards against regressions in the engine
	// or the device model).
	if m.WastedFrames != 126 {
		t.Fatalf("SDR optimal waste = %d, want 126", m.WastedFrames)
	}
}

// TestFeasibilityAnalysis reproduces the Section VI feasibility test: one
// free-compatible area per region at a time is infeasible exactly for the
// Matched Filter and Video Decoder.
func TestFeasibilityAnalysis(t *testing.T) {
	base := sdr.Problem()
	wantInfeasible := map[string]bool{
		sdr.MatchedFilter:   true,
		sdr.CarrierRecovery: false,
		sdr.Demodulator:     false,
		sdr.SignalDecoder:   false,
		sdr.VideoDecoder:    true,
	}
	for ri, region := range base.Regions {
		p := base.WithFCConstraints([]int{ri}, 1)
		_, err := solve(t, p)
		gotInfeasible := errors.Is(err, core.ErrInfeasible)
		if err != nil && !gotInfeasible {
			t.Fatalf("%s: unexpected error %v", region.Name, err)
		}
		if gotInfeasible != wantInfeasible[region.Name] {
			t.Fatalf("%s: infeasible=%v, want %v", region.Name, gotInfeasible, wantInfeasible[region.Name])
		}
	}
}

// TestSDR2SDR3 reproduces the Table II shape: SDR2's relocation
// constraints cost no extra wasted frames over the relocation-free
// optimum, and SDR3 costs at least as much as SDR2.
func TestSDR2SDR3(t *testing.T) {
	base, err := solve(t, sdr.Problem())
	if err != nil {
		t.Fatal(err)
	}
	baseWaste := base.Metrics(sdr.Problem()).WastedFrames

	p2 := sdr.SDR2()
	s2, err := solve(t, p2)
	if err != nil {
		t.Fatal(err)
	}
	m2 := s2.Metrics(p2)
	if m2.PlacedFC != 6 {
		t.Fatalf("SDR2 placed %d FC areas, want 6", m2.PlacedFC)
	}
	if m2.WastedFrames < baseWaste {
		t.Fatalf("SDR2 waste %d below the relocation-free optimum %d", m2.WastedFrames, baseWaste)
	}

	p3 := sdr.SDR3()
	s3, err := solve(t, p3)
	if err != nil {
		t.Fatal(err)
	}
	m3 := s3.Metrics(p3)
	if m3.PlacedFC != 9 {
		t.Fatalf("SDR3 placed %d FC areas, want 9", m3.PlacedFC)
	}
	if m3.WastedFrames < m2.WastedFrames {
		t.Fatalf("SDR3 waste %d below SDR2 waste %d", m3.WastedFrames, m2.WastedFrames)
	}
}

func TestMetricModeDegradesGracefully(t *testing.T) {
	// Request metric-mode FC areas for the Matched Filter (which the
	// feasibility analysis proves impossible): the solve must succeed
	// with the area reported missed.
	base := sdr.Problem()
	p := *base
	p.FCAreas = []core.FCRequest{{Region: p.RegionIndex(sdr.MatchedFilter), Mode: core.RelocMetric}}
	sol, err := solve(t, &p)
	if err != nil {
		t.Fatal(err)
	}
	m := sol.Metrics(&p)
	if m.PlacedFC != 0 || m.RelocationMiss != 1 {
		t.Fatalf("metrics = %+v, want one missed area", m)
	}
	// And mixing in placeable requests keeps them placed.
	p.FCAreas = append(p.FCAreas, core.FCRequest{Region: p.RegionIndex(sdr.CarrierRecovery), Mode: core.RelocMetric})
	sol, err = solve(t, &p)
	if err != nil {
		t.Fatal(err)
	}
	m = sol.Metrics(&p)
	if m.PlacedFC != 1 {
		t.Fatalf("placed %d FC areas, want 1", m.PlacedFC)
	}
}

func TestInfeasibleRegion(t *testing.T) {
	p := &core.Problem{
		Device: device.VirtexFX70T(),
		Regions: []core.Region{
			{Name: "huge", Req: device.Requirements{device.ClassDSP: 17}},
		},
	}
	_, err := (&Engine{}).Solve(context.Background(), p, core.SolveOptions{})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want infeasible", err)
	}
}

func TestTimeLimitHonored(t *testing.T) {
	p, err := sdr.Synthetic(sdr.GeneratorConfig{Regions: 10, MaxCLB: 30, MaxBRAM: 3, MaxDSP: 2, ChainNets: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	eng := &Engine{}
	_, _ = eng.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 150 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("solve took %s despite 150ms limit", elapsed)
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := sdr.SDR3()
	_, err := (&Engine{}).Solve(ctx, p, core.SolveOptions{})
	// Either a fast solve finished legitimately or the cancellation
	// surfaced as no-solution; both are acceptable, hanging is not.
	if err != nil && !errors.Is(err, core.ErrNoSolution) && !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("unexpected error %v", err)
	}
}

// bruteForce finds the optimal (waste, wirelength) lexicographic solution
// of a tiny problem by complete enumeration over all legal rectangles
// (not just width-minimal ones) — the independent oracle.
func bruteForce(p *core.Problem) (bestWaste int, bestWL float64, found bool) {
	d := p.Device
	var rects []grid.Rect
	var all [][]grid.Rect
	for _, reg := range p.Regions {
		var opts []grid.Rect
		for x := 0; x < d.Width(); x++ {
			for y := 0; y < d.Height(); y++ {
				for w := 1; x+w <= d.Width(); w++ {
					for h := 1; y+h <= d.Height(); h++ {
						r := grid.Rect{X: x, Y: y, W: w, H: h}
						if d.CanPlace(r) && d.Satisfies(r, reg.Req) {
							opts = append(opts, r)
						}
					}
				}
			}
		}
		all = append(all, opts)
	}
	bestWaste = 1 << 30
	var rec func(i int)
	rec = func(i int) {
		if i == len(all) {
			waste := 0
			for ri, r := range rects {
				waste += d.WastedFrames(r, p.Regions[ri].Req)
			}
			wl := core.WireLengthOf(p, rects)
			if waste < bestWaste || (waste == bestWaste && wl < bestWL) {
				bestWaste, bestWL, found = waste, wl, true
			}
			return
		}
		for _, r := range all[i] {
			if grid.AnyOverlap(r, rects) {
				continue
			}
			rects = append(rects, r)
			rec(i + 1)
			rects = rects[:len(rects)-1]
		}
	}
	rec(0)
	return bestWaste, bestWL, found
}

// matchesOracle solves p and reports whether the result agrees with
// bruteForce: the same feasibility, the optimal waste and the optimal wire
// length at that waste.
func matchesOracle(t *testing.T, p *core.Problem, seed int64) bool {
	t.Helper()
	// Drop zero requirements (Validate requires non-zero total).
	for _, r := range p.Regions {
		for cl, n := range r.Req {
			if n == 0 {
				delete(r.Req, cl)
			}
		}
	}
	wantWaste, wantWL, feasible := bruteForce(p)
	sol, err := (&Engine{}).Solve(context.Background(), p, core.SolveOptions{})
	if !feasible {
		return errors.Is(err, core.ErrInfeasible)
	}
	if err != nil {
		t.Logf("seed %d: %v (oracle waste %d)", seed, err, wantWaste)
		return false
	}
	if sol.Validate(p) != nil {
		return false
	}
	m := sol.Metrics(p)
	if m.WastedFrames != wantWaste {
		t.Logf("seed %d: waste %d vs oracle %d", seed, m.WastedFrames, wantWaste)
		return false
	}
	if math.Abs(m.WireLength-wantWL) > 1e-9 {
		t.Logf("seed %d: wl %g vs oracle %g", seed, m.WireLength, wantWL)
		return false
	}
	return true
}

// TestQuickAgainstBruteForce cross-checks the engine against complete
// enumeration on tiny random problems (small device, two regions).
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := device.MustGenerate(device.GeneratorConfig{
			Width: 6 + rng.Intn(4), Height: 3,
			BRAMEvery: 4, DSPEvery: 7,
			Seed: seed,
		})
		p := &core.Problem{
			Device: d,
			Regions: []core.Region{
				{Name: "A", Req: device.Requirements{device.ClassCLB: 1 + rng.Intn(4)}},
				{Name: "B", Req: device.Requirements{device.ClassCLB: 1 + rng.Intn(3), device.ClassBRAM: rng.Intn(2)}},
			},
			Nets:      []core.Net{{A: 0, B: 1, Weight: 1}},
			Objective: core.DefaultObjective(),
		}
		return matchesOracle(t, p, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOpenNetBoundAgainstBruteForce cross-checks the bound on
// unfinished nets (openWire) against complete enumeration: three regions
// joined by a path or a triangle of nets with unequal weights, so the
// search meets nets with both endpoints unplaced, an unplaced region with
// one placed neighbour (separation) and one with two (weighted median).
func TestQuickOpenNetBoundAgainstBruteForce(t *testing.T) {
	weights := []float64{1, 2.5, 4, 7}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := device.MustGenerate(device.GeneratorConfig{
			Width: 5 + rng.Intn(3), Height: 3,
			BRAMEvery: 4, DSPEvery: 7,
			Seed: seed,
		})
		p := &core.Problem{
			Device: d,
			Regions: []core.Region{
				{Name: "A", Req: device.Requirements{device.ClassCLB: 1 + rng.Intn(3)}},
				{Name: "B", Req: device.Requirements{device.ClassCLB: 1 + rng.Intn(2), device.ClassBRAM: rng.Intn(2)}},
				{Name: "C", Req: device.Requirements{device.ClassCLB: 1 + rng.Intn(3)}},
			},
			Objective: core.DefaultObjective(),
		}
		// A path with the middle region chosen at random, closed into a
		// triangle half of the time.
		mid := rng.Intn(3)
		ends := []int{(mid + 1) % 3, (mid + 2) % 3}
		p.Nets = []core.Net{
			{A: ends[0], B: mid, Weight: weights[rng.Intn(len(weights))]},
			{A: mid, B: ends[1], Weight: weights[rng.Intn(len(weights))]},
		}
		if rng.Intn(2) == 0 {
			p.Nets = append(p.Nets, core.Net{A: ends[0], B: ends[1], Weight: weights[rng.Intn(len(weights))]})
		}
		return matchesOracle(t, p, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenWireAdmissible checks the bound on unfinished nets directly:
// for every layout of a tiny problem, in a random placement order, and at
// every depth, the completed nets' wire length plus openWire never
// exceeds the layout's total wire length. Unlike the oracle comparison,
// this holds each term to account even where the search order would not
// let it decide a prune.
func TestOpenWireAdmissible(t *testing.T) {
	weights := []float64{0, 1, 2.5, 4, 7}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := device.MustGenerate(device.GeneratorConfig{
			Width: 5 + rng.Intn(3), Height: 2 + rng.Intn(3),
			BRAMEvery: 4, DSPEvery: 7,
			Seed: seed,
		})
		p := &core.Problem{Device: d, Objective: core.DefaultObjective()}
		for i := 0; i < 3; i++ {
			p.Regions = append(p.Regions, core.Region{Req: device.Requirements{device.ClassCLB: 1 + rng.Intn(5)}})
		}
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				p.Nets = append(p.Nets, core.Net{A: a, B: b, Weight: weights[rng.Intn(len(weights))]})
			}
		}
		st := &searchState{p: p, order: rng.Perm(3), placed: make([]grid.Rect, 3)}
		orderPos := make([]int, 3)
		for k, ri := range st.order {
			orderPos[ri] = k
		}
		for _, r := range p.Regions {
			st.cands = append(st.cands, core.EnumerateAllCandidates(d, r.Req))
		}
		st.buildOpenNets(orderPos)

		ok := true
		var rec func(k int)
		rec = func(k int) {
			if !ok {
				return
			}
			if k < len(st.order) {
				ri := st.order[k]
				for _, c := range st.cands[ri] {
					if overlapsPlaced(st, k, c.Rect) {
						continue
					}
					st.placed[ri] = c.Rect
					rec(k + 1)
				}
				return
			}
			total := core.WireLengthOf(p, st.placed)
			for depth := range st.order {
				done := 0.0
				for i, n := range p.Nets {
					if orderPos[n.A] <= depth && orderPos[n.B] <= depth {
						done += core.WireLengthOf(&core.Problem{Nets: p.Nets[i : i+1]}, st.placed)
					}
				}
				if lb := done + st.openWire(depth); lb > total+1e-9 {
					t.Logf("seed %d: depth %d bound %g exceeds wire length %g of %v", seed, depth, lb, total, st.placed)
					ok = false
					return
				}
			}
		}
		rec(0)
		// The bound runs at search nodes, so it must not allocate.
		if allocs := testing.AllocsPerRun(5, func() { st.openWire(0) }); allocs != 0 {
			t.Logf("seed %d: openWire allocates %v times per call", seed, allocs)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// overlapsPlaced reports whether r overlaps a region placed before depth k.
func overlapsPlaced(st *searchState, k int, r grid.Rect) bool {
	for _, ri := range st.order[:k] {
		if st.placed[ri].Overlaps(r) {
			return true
		}
	}
	return false
}

// TestFCAreasAreFreeCompatible checks Definition .2 end to end: every
// reserved area in an SDR3 solution is compatible with its region and
// overlaps nothing.
func TestFCAreasAreFreeCompatible(t *testing.T) {
	p := sdr.SDR3()
	sol, err := solve(t, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range sol.FC {
		if !fc.Placed {
			t.Fatal("constraint-mode FC area missing")
		}
		src := sol.Regions[p.FCAreas[fc.Request].Region]
		if !p.Device.Compatible(src, fc.Rect) {
			t.Fatalf("area %v not compatible with %v", fc.Rect, src)
		}
	}
}

func TestSyntheticScaling(t *testing.T) {
	for _, n := range []int{3, 6, 9} {
		p, err := sdr.Synthetic(sdr.GeneratorConfig{
			Regions: n, MaxCLB: 15, MaxBRAM: 2, MaxDSP: 1, ChainNets: true, Seed: int64(n),
		})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := (&Engine{}).Solve(context.Background(), p, core.SolveOptions{TimeLimit: 20 * time.Second})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := sol.Validate(p); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestSDRSearchPinned pins the sequential search's node and pruned-subtree
// counts on the paper's three instances and on a six-region generated
// FX70T design in the BenchmarkScalingRegions shape, which proves quickly
// only with the bound on unfinished nets (openWire). With one worker
// the DFS order depends only on the problem, so these counts repeat
// exactly; a change to the bounds, the candidate order or the FC slot
// filtering moves them and fails here with zero margin, where a
// wall-clock gate would need a noise allowance. Larger generated designs
// are tracked in ROADMAP.md, not here, so the test stays fast.
func TestSDRSearchPinned(t *testing.T) {
	fx70t6, err := sdr.Synthetic(sdr.GeneratorConfig{
		Regions: 6, MaxCLB: 12, MaxBRAM: 2, MaxDSP: 1, ChainNets: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		p             *core.Problem
		nodes, pruned int64
	}{
		{"sdr", sdr.Problem(), 46309, 3792630},
		{"sdr2", sdr.SDR2(), 88488, 945463},
		{"sdr3", sdr.SDR3(), 119025, 1131742},
		{"fx70t-6", fx70t6, 1686936, 18361318},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			sol, err := (&Engine{}).Solve(context.Background(), tc.p,
				core.SolveOptions{Workers: 1, TimeLimit: 120 * time.Second, Probe: rec})
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Proven {
				t.Fatal("not proven optimal")
			}
			nodes, pruned := rec.Total(obs.Nodes), rec.Total(obs.Pruned)
			if nodes != tc.nodes || pruned != tc.pruned {
				t.Fatalf("%d nodes / %d pruned, want %d / %d", nodes, pruned, tc.nodes, tc.pruned)
			}
		})
	}
}
