package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	floorplanner "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/grid"
	"repro/internal/guard"
	"repro/internal/heuristic"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sdr"
	"repro/internal/seqpair"
)

// opBudget is the time limit of every offline op. Ops take at most a few
// seconds, so no op ends at this budget; one that ran past half of it is
// reported as a failed op instead of being timed.
const opBudget = 60 * time.Second

// setupReps is how many times a run performs its set-up; setup_s is the
// median.
const setupReps = 9

// offlinePassMS is the nominal time of one pass over the offline suite
// on a 2-core x86 host, used to turn --seconds into a whole number of
// passes.
const offlinePassMS = 5000

// relTol is the relative tolerance of objective comparisons.
const relTol = 1e-9

func sameObjective(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Abs(b))
}

// offlineOps is one run's op sequence: suite indices and a freshly built
// Problem for each op.
type offlineOps struct {
	order []int
	probs []*core.Problem
}

// setupOffline generates the op sequence. Every op gets its own Problem
// on its own Device, so candidate enumeration is cold for every op.
func setupOffline(suite []instance, passes int, seed int64) *offlineOps {
	ops := &offlineOps{order: opOrder(len(suite), passes, seed)}
	for _, i := range ops.order {
		ops.probs = append(ops.probs, suite[i].build())
	}
	return ops
}

// offlineResult is what one timed pass over an op sequence returned.
type offlineResult struct {
	lat  []float64 // ms per op
	sols []*core.Solution
	errs []error
	wall time.Duration
	heap float64
	kb   float64 // KiB allocated per op
}

// timeOps runs every op through the floorplanner facade, one at a time;
// traced gives every op a fresh recorder probe.
func timeOps(suite []instance, ops *offlineOps, traced bool) *offlineResult {
	n := len(ops.order)
	r := &offlineResult{lat: make([]float64, n), sols: make([]*core.Solution, n), errs: make([]error, n)}
	hp := startHeapPeak(10 * time.Millisecond)
	a0 := allocBytes()
	start := time.Now()
	for k, i := range ops.order {
		opts := floorplanner.Options{Engine: suite[i].engine, Workers: 1, TimeLimit: opBudget}
		if traced {
			opts.Probe = obs.NewRecorder()
		}
		t := time.Now()
		r.sols[k], r.errs[k] = floorplanner.Solve(context.Background(), ops.probs[k], opts)
		r.lat[k] = ms(time.Since(t))
	}
	r.wall = time.Since(start)
	r.kb = float64(allocBytes()-a0) / 1024 / float64(n)
	r.heap = hp.Stop()
	return r
}

// offlinePasses is the number of suite passes of a run of seconds; at
// least two, so the suite leaves 10 samples beyond its median.
func offlinePasses(seconds int) int {
	return max(2, int(math.Round(float64(seconds)*1000/offlinePassMS)))
}

// runOffline runs the offline workload; its traced run adds the untimed
// milp-ho breakdown on SDR2 to the per-layer metrics.
func runOffline(cfg runConfig) (*outcome, error) {
	// Every offline op is a single-threaded solve (Workers 1). One P runs
	// the garbage collector inline with it, so its cost lands in the op
	// on every run instead of depending on whether a second core of a
	// shared host happens to be free (see NOTES.md).
	runtime.GOMAXPROCS(1)
	suite := offlineSuite()
	passes := offlinePasses(cfg.seconds)
	var ops *offlineOps
	setups := make([]float64, 0, setupReps)
	for k := 0; k < setupReps; k++ {
		if k > 0 {
			runtime.GC() // start each repetition from the same heap
		}
		t := time.Now()
		if k == 0 {
			t = processStart
		}
		ops = setupOffline(suite, passes, cfg.seed)
		setups = append(setups, time.Since(t).Seconds())
	}

	out := newOutcome()
	res := timeOps(suite, ops, false)
	out.attempted = len(ops.order)
	checkOffline(out, suite, ops, res)

	// The host's speed drifts by tens of percent for up to a minute at a
	// time (NOTES.md), and drift only ever slows an op down. The
	// end-to-end times are therefore taken from each instance's fastest
	// solve of the run: solve_ms_sgm is their shifted geometric mean, and
	// ops_per_s the suite size over their sum, the rate of a suite pass at
	// the run's best pace.
	fastest := make([]float64, len(suite))
	for k, i := range ops.order {
		if fastest[i] == 0 || res.lat[k] < fastest[i] {
			fastest[i] = res.lat[k]
		}
	}
	var bestPassMS float64
	for _, x := range fastest {
		bestPassMS += x
	}
	fmt.Fprintf(os.Stderr, "%d ops (%d passes over %d instances) in %.2f s, best-pace pass %.2f s\n",
		len(ops.order), passes, len(suite), res.wall.Seconds(), bestPassMS/1000)
	out.values["setup_s"] = median(setups)
	out.values["ops_per_s"] = float64(len(suite)) / (bestPassMS / 1000)
	out.values["solve_ms_sgm"] = sgm(fastest)
	p50, ok := percentile(res.lat, 0.5)
	if !ok {
		return nil, fmt.Errorf("%d ops leave fewer than %d samples beyond the median", len(res.lat), minTail)
	}
	out.values["client.solve_ms_p50"] = p50
	out.values["heap_peak_mb"] = res.heap
	out.values["alloc_kb_per_op"] = res.kb

	if cfg.trace {
		// A quarter of the passes with tracing on, compared per op, keep
		// the traced run well inside its time limit.
		tops := setupOffline(suite, max(1, passes/4), cfg.seed)
		traced := timeOps(suite, tops, true)
		perOp := func(r *offlineResult) float64 { return r.wall.Seconds() / float64(len(r.lat)) }
		out.values["trace.overhead_pct"] = (perOp(traced)/perOp(res) - 1) * 100
		if err := traceOffline(out, suite); err != nil {
			return nil, err
		}
		if err := traceHOSDR2(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkOffline verifies every op's answer: it must validate, prove
// optimality, match the committed reference objective and, for milp-o,
// equal the exact engine's optimum on the same design.
func checkOffline(out *outcome, suite []instance, ops *offlineOps, res *offlineResult) {
	exactObj := map[string]float64{}
	for k, i := range ops.order {
		inst, p, sol := suite[i], ops.probs[k], res.sols[k]
		if err := res.errs[k]; err != nil {
			out.fail("%s: %v", inst.name, err)
			continue
		}
		if err := sol.Validate(p); err != nil {
			out.fail("%s: invalid solution: %v", inst.name, err)
			continue
		}
		if !sol.Proven {
			out.fail("%s: %s did not prove optimality", inst.name, inst.engine)
			continue
		}
		if res.lat[k] > ms(opBudget)/2 {
			out.fail("%s: took %.0f ms, too close to the %v budget", inst.name, res.lat[k], opBudget)
			continue
		}
		obj := sol.Objective(p)
		ref, ok := referenceObjectives[inst.name]
		if !ok || !sameObjective(obj, ref) {
			out.fail("%s: objective %.10g, reference %.10g (known %v)", inst.name, obj, ref, ok)
			continue
		}
		if inst.engine == "milp-o" {
			want, seen := exactObj[inst.name]
			if !seen {
				xs, err := floorplanner.Solve(context.Background(), inst.build(), floorplanner.Options{Engine: "exact", Workers: 1})
				if err != nil {
					out.fail("%s: exact cross-check: %v", inst.name, err)
					continue
				}
				want = xs.Objective(p)
				exactObj[inst.name] = want
			}
			if !sameObjective(obj, want) {
				out.fail("%s: milp-o objective %.10g, exact %.10g", inst.name, obj, want)
			}
		}
	}
}

// layerTimes accumulates per-layer values over a suite pass.
type layerTimes map[string]float64

// traceReps is how many times each suite instance is replayed; each
// layer value of an instance is the median of its replays.
const traceReps = 3

// traceOffline replays every suite instance through the layers the facade
// calls, timing each call from here, and reports per-op means of the
// per-instance medians.
func traceOffline(out *outcome, suite []instance) error {
	sum := layerTimes{}
	nExact, nMILP := 0, 0
	for _, inst := range suite {
		reps := map[string][]float64{}
		for r := 0; r < traceReps; r++ {
			one := layerTimes{}
			if err := replayInstance(inst, one); err != nil {
				return err
			}
			for k, v := range one {
				reps[k] = append(reps[k], v)
			}
		}
		for k, xs := range reps {
			sum[k] += median(xs)
		}
		if inst.engine == "exact" {
			nExact++
		} else {
			nMILP++
		}
	}
	n := float64(nExact + nMILP)
	for _, k := range []string{"core.enum_ms", "core.candidates", "guard.validate_ms", "guard.digest_ms", "facade.self_ms", "lp.pivots"} {
		out.values[k] = sum[k] / n
	}
	if nExact > 0 {
		out.values["exact.search_ms"] = sum["exact.search_ms"] / float64(nExact)
		out.values["exact.nodes"] = sum["exact.nodes"] / float64(nExact)
		out.values["exact.us_per_node"] = sum["exact.search_ms"] * 1000 / sum["exact.nodes"]
	}
	if nMILP > 0 {
		for _, k := range []string{"heuristic.seed_ms", "model.build_ms", "model.rows", "model.cols", "lp.presolve_ms",
			"lp.root_ms", "lp.root_iters", "milp.bnb_ms", "milp.nodes", "model.stage_ms"} {
			out.values[k] = sum[k] / float64(nMILP)
		}
		out.values["milp.ms_per_node"] = sum["milp.bnb_ms"] / sum["milp.nodes"]
	}
	return nil
}

// replayInstance times one solve of inst layer by layer into one.
func replayInstance(inst instance, one layerTimes) error {
	ctx := context.Background()
	// Whole facade call, cold, with the program's own recorder for the
	// counters only the LP core reports.
	p := inst.build()
	rec := obs.NewRecorder()
	t := time.Now()
	sol, err := floorplanner.Solve(ctx, p, floorplanner.Options{Engine: inst.engine, Workers: 1, TimeLimit: opBudget, Probe: rec})
	facade := ms(time.Since(t))
	if err != nil {
		return fmt.Errorf("trace %s: %w", inst.name, err)
	}
	one["lp.pivots"] = float64(rec.Total(obs.Pivots))

	// Validation and digest, as the facade runs them.
	t = time.Now()
	if err := guard.CheckSolution(inst.engine, p, sol); err != nil {
		return fmt.Errorf("trace %s: %w", inst.name, err)
	}
	one["guard.validate_ms"] = ms(time.Since(t))
	t = time.Now()
	_ = guard.RequestDigest(p)
	one["guard.digest_ms"] = ms(time.Since(t))

	// Cold enumeration on a fresh Device, as the engine calls it.
	p = inst.build()
	all := needsAll(p)
	t = time.Now()
	for i, r := range p.Regions {
		if inst.engine == "exact" && all[i] {
			one["core.candidates"] += float64(len(core.EnumerateAllCandidates(p.Device, r.Req)))
		} else {
			one["core.candidates"] += float64(len(core.EnumerateCandidates(p.Device, r.Req)))
		}
	}
	one["core.enum_ms"] = ms(time.Since(t))

	if inst.engine != "exact" {
		engine, err := replayMILP(ctx, inst, one)
		if err != nil {
			return err
		}
		one["facade.self_ms"] = facade - engine - one["guard.validate_ms"] - one["guard.digest_ms"]
		return nil
	}
	// Search alone: warm the candidate cache first.
	for i, r := range p.Regions {
		if all[i] {
			core.CachedAllCandidates(p.Device, r.Req)
		} else {
			core.CachedCandidates(p.Device, r.Req)
		}
	}
	t = time.Now()
	xs, err := (&exact.Engine{}).Solve(ctx, p, core.SolveOptions{Workers: 1, TimeLimit: opBudget})
	one["exact.search_ms"] = ms(time.Since(t))
	if err != nil {
		return fmt.Errorf("trace %s: exact: %w", inst.name, err)
	}
	one["exact.nodes"] = float64(xs.Nodes)
	one["facade.self_ms"] = facade - one["core.enum_ms"] - one["exact.search_ms"] - one["guard.validate_ms"] - one["guard.digest_ms"]
	return nil
}

// needsAll marks the regions the exact engine enumerates every
// candidate for, not only the width-minimal ones: those tied into a
// multi-region compatibility set by an FC request.
func needsAll(p *core.Problem) []bool {
	all := make([]bool, len(p.Regions))
	for _, fc := range p.FCAreas {
		if regs := fc.CompatRegions(); len(regs) > 1 {
			for _, ri := range regs {
				all[ri] = true
			}
		}
	}
	return all
}

// replayMILP times a milp-o or milp-ho solve layer by layer: the engine
// call as a whole, then the constructive seed, the model build, presolve,
// the root LP and both branch-and-bound passes. It returns the engine
// time in ms.
func replayMILP(ctx context.Context, inst instance, one layerTimes) (float64, error) {
	eng, err := floorplanner.NewEngine(inst.engine)
	if err != nil {
		return 0, err
	}
	opts := core.SolveOptions{Workers: 1, TimeLimit: opBudget}
	t := time.Now()
	if _, err := eng.Solve(ctx, inst.build(), opts); err != nil {
		return 0, fmt.Errorf("trace %s: engine: %w", inst.name, err)
	}
	engine := ms(time.Since(t))

	p := inst.build()
	t = time.Now()
	seed, err := (&heuristic.Constructive{}).Solve(ctx, p, core.SolveOptions{Workers: 1, TimeLimit: opBudget / 4})
	seedMS := ms(time.Since(t))
	if err != nil {
		return 0, fmt.Errorf("trace %s: seed: %w", inst.name, err)
	}
	t = time.Now()
	c, err := buildModel(p, seed, inst.engine == "milp-ho")
	build := ms(time.Since(t))
	if err != nil {
		return 0, fmt.Errorf("trace %s: build: %w", inst.name, err)
	}
	one["model.rows"] = float64(c.LP.NumConstraints())
	one["model.cols"] = float64(c.LP.NumVariables())

	t = time.Now()
	pm, _ := lp.Presolve(c.LP, true)
	one["lp.presolve_ms"] = ms(time.Since(t))
	t = time.Now()
	root := lp.Solve(pm, lp.Options{})
	one["lp.root_ms"] = ms(time.Since(t))
	one["lp.root_iters"] = float64(root.Iterations)

	ws, err := c.WarmStartFrom(seed)
	if err != nil {
		ws = nil
	}
	t = time.Now()
	res := milp.Solve(ctx, c.LP, milp.Options{Workers: 1, WarmStart: ws})
	nodes := res.Nodes
	if len(p.Nets) > 0 && res.X != nil {
		c.StageWireLength(res.X)
		res2 := milp.Solve(ctx, c.LP, milp.Options{Workers: 1, WarmStart: res.X})
		nodes += res2.Nodes
	}
	bnb := ms(time.Since(t))
	one["heuristic.seed_ms"] = seedMS
	one["model.build_ms"] = build
	one["milp.bnb_ms"] = bnb
	one["milp.nodes"] = float64(nodes)
	one["model.stage_ms"] = engine - seedMS - build - bnb
	return engine, nil
}

// buildModel compiles p's MILP; for milp-ho it is restricted to the
// sequence pair of the seed, as the HO engine builds it.
func buildModel(p *core.Problem, seed *core.Solution, restricted bool) (*model.Compiled, error) {
	if !restricted {
		return model.Build(p, model.Options{})
	}
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
		return nil, err
	}
	return model.Build(p, model.Options{SeqPair: &pair, SeqMembers: members})
}

// hoBudget is the milp-ho budget of the one-shot SDR2 breakdown: the
// engine's default budget in the ROADMAP finding it explains.
const hoBudget = 2 * time.Second

// traceHOSDR2 runs milp-ho once on SDR2 at its 2 s budget and breaks the
// call down by stage, from the span end times the program's recorder
// stamps: seed (constructive), model build, waste pass and wire pass.
// This op is budget-bound by design and never enters a timed metric.
func traceHOSDR2(out *outcome) error {
	p := sdr.SDR2()
	rec := obs.NewRecorder()
	sol, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{
		Engine: "milp-ho", Workers: 1, TimeLimit: hoBudget, Probe: rec,
	})
	if err != nil {
		return fmt.Errorf("milp-ho on sdr2: %w", err)
	}
	end := func(span string) float64 {
		e, ok := rec.EndOf(span)
		if !ok {
			return math.NaN()
		}
		return ms(e.At)
	}
	seedEnd, wasteEnd, wireEnd := end("constructive"), end("milp-ho/waste"), end("milp-ho/wire")

	// Rebuild the restricted model from the same seed to time the build.
	seed, err := (&heuristic.Constructive{}).Solve(context.Background(), p, core.SolveOptions{Workers: 1, TimeLimit: hoBudget / 4})
	if err != nil {
		return fmt.Errorf("milp-ho on sdr2: seed: %w", err)
	}
	t := time.Now()
	if _, err := buildModel(p, seed, true); err != nil {
		return fmt.Errorf("milp-ho on sdr2: build: %w", err)
	}
	build := ms(time.Since(t))

	out.values["ho_sdr2.seed_ms"] = seedEnd
	out.values["ho_sdr2.build_ms"] = build
	out.values["ho_sdr2.waste_ms"] = wasteEnd - seedEnd - build
	if !math.IsNaN(wireEnd) {
		out.values["ho_sdr2.wire_ms"] = wireEnd - wasteEnd
	}
	out.values["ho_sdr2.nodes"] = float64(rec.TotalFor("milp-ho/waste", obs.Nodes) + rec.TotalFor("milp-ho/wire", obs.Nodes))
	out.values["ho_sdr2.incumbents"] = float64(len(rec.Incumbents("milp-ho/waste")) + len(rec.Incumbents("milp-ho/wire")))
	seedObj := seed.Objective(p)
	out.values["ho_sdr2.improvement"] = (seedObj - sol.Objective(p)) / seedObj
	fmt.Printf("milp-ho on sdr2 (%v budget): seed %.1f ms, build %.1f ms, waste pass %.1f ms, wire pass %.1f ms, "+
		"%d B&B nodes, %d incumbents, seed objective %.6f, returned %.6f (proven %v)\n",
		hoBudget, seedEnd, build, out.values["ho_sdr2.waste_ms"], out.values["ho_sdr2.wire_ms"],
		int(out.values["ho_sdr2.nodes"]), int(out.values["ho_sdr2.incumbents"]), seedObj, sol.Objective(p), sol.Proven)
	return nil
}
