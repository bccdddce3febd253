// Package exact implements a combinatorial branch-and-bound floorplanner
// specialized to columnar devices. It optimizes the paper's evaluation
// objective exactly — lexicographically minimizing (missed relocation
// areas, wasted configuration frames, wire length) — and enforces
// free-compatible-area constraints by construction.
//
// Relationship to the paper: the MILP formulations O/HO (internal/model)
// are the paper's algorithms; this engine is the solver substrate that
// makes the Section VI experiments reproducible without a commercial MILP
// solver. It explores the same solution space (width-minimal rectangles on
// the columnar partitioning; free-compatible areas as compatible
// translations, cf. core.EnumerateCandidates) and its solutions validate
// against the same independent checker.
package exact

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/grid"
	"repro/internal/obs"
)

// Engine is the combinatorial exact floorplanner.
type Engine struct {
	// MaxNodes bounds the search (0 = 50M region nodes).
	MaxNodes int64
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "exact" }

// objective triple compared lexicographically: relocation misses, wasted
// frames, wire length.
type triple struct {
	miss  float64
	waste int
	wl    float64
}

func (a triple) less(b triple) bool {
	if a.miss != b.miss {
		return a.miss < b.miss
	}
	if a.waste != b.waste {
		return a.waste < b.waste
	}
	return a.wl < b.wl-1e-9
}

type fcGroup struct {
	// regions is the compatibility set of the group's requests (the
	// primary region first); all requests in a group share it.
	regions  []int
	requests []int // FCRequest indices
	required int   // constraint-mode count
	optional int   // metric-mode count
	weights  []float64
}

// region returns the group's primary region.
func (g fcGroup) region() int { return g.regions[0] }

// sharedBest is the incumbent shared between parallel workers. Workers
// keep a local copy of the best triple for cheap pruning and periodically
// refresh it; installs go through the mutex.
type sharedBest struct {
	mu    sync.Mutex
	best  triple
	sol   *core.Solution
	nodes atomic.Int64
	p     *core.Problem
	sp    obs.Span
}

// tryInstall installs a candidate solution if it improves the shared
// incumbent; it returns the current best either way. Incumbent telemetry
// is emitted under the mutex so the trajectory stays monotone even with
// racing workers.
func (sb *sharedBest) tryInstall(t triple, sol *core.Solution) triple {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if t.less(sb.best) {
		sb.best = t
		sb.sol = sol
		sb.sp.Incumbent(sol.Objective(sb.p))
	}
	return sb.best
}

// snapshot returns the current shared best.
func (sb *sharedBest) snapshot() triple {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.best
}

type searchState struct {
	p       *core.Problem
	dev     *device.Device
	cands   [][]core.Candidate // per region, sorted by waste
	order   []int              // region placement order
	minTail []int              // minTail[k]: sum of min waste of order[k:]
	groups  []fcGroup
	// netsDoneBy[k] lists the nets whose second endpoint is order[k]:
	// placing that region completes them, so the running wire length is
	// maintained incrementally instead of rescanning all nets per node.
	netsDoneBy [][]int
	// groupReadyAt[gi] is the depth k at which every region of groups[gi]
	// is placed — the first depth where its FC bound applies.
	groupReadyAt []int
	// openAt[k] lists, once regions order[0..k] are placed, every unplaced
	// region with a net to a placed one, together with those nets (see
	// openWire).
	openAt [][]openRegion
	// pairTail[k] is the separation bound, in doubled units, of the nets
	// whose two endpoints are both unplaced at depth k.
	pairTail []float64
	// minW[ri] and minH[ri] are the least width and height over cands[ri].
	minW, minH []int

	mask   *grid.Mask
	placed []grid.Rect // per region (by region index)
	// placedIdx[ri] is the index in cands[ri] of placed[ri].
	placedIdx []int
	// slots[ri][idx] caches the FC slots of candidate idx of region ri
	// (see slotsFor); rows and entries are filled on first use. Like mask
	// it is per-worker state.
	slots         [][][]grid.Rect
	best          triple
	bestSol       *core.Solution
	nodes         int64
	pruned        int64
	maxNodes      int64
	deadline      time.Time
	ctx           context.Context
	checkTick     int64
	aborted       bool
	lastPublished int64 // nodes already added to shared.nodes

	// sp is the engine's telemetry span; node/prune counts are flushed to
	// it in batches (at budget-check ticks and once at search exit) so the
	// hot DFS loop pays no per-node probe call.
	sp            obs.Span
	lastObsNodes  int64
	lastObsPruned int64

	// shared, when non-nil, is the cross-worker incumbent of a parallel
	// solve; best is then a local (possibly stale) copy and bestSol is
	// ignored in favor of shared.sol.
	shared *sharedBest
	// rootStride/rootOffset partition the first region's candidates
	// round-robin across parallel workers (stride <= 1 = all).
	rootStride, rootOffset int
}

// Solve implements core.Engine.
func (e *Engine) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (sol *core.Solution, err error) {
	opts = opts.Normalized()
	start := time.Now()
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	// The span opens before any early return so that validation failures
	// and pre-canceled contexts still produce a terminal record.
	sp := opts.Probe.Span(e.Name())
	defer func() { sp.End(core.ObsOutcome(sol, err), obs.SlackUntil(deadline)) }()

	if err = p.Validate(); err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrNoSolution, cerr)
	}

	st := &searchState{
		p:         p,
		dev:       p.Device,
		mask:      grid.NewMask(p.Device.Width(), p.Device.Height()),
		placed:    make([]grid.Rect, len(p.Regions)),
		placedIdx: make([]int, len(p.Regions)),
		slots:     make([][][]grid.Rect, len(p.Regions)),
		best:      triple{miss: math.Inf(1), waste: math.MaxInt64 / 4, wl: math.Inf(1)},
		maxNodes:  e.MaxNodes,
		ctx:       ctx,
		deadline:  deadline,
		sp:        sp,
	}
	if st.maxNodes <= 0 {
		st.maxNodes = 50_000_000
	}

	// Group FC requests by compatibility set.
	st.groups = buildGroups(p)

	// Regions tied into a multi-region compatibility set may need
	// non-width-minimal shapes to align their signatures with their
	// partners', so they get the full candidate enumeration; everyone
	// else keeps the lossless width-minimal set.
	needsAll := make([]bool, len(p.Regions))
	for _, g := range st.groups {
		if len(g.regions) > 1 {
			for _, ri := range g.regions {
				needsAll[ri] = true
			}
		}
	}

	// Candidate enumeration per region.
	st.cands = make([][]core.Candidate, len(p.Regions))
	for i, r := range p.Regions {
		if needsAll[i] {
			st.cands[i] = core.CachedAllCandidatesFor(p.Device, r.Req, sp)
		} else {
			st.cands[i] = core.CachedCandidatesFor(p.Device, r.Req, sp)
		}
		if len(st.cands[i]) == 0 {
			return nil, fmt.Errorf("%w: region %q cannot be placed anywhere", core.ErrInfeasible, r.Name)
		}
	}

	// Region order: most constrained first (fewest candidates), with
	// FC-burdened regions earlier so compatibility pruning bites sooner.
	st.order = make([]int, len(p.Regions))
	for i := range st.order {
		st.order[i] = i
	}
	fcCount := p.FCCountByRegion()
	sort.SliceStable(st.order, func(a, b int) bool {
		ra, rb := st.order[a], st.order[b]
		ka := len(st.cands[ra]) - 1000*fcCount[ra]
		kb := len(st.cands[rb]) - 1000*fcCount[rb]
		if ka != kb {
			return ka < kb
		}
		return ra < rb
	})
	st.minTail = make([]int, len(st.order)+1)
	for k := len(st.order) - 1; k >= 0; k-- {
		st.minTail[k] = st.minTail[k+1] + st.cands[st.order[k]][0].Waste
	}

	// Precompute the per-depth hot-path tables (see the field comments):
	// these replace the per-node map allocations that dominated the DFS.
	orderPos := make([]int, len(p.Regions))
	for k, ri := range st.order {
		orderPos[ri] = k
	}
	st.netsDoneBy = make([][]int, len(st.order))
	for e, net := range p.Nets {
		last := orderPos[net.A]
		if orderPos[net.B] > last {
			last = orderPos[net.B]
		}
		st.netsDoneBy[last] = append(st.netsDoneBy[last], e)
	}
	st.groupReadyAt = make([]int, len(st.groups))
	for gi, g := range st.groups {
		ready := 0
		for _, ri := range g.regions {
			if orderPos[ri]+1 > ready {
				ready = orderPos[ri] + 1
			}
		}
		st.groupReadyAt[gi] = ready
	}
	st.buildOpenNets(orderPos)

	// Candidate enumeration and ordering above can take a while on a cold
	// cache; re-check the context before committing to the search.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrNoSolution, cerr)
	}

	workers := opts.Workers // >= 1 after normalization
	var (
		bestSol *core.Solution
		nodes   int64
		aborted bool
	)
	if workers <= 1 {
		st.placeRegion(0, 0, 0)
		st.flushObs()
		bestSol, nodes, aborted = st.bestSol, st.nodes, st.aborted
	} else {
		bestSol, nodes, aborted = e.solveParallel(st, workers)
	}

	if bestSol == nil {
		if aborted {
			return nil, core.ErrNoSolution
		}
		return nil, core.ErrInfeasible
	}
	bestSol.Engine = e.Name()
	bestSol.Proven = !aborted
	bestSol.Elapsed = time.Since(start)
	bestSol.Nodes = int(nodes)
	return bestSol, nil
}

// solveParallel fans the search out over workers: the first region's
// candidate list is partitioned round-robin and each worker explores its
// subtrees with a private mask/placement state, sharing only the
// incumbent. The template state contributes its precomputed candidate
// sets, ordering and FC groups (all read-only during the search).
func (e *Engine) solveParallel(tmpl *searchState, workers int) (*core.Solution, int64, bool) {
	shared := &sharedBest{best: tmpl.best, p: tmpl.p, sp: tmpl.sp}
	states := make([]*searchState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ws := &searchState{
			p:            tmpl.p,
			dev:          tmpl.dev,
			cands:        tmpl.cands,
			order:        tmpl.order,
			minTail:      tmpl.minTail,
			groups:       tmpl.groups,
			netsDoneBy:   tmpl.netsDoneBy,
			groupReadyAt: tmpl.groupReadyAt,
			openAt:       tmpl.openAt,
			pairTail:     tmpl.pairTail,
			minW:         tmpl.minW,
			minH:         tmpl.minH,
			mask:         grid.NewMask(tmpl.dev.Width(), tmpl.dev.Height()),
			placed:       make([]grid.Rect, len(tmpl.p.Regions)),
			placedIdx:    make([]int, len(tmpl.p.Regions)),
			slots:        make([][][]grid.Rect, len(tmpl.p.Regions)),
			best:         tmpl.best,
			maxNodes:     tmpl.maxNodes,
			deadline:     tmpl.deadline,
			ctx:          tmpl.ctx,
			sp:           tmpl.sp,
			shared:       shared,
			rootStride:   workers,
			rootOffset:   w,
		}
		states[w] = ws
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws.placeRegion(0, 0, 0)
			ws.flushObs()
		}()
	}
	wg.Wait()
	nodes := shared.nodes.Load()
	aborted := false
	for _, ws := range states {
		nodes += ws.nodes - ws.lastPublished
		aborted = aborted || ws.aborted
	}
	shared.mu.Lock()
	sol := shared.sol
	shared.mu.Unlock()
	return sol, nodes, aborted
}

func buildGroups(p *core.Problem) []fcGroup {
	// Requests sharing the same compatibility set are interchangeable
	// and merge into one group (enables symmetry breaking in the
	// packer); the key is the canonical region set.
	bySet := map[string]*fcGroup{}
	var order []string
	for i, fc := range p.FCAreas {
		regions := fc.CompatRegions()
		key := fmt.Sprint(regions)
		g, ok := bySet[key]
		if !ok {
			g = &fcGroup{regions: regions}
			bySet[key] = g
			order = append(order, key)
		}
		g.requests = append(g.requests, i)
		if fc.Mode == core.RelocConstraint {
			g.required++
		} else {
			g.optional++
			g.weights = append(g.weights, fc.EffectiveWeight())
		}
	}
	sort.Strings(order)
	out := make([]fcGroup, 0, len(order))
	for _, key := range order {
		g := *bySet[key]
		sort.Float64s(g.weights) // cheapest-miss order, used by fcBound
		out = append(out, g)
	}
	return out
}

// openNet is a net from an unplaced region to the placed region v.
type openNet struct {
	v int
	w float64
}

// openRegion is an unplaced region u and its nets to placed regions.
type openRegion struct {
	u    int
	nets []openNet
}

// buildOpenNets fills the per-depth tables of openWire: openAt, pairTail,
// minW and minH. orderPos[ri] is the depth at which region ri is placed.
func (st *searchState) buildOpenNets(orderPos []int) {
	n := len(st.order)
	st.minW = make([]int, n)
	st.minH = make([]int, n)
	for ri, cands := range st.cands {
		st.minW[ri], st.minH[ri] = cands[0].Rect.W, cands[0].Rect.H
		for _, c := range cands[1:] {
			st.minW[ri] = min(st.minW[ri], c.Rect.W)
			st.minH[ri] = min(st.minH[ri], c.Rect.H)
		}
	}
	// nbrs[u] holds u's nets ordered by the depth of the other endpoint,
	// so the nets to placed regions at any depth are a prefix of it. The
	// lists share one backing array, as do the openAt rows below.
	deg := make([]int, n)
	for _, net := range st.p.Nets {
		deg[net.A]++
		deg[net.B]++
	}
	flat := make([]openNet, 2*len(st.p.Nets))
	nbrs := make([][]openNet, n)
	for u, off := 0, 0; u < n; u++ {
		nbrs[u] = flat[off : off : off+deg[u]]
		off += deg[u]
	}
	st.pairTail = make([]float64, n)
	for _, net := range st.p.Nets {
		nbrs[net.A] = append(nbrs[net.A], openNet{v: net.B, w: net.Weight})
		nbrs[net.B] = append(nbrs[net.B], openNet{v: net.A, w: net.Weight})
		sep := net.Weight * float64(min(st.minW[net.A]+st.minW[net.B], st.minH[net.A]+st.minH[net.B]))
		for k := 0; k < min(orderPos[net.A], orderPos[net.B]); k++ {
			st.pairTail[k] += sep
		}
	}
	for _, nets := range nbrs {
		slices.SortStableFunc(nets, func(a, b openNet) int { return orderPos[a.v] - orderPos[b.v] })
	}
	placedNbrs := func(u, k int) int {
		m := 0
		for m < len(nbrs[u]) && orderPos[nbrs[u][m].v] <= k {
			m++
		}
		return m
	}
	rows := 0
	for k := range n {
		for _, u := range st.order[k+1:] {
			if placedNbrs(u, k) > 0 {
				rows++
			}
		}
	}
	all := make([]openRegion, 0, rows)
	st.openAt = make([][]openRegion, n)
	for k := range n {
		start := len(all)
		for _, u := range st.order[k+1:] {
			if m := placedNbrs(u, k); m > 0 {
				all = append(all, openRegion{u: u, nets: nbrs[u][:m]})
			}
		}
		st.openAt[k] = all[start:]
	}
}

// openWire lower-bounds the wire length of the nets that are not complete
// once regions order[0..k] are placed. Every such net falls in exactly one
// of two kinds, and each kind gets its own bound:
//
//   - Nets with both endpoints unplaced: two non-overlapping rectangles
//     are apart by at least their half widths summed along x, or their
//     half heights along y, so a net costs at least
//     w·min(minW_a+minW_b, minH_a+minH_b)/2 (pairTail).
//   - Nets from an unplaced region u to placed regions v: the same
//     separation argument, with v's actual size, bounds each net by
//     w·min(W_v+minW_u, H_v+minH_u)/2. Together they also cost at least
//     the weighted-median cost of the v centres: L1 distance separates by
//     axis, and no position of u's centre does better than the median on
//     each. Both bound the same nets, so the larger one is charged.
//
// Leaves cost at least the bound, so a subtree it prunes holds no layout
// that beats the incumbent, and the search still returns the layout it
// would return without the bound. Distances are in doubled coordinates,
// like CenterX2; the result is in wire-length units.
func (st *searchState) openWire(k int) float64 {
	total := st.pairTail[k]
	for _, o := range st.openAt[k] {
		sep := 0.0
		for _, n := range o.nets {
			r := st.placed[n.v]
			sep += n.w * float64(min(r.W+st.minW[o.u], r.H+st.minH[o.u]))
		}
		total += max(sep, st.medianCost(o.nets))
	}
	return total / 2
}

// medianCost returns min over points c of Σ w·|c − centre(v)|₁ for the
// placed regions v of nets, in doubled coordinates. Per axis the cost is
// convex and piecewise linear with breakpoints at the centres, so its
// minimum lies at one of them; the lists are short, so every breakpoint
// is tried.
func (st *searchState) medianCost(nets []openNet) float64 {
	if len(nets) < 2 {
		return 0
	}
	bestX, bestY := math.Inf(1), math.Inf(1)
	for _, ni := range nets {
		ri := st.placed[ni.v]
		x, y := 0.0, 0.0
		for _, nj := range nets {
			rj := st.placed[nj.v]
			x += nj.w * float64(absInt(ri.CenterX2()-rj.CenterX2()))
			y += nj.w * float64(absInt(ri.CenterY2()-rj.CenterY2()))
		}
		bestX, bestY = min(bestX, x), min(bestY, y)
	}
	return bestX + bestY
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// flushObs reports the node/prune counts accumulated since the last
// flush to the telemetry span.
func (st *searchState) flushObs() {
	if d := st.nodes - st.lastObsNodes; d > 0 {
		st.sp.Add(obs.Nodes, d)
		st.lastObsNodes = st.nodes
	}
	if d := st.pruned - st.lastObsPruned; d > 0 {
		st.sp.Add(obs.Pruned, d)
		st.lastObsPruned = st.pruned
	}
}

func (st *searchState) outOfBudget() bool {
	if st.aborted {
		return true
	}
	st.checkTick++
	if st.checkTick&1023 == 0 {
		st.flushObs()
		totalNodes := st.nodes
		if st.shared != nil {
			totalNodes = st.shared.nodes.Add(st.nodes - st.lastPublished)
			st.lastPublished = st.nodes
			// Refresh the local incumbent copy for sharper pruning.
			if b := st.shared.snapshot(); b.less(st.best) {
				st.best = b
			}
		}
		if totalNodes > st.maxNodes {
			st.aborted = true
			return true
		}
		if !st.deadline.IsZero() && time.Now().After(st.deadline) {
			st.aborted = true
			return true
		}
		if st.ctx != nil {
			select {
			case <-st.ctx.Done():
				st.aborted = true
				return true
			default:
			}
		}
	}
	return false
}

// placeRegion is the region-level DFS. k indexes st.order; wasteSoFar
// accumulates the waste of regions order[0:k]; wlSoFar is the exact wire
// length of the nets completed by those placements, maintained
// incrementally via netsDoneBy. A placed candidate's subtree is bounded
// lexicographically: the FC misses already forced (fcBound), the waste so
// far plus the least waste of the regions still to place (minTail), and
// the completed nets' wire length plus a bound on every unfinished net
// (openWire). Without the last term, every layout tied on the first two
// tiers would be enumerated.
func (st *searchState) placeRegion(k, wasteSoFar int, wlSoFar float64) {
	if st.outOfBudget() {
		return
	}
	if k == len(st.order) {
		st.finishRegions(wasteSoFar, wlSoFar)
		return
	}
	ri := st.order[k]
	for idx, cand := range st.cands[ri] {
		if k == 0 && st.rootStride > 1 && idx%st.rootStride != st.rootOffset {
			continue // another worker owns this subtree
		}
		// Waste bound: candidates are waste-sorted, so once the bound
		// trips no later candidate can help.
		lb := triple{miss: 0, waste: wasteSoFar + cand.Waste + st.minTail[k+1], wl: wlSoFar}
		if !lb.less(st.best) {
			st.pruned += int64(len(st.cands[ri]) - idx)
			break
		}
		if st.mask.OverlapsRect(cand.Rect) {
			continue
		}
		st.nodes++
		st.mask.SetRect(cand.Rect)
		st.placed[ri] = cand.Rect
		st.placedIdx[ri] = idx

		// Refine the bound with the wire length of the nets this placement
		// completes and the relocation misses already forced by the partial
		// placement.
		wl := wlSoFar
		for _, e := range st.netsDoneBy[k] {
			n := &st.p.Nets[e]
			a, b := st.placed[n.A], st.placed[n.B]
			dx := absInt(a.CenterX2() - b.CenterX2())
			dy := absInt(a.CenterY2() - b.CenterY2())
			wl += n.Weight * float64(dx+dy) / 2
		}
		lb.wl = wl
		feasible, missLB := st.fcBound(k + 1)
		lb.miss = missLB
		// The open nets' bound can only decide a tie on the first two
		// tiers, so it is not computed otherwise.
		if feasible && lb.miss == st.best.miss && lb.waste == st.best.waste {
			lb.wl += st.openWire(k)
		}
		if feasible && lb.less(st.best) {
			st.placeRegion(k+1, wasteSoFar+cand.Waste, wl)
		} else {
			st.pruned++
		}

		st.mask.ClearRect(cand.Rect)
		st.placed[ri] = grid.Rect{}
		if st.aborted {
			return
		}
	}
}

// fcBound inspects every already-placed region with FC requests and
// returns whether the constraint-mode requests can still be satisfied,
// plus a lower bound on the metric-mode miss cost. The slot count ignores
// unplaced regions and lets slots overlap each other, so it upper-bounds
// the truly packable count — both results are admissible for pruning.
func (st *searchState) fcBound(k int) (feasible bool, missLB float64) {
	for gi, g := range st.groups {
		if st.groupReadyAt[gi] > k {
			continue // some member region not yet placed
		}
		want := g.required + g.optional
		slots := st.countFreeSlotsForGroup(g, want)
		if slots < g.required {
			return false, 0
		}
		if shortfall := want - slots; shortfall > 0 {
			// The cheapest optional requests are the ones optimally
			// missed; weights are the group's metric requests, sorted
			// ascending by buildGroups.
			for i := 0; i < shortfall && i < len(g.weights); i++ {
				missLB += g.weights[i]
			}
		}
	}
	return true, missLB
}

// countFreeSlotsForGroup counts the group's compatible placements that are
// free in the current mask, stopping early at limit.
func (st *searchState) countFreeSlotsForGroup(g fcGroup, limit int) int {
	n := 0
	for _, slot := range st.groupSlots(g) {
		if !st.mask.OverlapsRect(slot) {
			n++
			if n >= limit {
				return n
			}
		}
	}
	return n
}

// groupSlots enumerates the legal placements compatible with every region
// of the group. Single-region groups use the per-candidate cache;
// multi-region sets additionally filter by the extra regions' placements.
func (st *searchState) groupSlots(g fcGroup) []grid.Rect {
	base := st.slotsFor(g.region())
	if len(g.regions) == 1 {
		return base
	}
	out := make([]grid.Rect, 0, len(base))
	for _, slot := range base {
		ok := true
		for _, ri := range g.regions[1:] {
			if slot == st.placed[ri] || !st.dev.Compatible(st.placed[ri], slot) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, slot)
		}
	}
	return out
}

// slotsFor returns the legal compatible placements of region ri's current
// rectangle: the device's shared, read-only list, which includes that
// rectangle itself. The region is set in the mask wherever slots are
// counted or packed, so its own area never counts as a free slot. Lists
// are cached per candidate, since the same candidates recur across
// millions of search nodes. Candidates are legal placements, so a filled
// entry (which holds at least the candidate) is never nil, and nil marks
// one not yet looked up.
func (st *searchState) slotsFor(ri int) []grid.Rect {
	row := st.slots[ri]
	if row == nil {
		row = make([][]grid.Rect, len(st.cands[ri]))
		st.slots[ri] = row
	}
	idx := st.placedIdx[ri]
	if cached := row[idx]; cached != nil {
		return cached
	}
	row[idx] = st.dev.CompatiblePlacements(st.placed[ri])
	return row[idx]
}

// finishRegions runs after all regions are placed: solve the FC packing
// subproblem and record the solution if it improves the incumbent. wl is
// the incrementally-maintained total wire length (every net is complete
// at full depth), kept instead of recomputing so bound comparisons along
// the DFS path and here use bit-identical values.
func (st *searchState) finishRegions(waste int, wl float64) {
	lb := triple{miss: 0, waste: waste, wl: wl}
	if !lb.less(st.best) {
		return
	}
	fcRects, miss, ok := st.solveFC(triple{miss: st.best.miss, waste: waste, wl: wl})
	if !ok {
		return
	}
	got := triple{miss: miss, waste: waste, wl: wl}
	if !got.less(st.best) {
		return
	}
	sol := &core.Solution{
		Regions: append([]grid.Rect(nil), st.placed...),
		FC:      make([]core.FCPlacement, len(st.p.FCAreas)),
	}
	for i := range sol.FC {
		sol.FC[i] = core.FCPlacement{Request: i}
	}
	for req, r := range fcRects {
		sol.FC[req].Placed = true
		sol.FC[req].Rect = r
	}
	if st.shared != nil {
		st.best = st.shared.tryInstall(got, sol)
		return
	}
	st.best = got
	st.bestSol = sol
	st.sp.Incumbent(sol.Objective(st.p))
}

// solveFC packs the free-compatible areas given the fixed region
// placements. It returns the placements by request index, the metric-mode
// miss cost, and whether all constraint-mode areas were placed.
func (st *searchState) solveFC(budget triple) (map[int]grid.Rect, float64, bool) {
	if len(st.groups) == 0 {
		return nil, 0, true
	}
	packer := &fcPacker{
		st:     st,
		budget: budget,
		best:   math.Inf(1),
	}
	// Materialize per-group slot lists against the final mask.
	for _, g := range st.groups {
		slots := st.groupSlots(g)
		free := make([]grid.Rect, 0, len(slots))
		for _, s := range slots {
			if !st.mask.OverlapsRect(s) {
				free = append(free, s)
			}
		}
		packer.groups = append(packer.groups, fcWork{group: g, slots: free})
	}
	// Most constrained groups first: fewest slots per requested area.
	sort.SliceStable(packer.groups, func(a, b int) bool {
		ga, gb := packer.groups[a], packer.groups[b]
		la := len(ga.slots) - len(ga.group.requests)
		lb := len(gb.slots) - len(gb.group.requests)
		if la != lb {
			return la < lb
		}
		return ga.group.region() < gb.group.region()
	})
	packer.used = grid.NewMask(st.dev.Width(), st.dev.Height())
	packer.assign = map[int]grid.Rect{}
	packer.solve(0)
	if packer.bestAssign == nil {
		return nil, 0, false
	}
	return packer.bestAssign, packer.best, true
}

type fcWork struct {
	group fcGroup
	slots []grid.Rect
}

// fcPacker places free-compatible areas group by group with backtracking.
// Within a group the areas are interchangeable, so slots are assigned in
// index order (symmetry breaking).
type fcPacker struct {
	st     *searchState
	groups []fcWork
	used   *grid.Mask
	assign map[int]grid.Rect

	budget     triple
	best       float64 // best total miss found
	bestAssign map[int]grid.Rect
	nodes      int
}

func (pk *fcPacker) solve(gi int) {
	pk.nodes++
	if pk.nodes > 2_000_000 {
		return // safety valve; incumbent-so-far stands
	}
	if gi == len(pk.groups) {
		miss := pk.currentMiss()
		if miss < pk.best {
			pk.best = miss
			pk.bestAssign = make(map[int]grid.Rect, len(pk.assign))
			for k, v := range pk.assign {
				pk.bestAssign[k] = v
			}
		}
		return
	}
	g := pk.groups[gi]
	need := len(g.group.requests)
	pk.placeInGroup(gi, 0, 0, need)
}

// placeInGroup assigns the j-th request of group gi using slots starting
// at index from. placedCount tracks how many of the group's areas were
// placed so far.
func (pk *fcPacker) placeInGroup(gi, j, from, remaining int) {
	g := pk.groups[gi]
	if j == len(g.group.requests) {
		pk.solve(gi + 1)
		return
	}
	req := g.group.requests[j]
	mode := pk.st.p.FCAreas[req].Mode

	// Option 1: place it using some slot >= from.
	for si := from; si < len(g.slots); si++ {
		slot := g.slots[si]
		if pk.used.OverlapsRect(slot) {
			continue
		}
		pk.used.SetRect(slot)
		pk.assign[req] = slot
		pk.placeInGroup(gi, j+1, si+1, remaining-1)
		delete(pk.assign, req)
		pk.used.ClearRect(slot)
		if pk.best == 0 {
			return // cannot do better than zero miss
		}
	}

	// Option 2: skip it (metric mode only).
	if mode == core.RelocMetric {
		pk.placeInGroup(gi, j+1, from, remaining-1)
	}
}

func (pk *fcPacker) currentMiss() float64 {
	miss := 0.0
	for _, g := range pk.groups {
		for _, req := range g.group.requests {
			if _, ok := pk.assign[req]; !ok {
				miss += pk.st.p.FCAreas[req].EffectiveWeight()
			}
		}
	}
	return miss
}
