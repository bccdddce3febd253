// Package milp implements a branch-and-bound mixed-integer linear
// programming solver over the LP relaxation engine of internal/lp.
//
// It plays the role of the commercial MILP solver used by the paper: the
// floorplanning formulations of internal/model are handed to Solve, which
// explores a best-bound branch-and-bound tree (optionally with several
// parallel workers), accepts warm-start incumbents, and honors time limits
// — reporting the incumbent, the best bound, and the MIP gap exactly as
// the paper does for runs that hit their budget (e.g. SDR3, Section VI).
package milp

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
)

// Status reports the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// StatusOptimal means the incumbent was proven optimal.
	StatusOptimal Status = iota
	// StatusFeasible means a feasible incumbent exists but optimality
	// was not proven within the budget.
	StatusFeasible
	// StatusInfeasible means the problem has no integer-feasible point.
	StatusInfeasible
	// StatusUnbounded means the relaxation is unbounded below.
	StatusUnbounded
	// StatusNoSolution means the budget expired before any feasible
	// point was found (the problem may still be feasible).
	StatusNoSolution
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusNoSolution:
		return "no-solution"
	}
	return "unknown"
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status    Status
	Objective float64   // incumbent objective (minimization)
	X         []float64 // incumbent values, integral within tolerance
	Bound     float64   // best proven lower bound
	Nodes     int       // branch-and-bound nodes processed
	Elapsed   time.Duration
}

// Gap returns the relative MIP gap of the result, zero when optimal and
// +Inf when no incumbent exists.
func (r Result) Gap() float64 {
	if r.Status == StatusOptimal {
		return 0
	}
	if r.X == nil {
		return math.Inf(1)
	}
	denom := math.Max(1, math.Abs(r.Objective))
	return (r.Objective - r.Bound) / denom
}

// Options tunes the branch-and-bound search. The zero value gives a
// single-threaded exact solve with a generous node budget.
type Options struct {
	// TimeLimit bounds the wall-clock solve time (0 = none).
	TimeLimit time.Duration
	// MaxNodes bounds the number of processed nodes (0 = 1<<20).
	MaxNodes int
	// Workers is the number of parallel node processors (0 or 1 =
	// sequential).
	Workers int
	// IntTol is the integrality tolerance (0 = 1e-6).
	IntTol float64
	// WarmStart, when non-nil, is checked for feasibility and installed
	// as the initial incumbent (values are rounded to integrality
	// first).
	WarmStart []float64
	// LP tunes the relaxation solves.
	LP lp.Options
	// OnIncumbent, when non-nil, is invoked (serialized) whenever a new
	// best solution is accepted.
	OnIncumbent func(obj float64, x []float64)
	// Obs, when non-nil, receives the solve's telemetry: node and prune
	// counts plus the incumbent trajectory on the MILP objective scale.
	// It is also handed to the LP relaxation solves (unless LP.Obs is
	// already set), which report pivots on it.
	Obs obs.Span
}

// node is one open subproblem. It stores only the bound its branching
// tightened; the full override vectors are rebuilt by the worker that
// solves it (worker.bounds) from the chain of parents.
type node struct {
	parent *node   // nil at the root
	br     *branch // the branching that made this node; nil at the root
	v      lp.VarID
	val    float64 // the new bound on v: lower when up, upper otherwise
	up     bool
	bound  float64 // parent relaxation objective (lower bound)
	depth  int
}

// branch is one branching of a node: its two children, allocated
// together, and the parent relaxation's optimal basis they share. Each
// child's LP is warm started from the basis with the dual simplex. The
// basis is nil (cold solve) when the open-node queue had grown past
// warmBasisQueueCap, or when the snapshot held an artificial.
type branch struct {
	kids  [2]node
	basis *lp.Basis
	// refs counts the children that have not yet let go of basis. The
	// child that drops it to zero clears basis and recycles it, so the
	// parent chains of deeper nodes never keep a basis alive.
	refs atomic.Int32
}

// warmBasisQueueCap bounds how many queued nodes may share a basis
// snapshot: beyond this the snapshots are recycled at once (nodes
// re-solve cold) so a wide search cannot hold O(queue * m) ints alive.
// A queued node retains its chain of ancestors, small structs without
// bases once consumed, plus at most one shared basis: its own branch's.
const warmBasisQueueCap = 1024

// nodeQueue is a best-bound min-heap with depth as tie-break (deeper first,
// which gives the search a diving flavor among equal bounds).
type nodeQueue []*node

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return q[i].depth > q[j].depth
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Solve minimizes the model subject to the integrality of its integer
// variables. The context cancels the search early (the best incumbent so
// far is returned with StatusFeasible/StatusNoSolution).
func Solve(ctx context.Context, m *lp.Model, opts Options) Result {
	start := time.Now()
	intTol := opts.IntTol
	if intTol <= 0 {
		intTol = 1e-6
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 1 << 20
	}
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	intVars := m.IntegerVariables()

	sp := obs.OrNop(opts.Obs)

	// Root presolve: tighten bounds (integer-aware) and drop redundant
	// rows once, so every node's relaxation solves the reduced model.
	// The variable set is unchanged, so branch bound overrides and the
	// returned X keep their indices, and every integer-feasible point of
	// the original model stays feasible in the presolved one.
	pm, infeasible := lp.Presolve(m, true)
	if infeasible {
		return Result{
			Status:    StatusInfeasible,
			Objective: math.Inf(1),
			Bound:     math.Inf(-1),
			Elapsed:   time.Since(start),
		}
	}
	m = pm
	lpOpts := opts.LP
	// Bound each node's relaxation solve by the overall deadline: the
	// search checks its budget between nodes, so a single runaway
	// simplex must not be able to blow past it.
	if lpOpts.Deadline.IsZero() || (!deadline.IsZero() && deadline.Before(lpOpts.Deadline)) {
		lpOpts.Deadline = deadline
	}
	if lpOpts.Obs == nil {
		lpOpts.Obs = opts.Obs
	}

	st := &search{
		model:     m,
		compiled:  lp.Compile(m),
		intVars:   intVars,
		intTol:    intTol,
		lpOpts:    lpOpts,
		incumbent: math.Inf(1),
		deadline:  deadline,
		ctx:       ctx,
		maxNodes:  maxNodes,
		onIncumb:  opts.OnIncumbent,
		sp:        sp,
	}

	if opts.WarmStart != nil {
		st.tryWarmStart(opts.WarmStart)
	}

	heap.Push(&st.queue, &node{bound: math.Inf(-1)})

	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers == 1 {
		st.runSequential()
	} else {
		st.runParallel(workers)
	}

	res := Result{
		Nodes:   st.nodes,
		Elapsed: time.Since(start),
	}
	res.Bound = st.finalBound()
	switch {
	case st.rootInfeasible && st.best == nil:
		res.Status = StatusInfeasible
	case st.rootUnbounded:
		res.Status = StatusUnbounded
	case st.best == nil && st.exhausted && !st.lpCut:
		res.Status = StatusInfeasible
	case st.best == nil:
		res.Status = StatusNoSolution
		res.Objective = math.Inf(1)
	case !st.lpCut && (st.exhausted || res.Bound >= st.incumbent-1e-9):
		res.Status = StatusOptimal
		res.Objective = st.incumbent
		res.X = st.best
		res.Bound = st.incumbent
	default:
		res.Status = StatusFeasible
		res.Objective = st.incumbent
		res.X = st.best
	}
	return res
}

// search is the shared state of one branch-and-bound run.
type search struct {
	model *lp.Model
	// compiled is the model's matrix, shared read-only by the workers'
	// LP workspaces.
	compiled *lp.Compiled
	intVars  []lp.VarID
	intTol   float64
	lpOpts   lp.Options

	mu        sync.Mutex
	queue     nodeQueue
	incumbent float64
	best      []float64
	nodes     int
	active    int // nodes being processed by workers

	deadline time.Time
	ctx      context.Context
	maxNodes int
	onIncumb func(float64, []float64)
	// sp receives nodes/pruned counts and the incumbent trajectory on
	// the MILP objective scale (pivots come from the LP layer directly).
	sp obs.Span

	exhausted      bool
	rootInfeasible bool
	rootUnbounded  bool
	stopped        bool
	// lpCut records that at least one node was dropped because its LP
	// relaxation hit the iteration/deadline budget rather than being
	// solved. An "exhausted" queue then proves nothing: neither
	// optimality nor infeasibility may be claimed.
	lpCut bool
}

// worker is the private state of one node processor: its LP workspace,
// the rounding heuristic's buffer and the bound overrides of the node
// being solved.
type worker struct {
	ws      *lp.Workspace
	rounded []float64
	// lo and hi are NaN except for the variables listed in touched.
	lo, hi  []float64
	touched []lp.VarID
}

func (st *search) newWorker() *worker {
	n := st.model.NumVariables()
	return &worker{
		ws:      st.compiled.NewWorkspace(),
		rounded: make([]float64, n),
		lo:      nanSlice(n),
		hi:      nanSlice(n),
	}
}

func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// bounds rebuilds nd's bound overrides in w's buffers: it resets the
// entries the previous node set, then walks nd's chain up to the root,
// where the deepest bound on a variable wins (a child's bound replaces
// its ancestors').
func (w *worker) bounds(nd *node) (lo, hi []float64) {
	nan := math.NaN()
	for _, v := range w.touched {
		w.lo[v], w.hi[v] = nan, nan
	}
	w.touched = w.touched[:0]
	for n := nd; n.parent != nil; n = n.parent {
		b := w.hi
		if n.up {
			b = w.lo
		}
		if math.IsNaN(b[n.v]) {
			b[n.v] = n.val
			w.touched = append(w.touched, n.v)
		}
	}
	return w.lo, w.hi
}

// release drops nd's hold on its branch's basis once nd is solved or
// pruned. The last child to let go clears the branch's reference and
// hands the basis to w's workspace for its next snapshot.
func (w *worker) release(nd *node) {
	br := nd.br
	if br == nil || br.basis == nil {
		return
	}
	if br.refs.Add(-1) == 0 {
		b := br.basis
		br.basis = nil
		recycleBasis(w.ws, b)
	}
}

// recycleBasis returns a basis no node reads any more to ws. It is a
// variable so tests can poison recycled bases.
var recycleBasis = (*lp.Workspace).RecycleBasis

func (st *search) tryWarmStart(x []float64) {
	rounded := append([]float64(nil), x...)
	for _, v := range st.intVars {
		rounded[v] = math.Round(rounded[v])
	}
	if st.model.CheckFeasible(rounded, 1e-6) != nil {
		return
	}
	obj := st.model.Objective(rounded)
	st.accept(obj, rounded)
}

// accept installs a new incumbent if it improves the current one.
func (st *search) accept(obj float64, x []float64) {
	st.mu.Lock()
	improved := obj < st.incumbent-1e-9
	if improved {
		st.incumbent = obj
		st.best = append([]float64(nil), x...)
		// Emitted under st.mu so the trajectory stays monotone even with
		// racing workers.
		st.sp.Incumbent(obj)
	}
	cb := st.onIncumb
	st.mu.Unlock()
	if improved && cb != nil {
		// x may be a worker's reused buffer; the callback gets its own.
		cb(obj, append([]float64(nil), x...))
	}
}

func (st *search) outOfBudget() bool {
	if st.ctx != nil {
		select {
		case <-st.ctx.Done():
			return true
		default:
		}
	}
	if !st.deadline.IsZero() && time.Now().After(st.deadline) {
		return true
	}
	return false
}

func (st *search) runSequential() {
	w := st.newWorker()
	defer w.ws.Release()
	for {
		st.mu.Lock()
		if len(st.queue) == 0 {
			st.exhausted = true
			st.mu.Unlock()
			return
		}
		if st.nodes >= st.maxNodes || st.stopped {
			st.mu.Unlock()
			return
		}
		nd := heap.Pop(&st.queue).(*node)
		// Bound-based prune before paying for the LP.
		if nd.bound >= st.incumbent-1e-9 {
			st.mu.Unlock()
			w.release(nd)
			st.sp.Add(obs.Pruned, 1)
			continue
		}
		st.nodes++
		st.mu.Unlock()
		st.sp.Add(obs.Nodes, 1)
		if st.outOfBudget() {
			st.mu.Lock()
			st.stopped = true
			heap.Push(&st.queue, nd) // keep for bound accounting
			st.mu.Unlock()
			return
		}
		st.processNode(w, nd)
	}
}

func (st *search) runParallel(workers int) {
	var wg sync.WaitGroup
	cond := sync.NewCond(&st.mu)
	done := false

	work := func() {
		defer wg.Done()
		w := st.newWorker()
		defer w.ws.Release()
		for {
			st.mu.Lock()
			for len(st.queue) == 0 && st.active > 0 && !done {
				cond.Wait()
			}
			if done || (len(st.queue) == 0 && st.active == 0) {
				if len(st.queue) == 0 && st.active == 0 && !done && !st.stopped {
					st.exhausted = true
				}
				done = true
				cond.Broadcast()
				st.mu.Unlock()
				return
			}
			if st.nodes >= st.maxNodes || st.stopped {
				done = true
				cond.Broadcast()
				st.mu.Unlock()
				return
			}
			nd := heap.Pop(&st.queue).(*node)
			if nd.bound >= st.incumbent-1e-9 {
				st.mu.Unlock()
				w.release(nd)
				st.sp.Add(obs.Pruned, 1)
				continue
			}
			st.nodes++
			st.active++
			st.mu.Unlock()
			st.sp.Add(obs.Nodes, 1)

			if st.outOfBudget() {
				st.mu.Lock()
				st.stopped = true
				heap.Push(&st.queue, nd)
				st.active--
				done = true
				cond.Broadcast()
				st.mu.Unlock()
				return
			}
			st.processNode(w, nd)

			st.mu.Lock()
			st.active--
			cond.Broadcast()
			st.mu.Unlock()
		}
	}

	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go work()
	}
	wg.Wait()
	st.mu.Lock()
	if len(st.queue) == 0 && st.active == 0 && !st.stopped && st.nodes < st.maxNodes {
		st.exhausted = true
	}
	st.mu.Unlock()
}

// processNode solves the node relaxation on w's workspace, prunes or
// branches. sol.X is w's workspace buffer, valid until w's next solve;
// incumbents are copied out of it.
func (st *search) processNode(w *worker, nd *node) {
	lpOpts := st.lpOpts
	lpOpts.ReturnBasis = true
	if nd.br != nil {
		lpOpts.WarmBasis = nd.br.basis
	}
	lo, hi := w.bounds(nd)
	sol := w.ws.SolveWithBounds(st.model, lpOpts, lo, hi)
	w.release(nd)
	if !st.expand(w, nd, sol) {
		recycleBasis(w.ws, sol.Basis)
	}
}

// expand prunes nd on its relaxation sol, takes an integral sol as an
// incumbent, or pushes nd's two children. It reports whether the
// children took sol.Basis.
func (st *search) expand(w *worker, nd *node, sol lp.Solution) bool {
	switch sol.Status {
	case lp.StatusInfeasible:
		if nd.depth == 0 {
			st.mu.Lock()
			st.rootInfeasible = true
			st.mu.Unlock()
		}
		return false
	case lp.StatusUnbounded:
		if nd.depth == 0 {
			st.mu.Lock()
			st.rootUnbounded = true
			st.stopped = true
			st.mu.Unlock()
		}
		return false
	case lp.StatusOptimal:
	default:
		// Iteration limit, deadline or numerical trouble: without a
		// solved relaxation there is no point to branch on, so the node
		// is dropped and the search can no longer prove optimality or
		// infeasibility.
		if sol.X == nil {
			st.mu.Lock()
			st.lpCut = true
			st.mu.Unlock()
			return false
		}
	}

	st.mu.Lock()
	cutoff := st.incumbent
	st.mu.Unlock()
	if sol.Objective >= cutoff-1e-9 {
		st.sp.Add(obs.Pruned, 1)
		return false // bound prune
	}

	branchVar := st.mostFractional(sol.X)
	if branchVar < 0 {
		// Integral: new incumbent.
		x := append([]float64(nil), sol.X...)
		for _, v := range st.intVars {
			x[v] = math.Round(x[v])
		}
		st.accept(st.model.Objective(x), x)
		return false
	}

	// Rounding heuristic: nearest-integer (then floor) rounding of the
	// relaxation occasionally lands on a feasible point, giving an early
	// incumbent that sharpens pruning for free.
	if nd.depth <= 8 {
		rounded := w.rounded
		for _, round := range []func(float64) float64{math.Round, math.Floor} {
			copy(rounded, sol.X)
			for _, v := range st.intVars {
				lo, hi := st.model.Bounds(v)
				r := round(rounded[v])
				if r < lo {
					r = lo
				}
				if r > hi {
					r = hi
				}
				rounded[v] = r
			}
			if st.model.CheckFeasible(rounded, 1e-6) == nil {
				st.accept(st.model.Objective(rounded), rounded)
				break
			}
		}
	}

	v := sol.X[branchVar]
	floor := math.Floor(v + st.intTol)
	br := &branch{}
	// Down child: x <= floor. Up child: x >= floor+1.
	br.kids[0] = node{parent: nd, br: br, v: branchVar, val: floor, bound: sol.Objective, depth: nd.depth + 1}
	br.kids[1] = node{parent: nd, br: br, v: branchVar, val: floor + 1, up: true, bound: sol.Objective, depth: nd.depth + 1}

	st.mu.Lock()
	shared := sol.Basis != nil && len(st.queue) <= warmBasisQueueCap
	if shared {
		br.basis = sol.Basis
		br.refs.Store(2)
	}
	heap.Push(&st.queue, &br.kids[0])
	heap.Push(&st.queue, &br.kids[1])
	st.mu.Unlock()
	return shared
}

// mostFractional returns the integer variable whose relaxation value is
// farthest from integrality, or -1 when all are integral.
func (st *search) mostFractional(x []float64) lp.VarID {
	best := lp.VarID(-1)
	bestFrac := st.intTol
	for _, v := range st.intVars {
		f := math.Abs(x[v] - math.Round(x[v]))
		if f > bestFrac {
			best, bestFrac = v, f
		}
	}
	return best
}

// finalBound computes the best proven lower bound: the minimum over the
// remaining open nodes and the incumbent.
func (st *search) finalBound() float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.queue) == 0 && st.best == nil {
		return math.Inf(-1)
	}
	bound := math.Inf(1)
	if st.best != nil {
		bound = st.incumbent
	}
	for _, nd := range st.queue {
		bound = math.Min(bound, nd.bound)
	}
	return bound
}
