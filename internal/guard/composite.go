package guard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
)

// Schedule selects how a Composite runs its members.
type Schedule int

const (
	// Race runs every member concurrently under the whole budget (the
	// worker budget is split between them) and keeps the best answer:
	// the "portfolio" engine.
	Race Schedule = iota
	// Sequence tries the members in order, stage i of n getting
	// remaining/(n-i) of the budget, and keeps the first validated
	// solution: the "fallback" engine.
	Sequence
)

// raceGrace bounds the wait for race stragglers once a winner is
// accepted or the shared deadline passes. Members honoring the deadline
// contract return well within it.
const raceGrace = 150 * time.Millisecond

// Member is one engine of a Composite.
type Member struct {
	// Engine computes floorplans; it runs through Wrap (panic isolation
	// plus solution verification) and must honor ctx and TimeLimit.
	Engine core.Engine
	// TrustInfeasible marks engines whose ErrInfeasible is a proof over
	// the full solution space (exact, milp-o). Untrusted claims — bounded
	// search giving up — count as exhausted budgets, never as proofs.
	TrustInfeasible bool
}

// Composite is the meta-engine: it runs its members under one shared
// budget on the chosen schedule and returns the best answer they give.
// Both schedules share one breaker gate, one stage-log entry per member,
// one classification of member results and one rule for the final
// error, so a race and a chain answer the same inputs the same way.
//
// A trusted infeasibility proof or (Race) a proven optimum is accepted
// at once; Race cancels the losers. Panics, invalid solutions and
// unexpected errors are hard faults: the composite degrades past them.
type Composite struct {
	// Schedule picks Race ("portfolio") or Sequence ("fallback").
	Schedule Schedule
	// Members are the engines, in preference order.
	Members []Member
	// Breakers, when non-nil, gates members through per-engine circuit
	// breakers: a member whose breaker is open sits the solve out (a
	// "skipped" stage), and every admitted run records its outcome.
	Breakers *BreakerSet
}

// Name implements core.Engine: "portfolio" for Race, "fallback" for
// Sequence.
func (c *Composite) Name() string {
	if c.Schedule == Sequence {
		return "fallback"
	}
	return "portfolio"
}

// Solve implements core.Engine. The returned solution's Engine field
// names the winning member ("portfolio(exact)", "fallback(constructive)").
// Without a solution the error is, in order: the caller's ctx error, a
// trusted infeasibility proof, ErrBreakersOpen when every member was
// refused, ErrNoSolution when no member hard-faulted, and otherwise the
// joined hard faults.
func (c *Composite) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (sol *core.Solution, err error) {
	opts = opts.Normalized()
	start := time.Now()
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	// Members inherit opts.Probe and open their own engine-named spans;
	// this span carries the composite's best trajectory.
	r := &run{c: c, ctx: ctx, p: p, sp: opts.Probe.Span(c.Name()), stages: StageLogFrom(ctx)}
	defer func() { r.sp.End(core.ObsOutcome(sol, err), obs.SlackUntil(deadline)) }()
	if err = p.Validate(); err != nil {
		return nil, err
	}
	if len(c.Members) == 0 {
		return nil, fmt.Errorf("guard: %s has no members", c.Name())
	}
	if err = ctx.Err(); err != nil {
		return nil, err
	}
	if c.Schedule == Sequence {
		r.sequence(opts, deadline)
	} else {
		r.race(opts, deadline)
	}
	if r.best == nil {
		return nil, r.err()
	}
	win := *r.best
	win.Engine = fmt.Sprintf("%s(%s)", c.Name(), c.Members[r.bestIdx].Engine.Name())
	win.Elapsed = time.Since(start)
	return &win, nil
}

// class is a member result's role in the composite's decision.
type class int

const (
	solution class = iota // a validated solution
	proof                 // a trusted infeasibility proof
	budget                // the member's budget ran out without a verdict
	fault                 // panic, invalid solution or unexpected error
)

// classify sorts one member's result. Untrusted infeasibility claims,
// ErrNoSolution, deadline expiry and a cancellation the caller did not
// ask for (a race stopping its losers) are budget-class.
func classify(ctx context.Context, m Member, err error) class {
	switch {
	case err == nil:
		return solution
	case errors.Is(err, core.ErrInfeasible) && m.TrustInfeasible:
		return proof
	case errors.Is(err, core.ErrInfeasible),
		errors.Is(err, core.ErrNoSolution),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled) && ctx.Err() == nil:
		return budget
	default:
		return fault
	}
}

// attempt is one member's part in one solve.
type attempt struct {
	state   attemptState
	sol     *core.Solution
	err     error
	elapsed time.Duration
}

type attemptState int

const (
	abandoned attemptState = iota // launched, still running when the race stopped
	refused                       // breaker open: never ran
	finished
)

// run is one Composite.Solve's bookkeeping, shared by both schedules.
type run struct {
	c      *Composite
	ctx    context.Context // the caller's
	p      *core.Problem
	sp     obs.Span
	stages *StageLog // nil outside a collecting caller

	best     *core.Solution
	bestIdx  int
	bestObj  float64
	proof    error
	refusals int
	hard     bool
	faults   []error
}

// admit is the per-member breaker gate. It returns the member's breaker
// (nil without a BreakerSet) and whether the member may run.
func (r *run) admit(name string) (*Breaker, bool) {
	if r.c.Breakers == nil {
		return nil, true
	}
	br := r.c.Breakers.For(name)
	if br.Allow() {
		return br, true
	}
	r.refusals++
	r.faults = append(r.faults, fmt.Errorf("%s: circuit breaker open", name))
	return nil, false
}

// solve runs one admitted member through Wrap and feeds its breaker.
func (r *run) solve(ctx context.Context, m Member, br *Breaker, opts core.SolveOptions) attempt {
	start := time.Now()
	sol, err := Wrap(m.Engine).Solve(ctx, r.p, opts)
	if br != nil {
		br.Record(BreakerOutcomeOf(err))
	}
	return attempt{state: finished, sol: sol, err: err, elapsed: time.Since(start)}
}

// take folds member i's finished attempt into the decision state and
// returns its class.
func (r *run) take(i int, a attempt) class {
	m := r.c.Members[i]
	cl := classify(r.ctx, m, a.err)
	switch cl {
	case solution:
		obj := a.sol.Objective(r.p)
		if r.best == nil || obj < r.bestObj || (obj == r.bestObj && a.sol.Proven && !r.best.Proven) {
			r.best, r.bestIdx, r.bestObj = a.sol, i, obj
			r.sp.Incumbent(obj)
		}
	case proof:
		if r.proof == nil {
			r.proof = a.err
		}
	case budget:
		// %v, not %w: the final error must not inherit this member's
		// sentinel identity, or an untrusted ErrInfeasible would surface
		// as a false infeasibility proof (cached and served as
		// definitive) whenever another member hard-faults.
		r.faults = append(r.faults, fmt.Errorf("%s: %v", m.Engine.Name(), a.err))
	default:
		// %w is safe here: this class excludes the sentinels by
		// construction, and errors.As still surfaces PanicError and
		// InvalidSolutionError from the joined error.
		r.hard = true
		r.faults = append(r.faults, fmt.Errorf("%s: %w", m.Engine.Name(), a.err))
	}
	return cl
}

// log appends member i's stage entry to the caller's stage log.
func (r *run) log(i int, a attempt) {
	st := flight.Stage{Engine: r.c.Members[i].Engine.Name(), ElapsedMS: durationMS(a.elapsed)}
	switch a.state {
	case refused:
		st.Outcome = StageOutcomeSkipped
	case abandoned:
		st.Outcome = string(obs.OutcomeNoSolution)
		st.Err = "abandoned after the race's grace window"
	default:
		st.Outcome = string(core.ObsOutcome(a.sol, a.err))
		if a.err != nil {
			st.Err = a.err.Error()
		}
	}
	r.stages.add(st)
}

// err builds the final error of a solve that found no solution.
func (r *run) err() error {
	name := r.c.Name()
	switch {
	case r.ctx.Err() != nil:
		return r.ctx.Err()
	case r.proof != nil:
		return r.proof
	case r.refusals == len(r.c.Members):
		// The engines are cooling down, not the budget exhausted: a
		// distinct sentinel lets the daemon answer retryable (503)
		// instead of definitive "no_solution".
		return fmt.Errorf("guard: no %s member admitted a run: %w", name, ErrBreakersOpen)
	case !r.hard:
		return fmt.Errorf("guard: no %s member found a solution within the budget: %w", name, core.ErrNoSolution)
	}
	return fmt.Errorf("guard: every %s member failed: %w", name, errors.Join(r.faults...))
}

// sequence tries the members in order until one returns a validated
// solution or a trusted proof. A stage that fails fast rolls its unused
// time over to the later stages; one that burns its slice cannot starve
// them.
func (r *run) sequence(opts core.SolveOptions, deadline time.Time) {
	n := len(r.c.Members)
	for i, m := range r.c.Members {
		if r.ctx.Err() != nil || (!deadline.IsZero() && time.Until(deadline) <= 0) {
			return
		}
		br, ok := r.admit(m.Engine.Name())
		if !ok {
			r.log(i, attempt{state: refused})
			continue
		}
		stageOpts := opts
		if !deadline.IsZero() {
			stageOpts.TimeLimit = time.Until(deadline) / time.Duration(n-i)
		}
		a := r.solve(r.ctx, m, br, stageOpts)
		r.log(i, a)
		if cl := r.take(i, a); cl == solution || cl == proof {
			return
		}
	}
}

// race runs the admitted members concurrently and collects until every
// member returns, a winner is accepted, or the deadline passes; then
// waits at most raceGrace for stragglers. Stage entries are logged in
// member order.
func (r *run) race(opts core.SolveOptions, deadline time.Time) {
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	if !deadline.IsZero() {
		// Backstop: members enforce TimeLimit themselves; the context
		// deadline catches any that only watch ctx.
		var cancelD context.CancelFunc
		ctx, cancelD = context.WithDeadline(ctx, deadline)
		defer cancelD()
	}
	memberOpts := opts
	memberOpts.Workers = max(1, opts.Workers/len(r.c.Members))

	type result struct {
		i int
		a attempt
	}
	launched := time.Now()
	attempts := make([]attempt, len(r.c.Members))
	results := make(chan result, len(r.c.Members))
	pending := 0
	for i, m := range r.c.Members {
		br, ok := r.admit(m.Engine.Name())
		if !ok {
			attempts[i].state = refused
			continue
		}
		pending++
		go func() { results <- result{i, r.solve(ctx, m, br, memberOpts)} }()
	}
	defer func() {
		for i, a := range attempts {
			if a.state == abandoned {
				a.elapsed = time.Since(launched)
			}
			r.log(i, a)
		}
	}()

	// stop bounds the collection; it tightens to now+raceGrace once a
	// winner is accepted so stragglers cannot stall the race.
	var stop *time.Timer
	var stopC <-chan time.Time
	if !deadline.IsZero() {
		stop = time.NewTimer(time.Until(deadline) + raceGrace)
		defer stop.Stop()
		stopC = stop.C
	}
	accepted := false
	accept := func() {
		if accepted {
			return
		}
		accepted = true
		cancel()
		if stop == nil {
			stop = time.NewTimer(raceGrace)
			stopC = stop.C
			return
		}
		if !stop.Stop() {
			select {
			case <-stop.C:
			default:
			}
		}
		stop.Reset(raceGrace)
	}
	for ; pending > 0; pending-- {
		select {
		case res := <-results:
			attempts[res.i] = res.a
			switch r.take(res.i, res.a) {
			case solution:
				if res.a.sol.Proven {
					accept()
				}
			case proof:
				accept()
			}
		case <-stopC:
			// Abandon stragglers: the buffered channel lets their
			// goroutines finish without leaking.
			return
		}
	}
}

func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
