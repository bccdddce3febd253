package guard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/flight"
	"repro/internal/grid"
)

// raceProblem mirrors the core package's fixture: two regions and one net
// on the Virtex-5 FX70T, small enough that solutions can be written by
// hand and validated for real.
func raceProblem() *core.Problem {
	return &core.Problem{
		Device: device.VirtexFX70T(),
		Regions: []core.Region{
			{Name: "A", Req: device.Requirements{device.ClassCLB: 25, device.ClassDSP: 5}},
			{Name: "B", Req: device.Requirements{device.ClassCLB: 5, device.ClassBRAM: 2}},
		},
		Nets:      []core.Net{{A: 0, B: 1, Weight: 64}},
		Objective: core.DefaultObjective(),
	}
}

// nearSolution places B next to A (short net).
func nearSolution() *core.Solution {
	return &core.Solution{
		Regions: []grid.Rect{
			{X: 4, Y: 0, W: 6, H: 5},
			{X: 10, Y: 0, W: 4, H: 2},
		},
		FC: []core.FCPlacement{},
	}
}

// farSolution places B at the bottom edge (long net, worse objective).
func farSolution() *core.Solution {
	return &core.Solution{
		Regions: []grid.Rect{
			{X: 4, Y: 0, W: 6, H: 5},
			{X: 10, Y: 6, W: 4, H: 2},
		},
		FC: []core.FCPlacement{},
	}
}

// stub is a scripted member engine: it waits delay (honoring ctx), then
// returns its canned result. A non-nil canceled channel is closed when the
// stub observes cancellation, letting tests assert losers were stopped.
type stub struct {
	name     string
	sol      *core.Solution
	err      error
	delay    time.Duration
	canceled chan struct{}
}

func (s *stub) Name() string { return s.name }

func (s *stub) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (*core.Solution, error) {
	if s.delay > 0 {
		t := time.NewTimer(s.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			if s.canceled != nil {
				close(s.canceled)
			}
			return nil, ctx.Err()
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	cp := *s.sol
	return &cp, nil
}

func TestPortfolioPicksBestObjective(t *testing.T) {
	p := raceProblem()
	near, far := nearSolution(), farSolution()
	if near.Objective(p) >= far.Objective(p) {
		t.Fatalf("fixture broken: near objective %v !< far objective %v", near.Objective(p), far.Objective(p))
	}
	pf := &Composite{Members: []Member{
		{Engine: &stub{name: "worse", sol: far}},
		{Engine: &stub{name: "better", sol: near, delay: 20 * time.Millisecond}},
	}}
	sol, err := pf.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Engine != "portfolio(better)" {
		t.Fatalf("winner = %q, want portfolio(better)", sol.Engine)
	}
	if got := sol.Objective(p); got != near.Objective(p) {
		t.Fatalf("objective = %v, want the better member's %v", got, near.Objective(p))
	}
}

func TestPortfolioProvenWinnerCancelsLosers(t *testing.T) {
	p := raceProblem()
	proven := nearSolution()
	proven.Proven = true
	loserCanceled := make(chan struct{})
	pf := &Composite{Members: []Member{
		{Engine: &stub{name: "fast", sol: proven}},
		{Engine: &stub{name: "slow", sol: farSolution(), delay: time.Minute, canceled: loserCanceled}},
	}}
	start := time.Now()
	sol, err := pf.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("proven winner did not short-circuit the race: %s", elapsed)
	}
	if sol.Engine != "portfolio(fast)" {
		t.Fatalf("winner = %q, want portfolio(fast)", sol.Engine)
	}
	select {
	case <-loserCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("loser was never canceled")
	}
}

func TestPortfolioTrustedInfeasibleBeatsBudgetFailure(t *testing.T) {
	p := raceProblem()
	pf := &Composite{Members: []Member{
		{Engine: &stub{name: "exactish", err: core.ErrInfeasible}, TrustInfeasible: true},
		{Engine: &stub{name: "heur", err: core.ErrNoSolution}},
	}}
	_, err := pf.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible from the trusted member", err)
	}
}

func TestPortfolioUntrustedInfeasibleDegrades(t *testing.T) {
	p := raceProblem()
	pf := &Composite{Members: []Member{
		{Engine: &stub{name: "heur", err: core.ErrInfeasible}},
	}}
	_, err := pf.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("an untrusted infeasibility claim must not surface as a proof (err = %v)", err)
	}
	if !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

func TestPortfolioInfeasibleBeatsOtherErrors(t *testing.T) {
	p := raceProblem()
	pf := &Composite{Members: []Member{
		{Engine: &stub{name: "broken", err: errors.New("disk on fire")}},
		{Engine: &stub{name: "exactish", err: core.ErrInfeasible, delay: 10 * time.Millisecond}, TrustInfeasible: true},
	}}
	_, err := pf.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible to outrank a member crash", err)
	}
}

func TestPortfolioReportsMemberErrors(t *testing.T) {
	p := raceProblem()
	pf := &Composite{Members: []Member{
		{Engine: &stub{name: "broken", err: errors.New("disk on fire")}},
	}}
	_, err := pf.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("err = %v, want the failing member named", err)
	}
}

func TestPortfolioRejectsInvalidSolution(t *testing.T) {
	p := raceProblem()
	overlapping := &core.Solution{
		Regions: []grid.Rect{
			{X: 4, Y: 0, W: 6, H: 5},
			{X: 4, Y: 0, W: 6, H: 5}, // overlaps region A and lacks B's BRAM
		},
		FC: []core.FCPlacement{},
	}
	pf := &Composite{Members: []Member{
		{Engine: &stub{name: "cheater", sol: overlapping}},
		{Engine: &stub{name: "honest", sol: nearSolution(), delay: 20 * time.Millisecond}},
	}}
	sol, err := pf.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Engine != "portfolio(honest)" {
		t.Fatalf("winner = %q, want portfolio(honest): an invalid floorplan must not win", sol.Engine)
	}
}

// TestPortfolioStats checks the per-member record a race leaves in the
// stage log: one entry per member, the winner's without an error, the
// loser's with one.
func TestPortfolioStats(t *testing.T) {
	p := raceProblem()
	proven := nearSolution()
	proven.Proven = true
	pf := &Composite{
		Members: []Member{
			{Engine: &stub{name: "winner", sol: proven}},
			{Engine: &stub{name: "loser", err: core.ErrNoSolution}},
		},
	}
	ctx, log := WithStageLog(context.Background())
	sol, err := pf.Solve(ctx, p, core.SolveOptions{TimeLimit: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string][]flight.Stage)
	for _, st := range log.Stages() {
		byName[st.Engine] = append(byName[st.Engine], st)
	}
	w, l := byName["winner"], byName["loser"]
	if len(w) != 1 || sol.Engine != "portfolio(winner)" || w[0].Err != "" {
		t.Fatalf("winner stages = %+v (solution %q), want 1 race, 1 win", w, sol.Engine)
	}
	if len(l) != 1 || l[0].Err == "" {
		t.Fatalf("loser stages = %+v, want 1 race, 1 failure", l)
	}
}

// TestPortfolioNilStatsSafe: a race without a stage log on its context
// runs unchanged.
func TestPortfolioNilStatsSafe(t *testing.T) {
	p := raceProblem()
	pf := &Composite{Members: []Member{{Engine: &stub{name: "only", sol: nearSolution()}}}}
	if _, err := pf.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second}); err != nil {
		t.Fatal(err)
	}
}

// TestPortfolioLogsAbandonedStraggler: a member that ignores its
// deadline is abandoned once the grace window expires; the race still
// returns its best answer promptly and logs the straggler's stage.
func TestPortfolioLogsAbandonedStraggler(t *testing.T) {
	p := raceProblem()
	release := make(chan struct{})
	defer close(release)
	deaf := &stubEngine{name: "deaf", fn: func(context.Context, *core.Problem, core.SolveOptions) (*core.Solution, error) {
		<-release
		return nil, core.ErrNoSolution
	}}
	pf := &Composite{Members: []Member{
		{Engine: &stub{name: "quick", sol: nearSolution()}},
		{Engine: deaf},
	}}
	ctx, log := WithStageLog(context.Background())
	start := time.Now()
	sol, err := pf.Solve(ctx, p, core.SolveOptions{TimeLimit: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("race waited %s for a straggler", elapsed)
	}
	if sol.Engine != "portfolio(quick)" {
		t.Fatalf("winner = %q, want portfolio(quick)", sol.Engine)
	}
	stages := log.Stages()
	if len(stages) != 2 || stages[1].Engine != "deaf" || stages[1].Outcome != "no_solution" || !strings.Contains(stages[1].Err, "abandoned") {
		t.Fatalf("stages = %+v, want the deaf member logged as abandoned", stages)
	}
}
