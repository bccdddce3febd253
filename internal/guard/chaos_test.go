package guard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

func TestChaosScriptCycles(t *testing.T) {
	p := testProblem(t)
	c := NewChaos(goodEngine("inner"), ChaosConfig{
		Script: []Fault{FaultPanic, FaultError, FaultNone},
	})
	if c.Name() != "chaos(inner)" {
		t.Errorf("Name = %q", c.Name())
	}
	for round := 0; round < 2; round++ {
		// Entry 1: panic.
		_, err := Protect(c.Name(), p, func() (*core.Solution, error) {
			return c.Solve(context.Background(), p, core.SolveOptions{})
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("round %d entry 1: want panic, got %v", round, err)
		}
		// Entry 2: injected error.
		_, err = c.Solve(context.Background(), p, core.SolveOptions{})
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("round %d entry 2: want ErrInjected, got %v", round, err)
		}
		// Entry 3: pass through.
		sol, err := c.Solve(context.Background(), p, core.SolveOptions{})
		if err != nil || sol == nil {
			t.Fatalf("round %d entry 3: want pass-through, got %v, %v", round, sol, err)
		}
	}
	if c.Calls() != 6 {
		t.Errorf("calls = %d, want 6", c.Calls())
	}
}

// TestChaosSeededDeterminism runs the same weighted schedule twice and
// requires identical fault sequences: a chaos run is reproducible from
// its seed.
func TestChaosSeededDeterminism(t *testing.T) {
	draw := func(seed int64) []Fault {
		c := NewChaos(goodEngine("inner"), ChaosConfig{
			Seed:          seed,
			PassWeight:    4,
			PanicWeight:   2,
			InvalidWeight: 2,
			ErrorWeight:   1,
			DelayWeight:   1,
		})
		out := make([]Fault, 50)
		for i := range out {
			_, out[i] = c.next()
		}
		return out
	}
	a, b := draw(42), draw(42)
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != a[0] {
			varied = true
		}
	}
	if !varied {
		t.Error("50 weighted draws produced a single fault kind; weights look broken")
	}
	c, d := draw(1), draw(2)
	same := true
	for i := range c {
		if c[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestChaosPoisonFailsValidation(t *testing.T) {
	p := testProblem(t)
	c := NewChaos(goodEngine("inner"), ChaosConfig{Script: []Fault{FaultInvalid}})
	sol, err := c.Solve(context.Background(), p, core.SolveOptions{})
	if err != nil {
		t.Fatalf("FaultInvalid must return a nil error: %v", err)
	}
	if sol.Validate(p) == nil {
		t.Fatal("poison solution passed Validate; the chaos harness can't test the guard")
	}
	if CheckSolution(c.Name(), p, sol) == nil {
		t.Fatal("CheckSolution accepted the poison solution")
	}
}

func TestChaosDelayHonorsContext(t *testing.T) {
	p := testProblem(t)
	c := NewChaos(goodEngine("inner"), ChaosConfig{
		Script: []Fault{FaultDelay},
		Delay:  10 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Solve(ctx, p, core.SolveOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("delayed solve ignored cancellation (took %v)", e)
	}
}

// TestChaosFallbackEverySlotPanics is the acceptance scenario: a chaos
// schedule injects a panic into EVERY engine slot of a fallback chain.
// The first solve absorbs three panics without crashing and reports a
// structured joined error; the second solve — same chain, schedules
// advanced — completes and serves a validated solution. No panic ever
// escapes to the caller.
func TestChaosFallbackEverySlotPanics(t *testing.T) {
	p := testProblem(t)
	f := composite(Sequence,
		Member{Engine: NewChaos(goodEngine("inner"), ChaosConfig{Script: []Fault{FaultPanic}})},
		Member{Engine: NewChaos(goodEngine("inner"), ChaosConfig{Script: []Fault{FaultPanic}})},
		Member{Engine: NewChaos(goodEngine("inner"), ChaosConfig{Script: []Fault{FaultPanic, FaultNone}})},
	)

	// Solve 1: all three slots panic. The process must survive and the
	// error must carry the recovered panics.
	_, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 5 * time.Second})
	if err == nil {
		t.Fatal("all-panic solve returned nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("joined error does not expose a PanicError: %v", err)
	}

	// Solve 2: the third slot's script has advanced to FaultNone, so the
	// chain degrades past two fresh panics and completes.
	sol, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 5 * time.Second})
	if err != nil {
		t.Fatalf("fallback did not recover once a slot healed: %v", err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatalf("recovered solve served an invalid solution: %v", err)
	}
	if sol.Engine != "fallback(chaos(inner))" {
		t.Errorf("winner = %q, want fallback(chaos(inner))", sol.Engine)
	}
}

func TestParseChaosSpec(t *testing.T) {
	for _, spec := range []string{"", "off", "none", "  off  "} {
		cfg, err := ParseChaosSpec(spec)
		if err != nil || cfg != nil {
			t.Fatalf("ParseChaosSpec(%q) = %+v, %v; want nil, nil", spec, cfg, err)
		}
	}

	cfg, err := ParseChaosSpec("script:panic,pass,error,invalid,delay,none")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{FaultPanic, FaultNone, FaultError, FaultInvalid, FaultDelay, FaultNone}
	if len(cfg.Script) != len(want) {
		t.Fatalf("script = %v, want %v", cfg.Script, want)
	}
	for i, f := range want {
		if cfg.Script[i] != f {
			t.Fatalf("script = %v, want %v", cfg.Script, want)
		}
	}

	cfg, err = ParseChaosSpec("seed:7")
	if err != nil {
		t.Fatal(err)
	}
	pw, pa, in, er, de := DefaultChaosWeights()
	if cfg.Seed != 7 || cfg.PassWeight != pw || cfg.PanicWeight != pa ||
		cfg.InvalidWeight != in || cfg.ErrorWeight != er || cfg.DelayWeight != de {
		t.Fatalf("seed:7 cfg = %+v", cfg)
	}

	cfg, err = ParseChaosSpec("seed:3,panic:10,pass:85,delay:5")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 3 || cfg.PanicWeight != 10 || cfg.PassWeight != 85 || cfg.DelayWeight != 5 ||
		cfg.InvalidWeight != 0 || cfg.ErrorWeight != 0 {
		t.Fatalf("explicit cfg = %+v", cfg)
	}

	for _, bad := range []string{
		"panic:10", "seed:x", "script:bogus", "script:", "seed:1,wat:2",
		"seed:1,seed:2", "seed:1,panic:-3", "justwords",
	} {
		if _, err := ParseChaosSpec(bad); err == nil {
			t.Fatalf("ParseChaosSpec(%q) accepted", bad)
		}
	}
}

// TestChaosInjectorApply: the engine-less injector form applies faults
// around an arbitrary solve function, consuming the script in order.
func TestChaosInjectorApply(t *testing.T) {
	p := testProblem(t)
	c := NewChaosInjector(ChaosConfig{Script: []Fault{FaultError, FaultNone}})
	if c.Name() != "chaos" {
		t.Fatalf("injector name = %q", c.Name())
	}
	inner := func(context.Context) (*core.Solution, error) {
		return goodEngine("inner").Solve(context.Background(), p, core.SolveOptions{})
	}
	if _, err := c.Apply(context.Background(), p, inner); !errors.Is(err, ErrInjected) {
		t.Fatalf("scripted error fault not applied: %v", err)
	}
	sol, err := c.Apply(context.Background(), p, inner)
	if err != nil || sol == nil {
		t.Fatalf("pass-through call = %v, %v", sol, err)
	}
	if c.Calls() != 2 {
		t.Fatalf("calls = %d, want 2", c.Calls())
	}
}
