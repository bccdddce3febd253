package guard

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
)

func TestFallbackRecordsStageTimings(t *testing.T) {
	p := testProblem(t)
	f := composite(Sequence,
		Member{Engine: panicEngine("boom")},
		Member{Engine: lyingEngine("liar")},
		Member{Engine: goodEngine("good")},
	)
	ctx, log := WithStageLog(context.Background())
	if _, err := f.Solve(ctx, p, core.SolveOptions{TimeLimit: 5 * time.Second}); err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	stages := log.Stages()
	if len(stages) != 3 {
		t.Fatalf("recorded %d stages, want 3: %+v", len(stages), stages)
	}
	want := []struct{ engine, outcome string }{
		{"boom", "panic"},
		{"liar", "invalid"},
		{"good", "solved"},
	}
	for i, w := range want {
		if stages[i].Engine != w.engine || stages[i].Outcome != w.outcome {
			t.Errorf("stage %d = %s/%s, want %s/%s", i, stages[i].Engine, stages[i].Outcome, w.engine, w.outcome)
		}
		if stages[i].ElapsedMS < 0 {
			t.Errorf("stage %d has negative elapsed %v", i, stages[i].ElapsedMS)
		}
	}
	// Failed stages carry their error text; the winner does not.
	if stages[0].Err == "" || stages[1].Err == "" {
		t.Errorf("fault stages lost their error text: %+v", stages[:2])
	}
	if stages[2].Err != "" {
		t.Errorf("winning stage has error text %q", stages[2].Err)
	}
}

func TestFallbackRecordsSkippedStages(t *testing.T) {
	p := testProblem(t)
	brs := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	// Trip the boom breaker.
	brs.For("boom").Record(BreakerFailure)
	f := composite(Sequence,
		Member{Engine: panicEngine("boom")},
		Member{Engine: goodEngine("good")},
	)
	f.Breakers = brs
	ctx, log := WithStageLog(context.Background())
	if _, err := f.Solve(ctx, p, core.SolveOptions{TimeLimit: 5 * time.Second}); err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	stages := log.Stages()
	if len(stages) != 2 {
		t.Fatalf("recorded %d stages, want 2: %+v", len(stages), stages)
	}
	if stages[0].Engine != "boom" || stages[0].Outcome != StageOutcomeSkipped {
		t.Errorf("stage 0 = %s/%s, want boom/%s", stages[0].Engine, stages[0].Outcome, StageOutcomeSkipped)
	}
	if stages[0].ElapsedMS != 0 {
		t.Errorf("skipped stage has elapsed %v, want 0", stages[0].ElapsedMS)
	}
	if stages[1].Engine != "good" || stages[1].Outcome != "solved" {
		t.Errorf("stage 1 = %s/%s, want good/solved", stages[1].Engine, stages[1].Outcome)
	}
}

func TestWithStageLogReusesExisting(t *testing.T) {
	ctx, outer := WithStageLog(context.Background())
	ctx2, inner := WithStageLog(ctx)
	if outer != inner {
		t.Fatal("nested WithStageLog created a second collector")
	}
	if ctx2 != ctx {
		t.Fatal("nested WithStageLog rewrapped the context")
	}
	if StageLogFrom(context.Background()) != nil {
		t.Fatal("StageLogFrom on a bare context is non-nil")
	}
}

func TestStageLogWithoutCollectorIsHarmless(t *testing.T) {
	p := testProblem(t)
	f := composite(Sequence, Member{Engine: goodEngine("good")})
	// No WithStageLog on the context: the solve must run unchanged.
	if _, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 5 * time.Second}); err != nil {
		t.Fatalf("fallback failed without a stage log: %v", err)
	}
}
