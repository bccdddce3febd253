package guard

import (
	"context"
	"sync"

	"repro/internal/flight"
)

// StageOutcomeSkipped labels a member that never ran because its
// engine's circuit breaker was open. Every other stage outcome is one of
// the obs outcome labels ("solved", "no_solution", "panic", ...).
const StageOutcomeSkipped = "skipped"

// StageLog collects a solve's meta-engine stages: one flight.Stage per
// member, saying which engine ran, how it ended and how long it took, so
// /debug/solves and SIGUSR1 dumps show where the budget went. Safe for
// concurrent use (meta-engines may nest).
type StageLog struct {
	mu     sync.Mutex
	stages []flight.Stage
}

// add appends one stage; a nil log discards it.
func (l *StageLog) add(st flight.Stage) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.stages = append(l.stages, st)
	l.mu.Unlock()
}

// Stages returns the collected stages in emission order.
func (l *StageLog) Stages() []flight.Stage {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]flight.Stage(nil), l.stages...)
}

type stageLogKey struct{}

// WithStageLog returns a context carrying a stage collector and the
// collector itself. If ctx already carries one, it is reused — so a
// serving layer that installs the log before dispatch and a facade that
// installs it inside both observe the same stages.
func WithStageLog(ctx context.Context) (context.Context, *StageLog) {
	if l := StageLogFrom(ctx); l != nil {
		return ctx, l
	}
	l := &StageLog{}
	return context.WithValue(ctx, stageLogKey{}, l), l
}

// StageLogFrom returns the context's stage collector, or nil.
func StageLogFrom(ctx context.Context) *StageLog {
	l, _ := ctx.Value(stageLogKey{}).(*StageLog)
	return l
}
