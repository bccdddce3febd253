package diag

import (
	"context"
	"hash/fnv"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Goroutine-label keys. Kept short and stable: they become pprof tag
// names resolvable with `go tool pprof -tags`.
const (
	// LabelEngine is the engine (or fallback-stage engine) on CPU.
	LabelEngine = "engine"
	// LabelPhase is the span stage within the engine ("solve" for the
	// engine's own span, the stage suffix for "<engine>/<stage>" spans).
	LabelPhase = "phase"
	// LabelEndpoint is the serving endpoint ("/v1/solve", "session").
	LabelEndpoint = "endpoint"
	// LabelDigest is the request-digest prefix (first 8 hex chars), the
	// cache/dedup identity of the problem being solved.
	LabelDigest = "digest"
	// LabelRequestID is the per-request id when the caller supplied one.
	LabelRequestID = "rid"
	// LabelJoin is the join digest: the same value is stored on the
	// solve's flight record (flight.Record.LabelDigest), so a profile
	// sample joins back to the exact solve that was on CPU.
	LabelJoin = "ldig"
)

// digestPrefixLen truncates request digests on the label (full digests
// stay on the flight record); 8 hex chars keep tag cardinality sane.
const digestPrefixLen = 8

var labeling atomic.Bool

// SetLabeling switches goroutine labeling on or off process-wide.
// Off (the default) makes Do and LabelProbe allocation-free
// pass-throughs.
func SetLabeling(on bool) { labeling.Store(on) }

// LabelingEnabled reports whether goroutine labeling is on.
func LabelingEnabled() bool { return labeling.Load() }

// LabelSet is the identity a unit of work runs under. Empty fields are
// omitted from the goroutine labels.
type LabelSet struct {
	Engine    string
	Phase     string
	Endpoint  string
	Digest    string // full request digest; truncated on the label
	RequestID string
}

// JoinDigest derives the stable join key linking profile samples to
// flight records: a 64-bit FNV-1a over the request-identity fields
// (phase excluded — one solve spans many phases), formatted %016x.
func (ls LabelSet) JoinDigest() string {
	h := fnv.New64a()
	for _, s := range []string{ls.Engine, ls.Endpoint, ls.Digest, ls.RequestID} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	const hex = "0123456789abcdef"
	sum := h.Sum64()
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hex[sum&0xf]
		sum >>= 4
	}
	return string(buf[:])
}

// pairs flattens the set into pprof.Labels arguments, skipping empties.
func (ls LabelSet) pairs() []string {
	out := make([]string, 0, 12)
	add := func(k, v string) {
		if v != "" {
			out = append(out, k, v)
		}
	}
	add(LabelEngine, ls.Engine)
	add(LabelPhase, ls.Phase)
	add(LabelEndpoint, ls.Endpoint)
	d := ls.Digest
	if len(d) > digestPrefixLen {
		d = d[:digestPrefixLen]
	}
	add(LabelDigest, d)
	add(LabelRequestID, ls.RequestID)
	add(LabelJoin, ls.JoinDigest())
	return out
}

// Do runs fn with ls applied as goroutine pprof labels (inherited by
// any goroutines fn starts). When labeling is disabled it calls fn
// directly with no allocation.
func Do(ctx context.Context, ls LabelSet, fn func(context.Context)) {
	if !labeling.Load() {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(ls.pairs()...), fn)
}

// LabelProbe wraps an obs.Probe and keeps the running goroutine's
// engine/phase labels in sync with the open span: Span("milp-ho/wire")
// relabels the goroutine {engine=milp-ho, phase=wire} for the span's
// lifetime and restores the solve's base labels on End. Fallback-chain
// stages therefore self-attribute — each member engine opens its own
// span, so profile samples land on the stage actually on CPU.
//
// Bind must be called from inside the Do closure (after the base labels
// are on the context) before the solve runs; an unbound LabelProbe is a
// transparent pass-through.
type LabelProbe struct {
	inner obs.Probe
	base  atomic.Value // context.Context carrying the solve's base labels
}

// NewLabelProbe wraps inner (obs.Nop when nil).
func NewLabelProbe(inner obs.Probe) *LabelProbe {
	if inner == nil {
		inner = obs.Nop
	}
	return &LabelProbe{inner: inner}
}

// Bind records ctx as the label restore point: span End resets the
// goroutine to ctx's labels rather than to none.
func (p *LabelProbe) Bind(ctx context.Context) { p.base.Store(ctx) }

// Span opens the inner span and, when labeling is active and the probe
// is bound, relabels the calling goroutine for the span's duration.
func (p *LabelProbe) Span(name string) obs.Span {
	sp := p.inner.Span(name)
	if !labeling.Load() {
		return sp
	}
	base, _ := p.base.Load().(context.Context)
	if base == nil {
		return sp
	}
	engine, phase := obs.SplitSpan(name)
	labeled := pprof.WithLabels(base, pprof.Labels(LabelEngine, engine, LabelPhase, phase))
	pprof.SetGoroutineLabels(labeled)
	return &labelSpan{Span: sp, base: base}
}

// labelSpan restores the solve's base labels when the stage ends.
type labelSpan struct {
	obs.Span
	base context.Context
}

func (s *labelSpan) End(outcome obs.Outcome, slack time.Duration) {
	pprof.SetGoroutineLabels(s.base)
	s.Span.End(outcome, slack)
}
