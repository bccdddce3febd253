package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxIncumbentsDefault bounds the stored incumbent trajectory so a noisy
// emitter (early annealing energy descent) cannot grow a trace without
// bound. Counter aggregates stay exact regardless; only trajectory
// points beyond the cap are dropped (and counted).
const maxIncumbentsDefault = 1024

// IncumbentPoint is one step of the incumbent trajectory: a better
// solution of the given objective found At after recording started.
type IncumbentPoint struct {
	Span      string
	Objective float64
	At        time.Duration
}

// SpanEnd is a span's terminal record. Start and At are relative to
// recording start: Start is when this opening of the span began, At when
// it ended, so At-Start is the span's duration.
type SpanEnd struct {
	Span    string
	Outcome Outcome
	Slack   time.Duration
	Start   time.Duration
	At      time.Duration
}

// Duration is how long the span ran.
func (e SpanEnd) Duration() time.Duration { return e.At - e.Start }

// Recorder is a Probe that aggregates counters per span and timestamps
// incumbent/end events. Safe for concurrent use; one Recorder observes
// one solve (timestamps are relative to NewRecorder).
type Recorder struct {
	start time.Time
	cap   int

	mu         sync.Mutex
	counters   map[string]*[numCounters]int64
	spanOrder  []string
	incumbents []IncumbentPoint
	ends       []SpanEnd
	dropped    int
}

// NewRecorder returns an empty recorder; its clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{
		start:    time.Now(),
		cap:      maxIncumbentsDefault,
		counters: make(map[string]*[numCounters]int64),
	}
}

// Span implements Probe. Spans with the same name share one counter set;
// each opening keeps its own start time for its End record.
func (r *Recorder) Span(name string) Span {
	start := time.Since(r.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	return span{r: r, name: name, counters: r.countersLocked(name), start: start}
}

// countersLocked returns (creating if needed) the named span's counters.
func (r *Recorder) countersLocked(name string) *[numCounters]int64 {
	c, ok := r.counters[name]
	if !ok {
		c = new([numCounters]int64)
		r.counters[name] = c
		r.spanOrder = append(r.spanOrder, name)
	}
	return c
}

type span struct {
	r        *Recorder
	name     string
	counters *[numCounters]int64
	start    time.Duration
}

func (s span) Add(c Counter, delta int64) {
	if c >= numCounters {
		return
	}
	s.r.mu.Lock()
	s.counters[c] += delta
	s.r.mu.Unlock()
}

func (s span) Incumbent(objective float64) {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if len(s.r.incumbents) >= s.r.cap {
		s.r.dropped++
		return
	}
	s.r.incumbents = append(s.r.incumbents, IncumbentPoint{
		Span:      s.name,
		Objective: objective,
		At:        time.Since(s.r.start),
	})
}

func (s span) End(outcome Outcome, slack time.Duration) {
	at := time.Since(s.r.start)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	s.r.ends = append(s.r.ends, SpanEnd{
		Span:    s.name,
		Outcome: outcome,
		Slack:   slack,
		Start:   s.start,
		At:      at,
	})
}

// Incumbents returns the recorded trajectory of the named span, or of
// every span when name is empty, in emission order.
func (r *Recorder) Incumbents(name string) []IncumbentPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]IncumbentPoint, 0, len(r.incumbents))
	for _, p := range r.incumbents {
		if name == "" || p.Span == name {
			out = append(out, p)
		}
	}
	return out
}

// IncumbentTimes returns when the named span's first and best incumbents
// were recorded, relative to recording start. Within a span incumbent
// objectives are nonincreasing, so the span's latest point is its best.
// ok is false when the span recorded no incumbents.
func (r *Recorder) IncumbentTimes(span string) (first, best time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.incumbents {
		if p.Span != span {
			continue
		}
		if !ok {
			first = p.At
			ok = true
		}
		best = p.At
	}
	return first, best, ok
}

// DroppedIncumbents reports trajectory points discarded over the cap.
func (r *Recorder) DroppedIncumbents() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Ends returns every span's terminal record in emission order.
func (r *Recorder) Ends() []SpanEnd {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanEnd(nil), r.ends...)
}

// EndOf returns the first terminal record of the named span.
func (r *Recorder) EndOf(name string) (SpanEnd, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.ends {
		if e.Span == name {
			return e, true
		}
	}
	return SpanEnd{}, false
}

// Total returns counter c summed over every span.
func (r *Recorder) Total(c Counter) int64 {
	if c >= numCounters {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, sc := range r.counters {
		total += sc[c]
	}
	return total
}

// TotalFor returns counter c for the named span.
func (r *Recorder) TotalFor(name string, c Counter) int64 {
	if c >= numCounters {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if sc, ok := r.counters[name]; ok {
		return sc[c]
	}
	return 0
}

// SpanNames returns the observed span names in first-seen order.
func (r *Recorder) SpanNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.spanOrder...)
}

// Trace is the wire-format snapshot of a recorded solve, embedded in the
// daemon's solve response when the request asks for "trace": true.
type Trace struct {
	// Incumbents is the trajectory: objective + timestamp per
	// improvement, across all spans in emission order.
	Incumbents []TraceIncumbent `json:"incumbents,omitempty"`
	// DroppedIncumbents counts trajectory points discarded over the
	// recorder's cap.
	DroppedIncumbents int `json:"dropped_incumbents,omitempty"`
	// Counters are the nonzero counter totals summed over all spans.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Spans summarizes each observed span.
	Spans []TraceSpan `json:"spans,omitempty"`
}

// TraceIncumbent is one trajectory point on the wire.
type TraceIncumbent struct {
	Span      string  `json:"span"`
	Objective float64 `json:"objective"`
	AtMS      float64 `json:"at_ms"`
}

// TraceSpan is one span summary on the wire.
type TraceSpan struct {
	Name string `json:"name"`
	// Outcome is empty for spans that never ended (abandoned portfolio
	// stragglers).
	Outcome string `json:"outcome,omitempty"`
	// SlackMS is the deadline slack at return (0 without a deadline).
	SlackMS float64 `json:"slack_ms,omitempty"`
	// EndMS is when the span ended, relative to recording start.
	EndMS float64 `json:"end_ms,omitempty"`
	// StartMS is when the span opened, relative to recording start, and
	// DurationMS how long it ran (EndMS-StartMS). Both are omitted for
	// spans that never ended. A span opened more than once reports its
	// first ended opening, like Outcome.
	StartMS    float64 `json:"start_ms,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Counters are the span's nonzero counter totals.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Trace snapshots the recorder into its wire form.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{DroppedIncumbents: r.dropped}
	for _, p := range r.incumbents {
		t.Incumbents = append(t.Incumbents, TraceIncumbent{
			Span:      p.Span,
			Objective: p.Objective,
			AtMS:      durMS(p.At),
		})
	}
	totals := map[string]int64{}
	for _, name := range r.spanOrder {
		sc := r.counters[name]
		ts := TraceSpan{Name: name}
		for c := Counter(0); c < numCounters; c++ {
			if sc[c] == 0 {
				continue
			}
			if ts.Counters == nil {
				ts.Counters = map[string]int64{}
			}
			ts.Counters[c.String()] = sc[c]
			totals[c.String()] += sc[c]
		}
		for _, e := range r.ends {
			if e.Span == name {
				ts.Outcome = string(e.Outcome)
				ts.SlackMS = durMS(e.Slack)
				ts.EndMS = durMS(e.At)
				ts.StartMS = durMS(e.Start)
				ts.DurationMS = durMS(e.Duration())
				break
			}
		}
		t.Spans = append(t.Spans, ts)
	}
	if len(totals) > 0 {
		t.Counters = totals
	}
	return t
}

// Table renders the recorded telemetry as a human-readable report: the
// per-span summary first, then the incumbent trajectory. Used by
// `floorplanner -trace` and `experiments -telemetry`.
func (r *Recorder) Table() string {
	tr := r.Trace()
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-12s %10s %10s %10s %9s %9s\n",
		"span", "outcome", "nodes", "pivots", "backtracks", "slack", "end")
	for _, ts := range tr.Spans {
		outcome := ts.Outcome
		if outcome == "" {
			outcome = "-"
		}
		fmt.Fprintf(&b, "%-24s %-12s %10d %10d %10d %8.0fms %8.0fms\n",
			ts.Name, outcome,
			ts.Counters[Nodes.String()], ts.Counters[Pivots.String()],
			ts.Counters[Backtracks.String()], ts.SlackMS, ts.EndMS)
	}
	if len(tr.Counters) > 0 {
		names := make([]string, 0, len(tr.Counters))
		for n := range tr.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("totals:")
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, tr.Counters[n])
		}
		b.WriteString("\n")
	}
	if len(tr.Incumbents) > 0 {
		b.WriteString("incumbents:\n")
		for _, p := range tr.Incumbents {
			fmt.Fprintf(&b, "  %8.1fms  %-24s %g\n", p.AtMS, p.Span, p.Objective)
		}
		if tr.DroppedIncumbents > 0 {
			fmt.Fprintf(&b, "  (+%d dropped over the %d-point cap)\n", tr.DroppedIncumbents, maxIncumbentsDefault)
		}
	}
	return b.String()
}

func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
