package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNopZeroAlloc pins the tentpole guarantee behind the "zero-cost
// when unused" claim: driving the no-op probe allocates nothing.
func TestNopZeroAlloc(t *testing.T) {
	sp := Nop.Span("exact")
	allocs := testing.AllocsPerRun(1000, func() {
		s := Nop.Span("exact")
		s.Add(Nodes, 1024)
		s.Incumbent(42)
		s.End(OutcomeSolved, time.Second)
		sp.Add(Pivots, 1)
	})
	if allocs != 0 {
		t.Errorf("no-op probe allocated %.1f times per run, want 0", allocs)
	}
}

func TestOrNop(t *testing.T) {
	if OrNop(nil) != NopSpan {
		t.Error("OrNop(nil) did not return NopSpan")
	}
	sp := NewRecorder().Span("x")
	if OrNop(sp) != sp {
		t.Error("OrNop(sp) did not pass the span through")
	}
}

func TestRecorderAggregation(t *testing.T) {
	r := NewRecorder()
	a := r.Span("exact")
	a.Add(Nodes, 10)
	a.Add(Nodes, 5)
	a.Incumbent(9)
	a.Incumbent(3)
	a.End(OutcomeProven, 20*time.Millisecond)

	b := r.Span("milp-o/waste")
	b.Add(Pivots, 100)
	b.End(OutcomeNoSolution, -time.Millisecond)

	// Same-name spans merge counters.
	a2 := r.Span("exact")
	a2.Add(Nodes, 1)

	if got := r.TotalFor("exact", Nodes); got != 16 {
		t.Errorf("exact nodes = %d, want 16", got)
	}
	if got := r.Total(Pivots); got != 100 {
		t.Errorf("total pivots = %d, want 100", got)
	}
	inc := r.Incumbents("exact")
	if len(inc) != 2 || inc[0].Objective != 9 || inc[1].Objective != 3 {
		t.Errorf("exact incumbents = %+v, want objectives [9 3]", inc)
	}
	if inc[1].At < inc[0].At {
		t.Errorf("incumbent timestamps not monotone: %v then %v", inc[0].At, inc[1].At)
	}
	end, ok := r.EndOf("exact")
	if !ok || end.Outcome != OutcomeProven || end.Slack != 20*time.Millisecond {
		t.Errorf("EndOf(exact) = %+v, %v", end, ok)
	}
	if _, ok := r.EndOf("unknown"); ok {
		t.Error("EndOf(unknown) reported a record")
	}
	names := r.SpanNames()
	if len(names) != 2 || names[0] != "exact" || names[1] != "milp-o/waste" {
		t.Errorf("SpanNames = %v", names)
	}
}

func TestRecorderIncumbentCap(t *testing.T) {
	r := NewRecorder()
	sp := r.Span("annealing/energy")
	for i := 0; i < maxIncumbentsDefault+7; i++ {
		sp.Incumbent(float64(-i))
	}
	if got := len(r.Incumbents("")); got != maxIncumbentsDefault {
		t.Errorf("stored %d incumbents, want cap %d", got, maxIncumbentsDefault)
	}
	if got := r.DroppedIncumbents(); got != 7 {
		t.Errorf("dropped = %d, want 7", got)
	}
	if tr := r.Trace(); tr.DroppedIncumbents != 7 {
		t.Errorf("trace dropped = %d, want 7", tr.DroppedIncumbents)
	}
}

// TestRecorderConcurrent drives one recorder from many goroutines (the
// parallel-exact / portfolio shape); run under -race this is the
// thread-safety contract test.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := r.Span("exact")
			for i := 0; i < 1000; i++ {
				sp.Add(Nodes, 1)
			}
			sp.Incumbent(1)
			sp.End(OutcomeSolved, 0)
		}()
	}
	wg.Wait()
	if got := r.Total(Nodes); got != 8000 {
		t.Errorf("nodes = %d, want 8000", got)
	}
	if got := len(r.Ends()); got != 8 {
		t.Errorf("ends = %d, want 8", got)
	}
}

func TestTraceShape(t *testing.T) {
	r := NewRecorder()
	sp := r.Span("exact")
	sp.Add(Nodes, 3)
	sp.Add(CacheHits, 2)
	sp.Incumbent(5)
	sp.End(OutcomeProven, 10*time.Millisecond)

	tr := r.Trace()
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "exact" {
		t.Fatalf("spans = %+v", tr.Spans)
	}
	if tr.Spans[0].Outcome != string(OutcomeProven) {
		t.Errorf("outcome = %q", tr.Spans[0].Outcome)
	}
	if tr.Spans[0].Counters["nodes"] != 3 || tr.Counters["cache_hits"] != 2 {
		t.Errorf("counters = %+v / %+v", tr.Spans[0].Counters, tr.Counters)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"incumbents"`, `"objective":5`, `"spans"`, `"nodes":3`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace JSON missing %s:\n%s", want, data)
		}
	}

	table := r.Table()
	for _, want := range []string{"exact", "proven", "incumbents:"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Counters() {
		name := c.String()
		if name == "" || name == "unknown" {
			t.Errorf("counter %d has no name", c)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if Counter(200).String() != "unknown" {
		t.Error("out-of-range counter did not stringify as unknown")
	}
}

func TestSlackUntil(t *testing.T) {
	if got := SlackUntil(time.Time{}); got != 0 {
		t.Errorf("SlackUntil(zero) = %v, want 0", got)
	}
	if got := SlackUntil(time.Now().Add(time.Hour)); got < 59*time.Minute {
		t.Errorf("SlackUntil(+1h) = %v", got)
	}
	if got := SlackUntil(time.Now().Add(-time.Hour)); got > -59*time.Minute {
		t.Errorf("SlackUntil(-1h) = %v", got)
	}
}

// TestSpanDurations pins the span timing the recorder keeps: every End
// record carries its opening's start, start <= end, the duration is end
// minus start, and a span that never ends has no start or duration in
// the trace.
func TestSpanDurations(t *testing.T) {
	r := NewRecorder()
	outer := r.Span("milp-o")
	inner := r.Span("milp-o/waste")
	time.Sleep(2 * time.Millisecond)
	inner.End(OutcomeSolved, 0)
	r.Span("portfolio/straggler") // never ends
	outer.End(OutcomeProven, 0)

	ends := r.Ends()
	if len(ends) != 2 {
		t.Fatalf("ends = %+v, want 2", ends)
	}
	for _, e := range ends {
		if e.Start < 0 || e.Start > e.At {
			t.Errorf("%s: start %v not in [0, end %v]", e.Span, e.Start, e.At)
		}
		if e.Duration() != e.At-e.Start {
			t.Errorf("%s: duration %v != end-start %v", e.Span, e.Duration(), e.At-e.Start)
		}
	}
	waste, _ := r.EndOf("milp-o/waste")
	engine, _ := r.EndOf("milp-o")
	if waste.Duration() < 2*time.Millisecond {
		t.Errorf("waste duration %v shorter than its 2ms sleep", waste.Duration())
	}
	if waste.Start < engine.Start || waste.At > engine.At {
		t.Errorf("waste [%v, %v] outside its engine span [%v, %v]", waste.Start, waste.At, engine.Start, engine.At)
	}

	spans := map[string]TraceSpan{}
	for _, ts := range r.Trace().Spans {
		spans[ts.Name] = ts
	}
	for _, name := range []string{"milp-o", "milp-o/waste"} {
		ts := spans[name]
		if ts.DurationMS <= 0 || ts.StartMS > ts.EndMS {
			t.Errorf("%s trace span timing = start %g end %g duration %g", name, ts.StartMS, ts.EndMS, ts.DurationMS)
		}
		if d := ts.EndMS - ts.StartMS; d-ts.DurationMS > 1e-9 || ts.DurationMS-d > 1e-9 {
			t.Errorf("%s duration %g != end-start %g", name, ts.DurationMS, d)
		}
	}
	straggler, ok := spans["portfolio/straggler"]
	if !ok {
		t.Fatal("never-ended span missing from the trace")
	}
	if straggler.StartMS != 0 || straggler.DurationMS != 0 || straggler.EndMS != 0 {
		t.Errorf("never-ended span has timing %+v", straggler)
	}
	data, err := json.Marshal(straggler)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"start_ms", "duration_ms"} {
		if strings.Contains(string(data), key) {
			t.Errorf("never-ended span JSON carries %s: %s", key, data)
		}
	}
}
