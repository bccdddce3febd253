package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSolveTraceEndToEnd runs a real solve through the daemon with
// "trace": true and asserts the response embeds the recorded telemetry:
// an ended engine span, work counters, and an incumbent trajectory whose
// last point matches the returned objective. A repeat of the same request
// must be served from the cache with the original trace intact, and a
// repeat without the flag must omit the trace (the flag is not part of
// the cache key).
func TestSolveTraceEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeLimit: 20 * time.Second})
	t.Cleanup(func() { _ = s.Close(t.Context()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	req := SolveRequest{Problem: testProblem(t, 0), Engine: "exact", Trace: true}
	code, resp := postSolve(t, ts.Client(), ts.URL, req)
	if code != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("solve: HTTP %d status %q (%s)", code, resp.Status, resp.Error)
	}
	if resp.Trace == nil {
		t.Fatal("trace requested but response has none")
	}
	var engineSpan bool
	for _, sp := range resp.Trace.Spans {
		if sp.Name == "exact" {
			engineSpan = true
			if sp.Outcome == "" {
				t.Error("engine span has no terminal outcome")
			}
		}
	}
	if !engineSpan {
		t.Errorf("trace has no span for the engine; spans: %+v", resp.Trace.Spans)
	}
	if resp.Trace.Counters["nodes"] == 0 {
		t.Errorf("trace counters show no search nodes: %v", resp.Trace.Counters)
	}
	if len(resp.Trace.Incumbents) == 0 {
		t.Fatal("trace has no incumbent trajectory")
	}
	last := resp.Trace.Incumbents[len(resp.Trace.Incumbents)-1]
	if resp.Objective == nil || last.Objective != *resp.Objective {
		t.Errorf("final incumbent %g != returned objective %v", last.Objective, resp.Objective)
	}

	code, cachedResp := postSolve(t, ts.Client(), ts.URL, req)
	if code != http.StatusOK || !cachedResp.Cached {
		t.Fatalf("repeat solve: HTTP %d cached=%v", code, cachedResp.Cached)
	}
	if cachedResp.Trace == nil || len(cachedResp.Trace.Incumbents) != len(resp.Trace.Incumbents) {
		t.Errorf("cached response lost the trace: %+v", cachedResp.Trace)
	}

	req.Trace = false
	code, plain := postSolve(t, ts.Client(), ts.URL, req)
	if code != http.StatusOK || !plain.Cached {
		t.Fatalf("plain repeat: HTTP %d cached=%v", code, plain.Cached)
	}
	if plain.Trace != nil {
		t.Error("trace embedded without the request asking for it")
	}
}

// TestSolveTelemetryOnMetrics asserts the probe counters a real solve
// produces surface on /metrics under the requested engine's label, along
// with the process-wide candidate-cache counters.
func TestSolveTelemetryOnMetrics(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeLimit: 20 * time.Second})
	t.Cleanup(func() { _ = s.Close(t.Context()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: testProblem(t, 1), Engine: "exact"})
	if code != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("solve: HTTP %d status %q (%s)", code, resp.Status, resp.Error)
	}

	body := scrapeMetrics(t, ts)
	for _, want := range []string{
		`floorpland_engine_nodes_total{engine="exact"}`,
		`floorpland_engine_pivots_total{engine="exact"}`,
		`floorpland_engine_incumbents_total{engine="exact"}`,
		"floorpland_candidate_cache_hits_total",
		"floorpland_candidate_cache_misses_total",
		`floorpland_build_info{go_version=`,
		"floorpland_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if nodes := scrapeCounter(t, ts.Client(), ts.URL, `floorpland_engine_nodes_total{engine="exact"}`); nodes <= 0 {
		t.Errorf("engine nodes counter is %d after a real solve, want > 0", nodes)
	}
	if inc := scrapeCounter(t, ts.Client(), ts.URL, `floorpland_engine_incumbents_total{engine="exact"}`); inc <= 0 {
		t.Errorf("engine incumbents counter is %d after a real solve, want > 0", inc)
	}
}

// TestPortfolioMemberStatsOnMetrics asserts a real portfolio solve's
// stage log reaches the per-member race counters: every default member
// ran once, and the member named in the winning label won once.
func TestPortfolioMemberStatsOnMetrics(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeLimit: 20 * time.Second})
	t.Cleanup(func() { _ = s.Close(t.Context()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: testProblem(t, 1), Engine: "portfolio"})
	if code != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("solve: HTTP %d status %q (%s)", code, resp.Status, resp.Error)
	}
	for _, member := range []string{"exact", "milp-ho", "constructive", "annealing", "tessellation"} {
		if n := scrapeCounter(t, ts.Client(), ts.URL, `floorpland_portfolio_member_races_total{member="`+member+`"}`); n != 1 {
			t.Errorf("member %s ran in %d races, want 1", member, n)
		}
	}
	winner := strings.TrimSuffix(strings.TrimPrefix(resp.Engine, "portfolio("), ")")
	if n := scrapeCounter(t, ts.Client(), ts.URL, `floorpland_portfolio_member_wins_total{member="`+winner+`"}`); n != 1 {
		t.Errorf("winner %s (from %q) has %d wins, want 1", winner, resp.Engine, n)
	}
}

// TestRequestIDPropagation asserts every response carries X-Request-ID
// and that a caller-provided ID is echoed back rather than replaced.
func TestRequestIDPropagation(t *testing.T) {
	s := New(Config{Workers: 1, Solve: nil})
	t.Cleanup(func() { _ = s.Close(t.Context()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Error("response has no X-Request-ID")
	}

	httpReq, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("X-Request-ID", "caller-chosen-id")
	resp, err = ts.Client().Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id != "caller-chosen-id" {
		t.Errorf("caller-provided request ID replaced with %q", id)
	}
}

// scrapeMetrics fetches the full /metrics body.
func scrapeMetrics(t testing.TB, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSpanDurationsEndToEnd checks the recorded span timing a daemon
// solve reports: on a real milp-o solve the waste and wire passes lie
// inside the engine's span, and an exact solve's span time reaches
// floorpland_span_seconds_total under its engine and phase.
func TestSpanDurationsEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeLimit: 20 * time.Second})
	t.Cleanup(func() { _ = s.Close(t.Context()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: testProblem(t, 0), Engine: "milp-o", TimeLimitMS: 3000, Trace: true})
	if code != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("milp-o solve: HTTP %d status %q (%s)", code, resp.Status, resp.Error)
	}
	spans := map[string]obs.TraceSpan{}
	for _, sp := range resp.Trace.Spans {
		spans[sp.Name] = sp
	}
	outer, ok := spans["milp-o"]
	if !ok || outer.DurationMS <= 0 {
		t.Fatalf("milp-o span missing or without duration: %+v", resp.Trace.Spans)
	}
	for _, name := range []string{"milp-o/waste", "milp-o/wire"} {
		inner, ok := spans[name]
		if !ok || inner.DurationMS <= 0 {
			t.Fatalf("%s span missing or without duration: %+v", name, resp.Trace.Spans)
		}
		if inner.StartMS < outer.StartMS || inner.EndMS > outer.EndMS {
			t.Errorf("%s [%g, %g]ms lies outside milp-o [%g, %g]ms",
				name, inner.StartMS, inner.EndMS, outer.StartMS, outer.EndMS)
		}
	}

	if code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: testProblem(t, 1), Engine: "exact"}); code != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("exact solve: HTTP %d status %q (%s)", code, resp.Status, resp.Error)
	}
	body := scrapeMetrics(t, ts)
	for _, want := range []string{
		`floorpland_span_seconds_total{engine="exact",phase="solve"} `,
		`floorpland_span_seconds_total{engine="milp-o",phase="waste"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	if secs := scrapeGauge(t, ts.Client(), ts.URL, `floorpland_span_seconds_total{engine="exact",phase="solve"}`); secs <= 0 {
		t.Errorf("exact solve span seconds = %g, want > 0", secs)
	}
}
