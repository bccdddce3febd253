package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/flight"
	"repro/internal/session"
	"repro/internal/slo"
)

// syncBuffer is a race-safe log capture: handlers on several goroutines
// write, the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// postSolveWithID is postSolve with a client-supplied X-Request-ID.
func postSolveWithID(t *testing.T, client *http.Client, url, id string, req SolveRequest) (*http.Response, SolveResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set("X-Request-ID", id)
	httpResp, err := client.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp SolveResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", httpResp.StatusCode, err)
	}
	return httpResp, resp
}

// TestDebugEventsEndToEnd drives solves (fresh and cached) and a session
// batch through the daemon with sampling off (keep everything) and
// checks /debug/events exposes the full wide-event story: pipeline
// counters, request-ID propagation, budget context on solve events, and
// defrag parity (frag before/after, move counts) on session events.
func TestDebugEventsEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: 16, EventSampleRate: 1})
	client := ts.Client()

	httpResp, resp := postSolveWithID(t, client, ts.URL, "bench-client-1", SolveRequest{
		Problem: testProblem(t, 0), Engine: "exact", TimeLimitMS: 30_000,
	})
	if httpResp.StatusCode != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("solve: HTTP %d status %q", httpResp.StatusCode, resp.Status)
	}
	if got := httpResp.Header.Get("X-Request-ID"); got != "bench-client-1" {
		t.Fatalf("clean client request id not echoed: %q", got)
	}
	// Identical request: a cache hit must emit its own event.
	if code, resp := postSolve(t, client, ts.URL, SolveRequest{
		Problem: testProblem(t, 0), Engine: "exact", TimeLimitMS: 30_000,
	}); code != http.StatusOK || !resp.Cached {
		t.Fatalf("follow-up: HTTP %d cached=%v", code, resp.Cached)
	}

	info := createSession(t, client, ts.URL, CreateSessionRequest{Device: "k160t"})
	var batch SessionEventsResponse
	if code := sessionPost(t, client, ts.URL+"/v1/sessions/"+info.ID+"/events", SessionEventsRequest{
		Events: []session.Event{
			{Kind: session.Arrival, Name: "a", Req: device.Requirements{device.ClassCLB: 8}, Mode: 1},
			{Kind: session.Arrival, Name: "b", Req: device.Requirements{device.ClassCLB: 12, device.ClassBRAM: 1}, Mode: 2},
			{Kind: session.Departure, Name: "a"},
		},
	}, &batch); code != http.StatusOK {
		t.Fatalf("session batch: HTTP %d", code)
	}

	s.events.Sync()
	var out DebugEventsResponse
	if code := getJSON(t, client, ts.URL+"/debug/events?n=50", &out); code != http.StatusOK {
		t.Fatalf("/debug/events: HTTP %d", code)
	}
	if out.Stats.Emitted < 3 || out.Stats.Kept < 3 {
		t.Fatalf("pipeline stats too low: %+v", out.Stats)
	}
	var fresh, cached, sess int
	for _, ev := range out.Events {
		if ev.Trace != nil {
			t.Errorf("event %d carries a trace; events must stay lean", ev.Seq)
		}
		switch ev.Kind {
		case "solve":
			if ev.Endpoint != "/v1/solve" || ev.Engine != "exact" {
				t.Errorf("solve event mislabeled: %+v", ev)
			}
			if ev.BudgetMS != 30_000 {
				t.Errorf("solve event budget = %v, want 30000", ev.BudgetMS)
			}
			if ev.Cached {
				cached++
			} else {
				fresh++
				if ev.RequestID != "bench-client-1" {
					t.Errorf("fresh solve event request id = %q, want the client's", ev.RequestID)
				}
			}
		case "session":
			sess++
			if ev.Endpoint != "/v1/sessions/events" || ev.RequestID == "" {
				t.Errorf("session event mislabeled: %+v", ev)
			}
			st := ev.Session
			if st == nil {
				t.Fatalf("session event carries no session stats: %+v", ev)
			}
			if st.SessionID != info.ID || st.Events != 3 {
				t.Errorf("session stats = %+v, want id %s over 3 events", st, info.ID)
			}
			if st.FragBefore < 0 || st.FragAfter <= 0 {
				t.Errorf("frag before/after not captured: %+v", st)
			}
		default:
			t.Errorf("unknown event kind %q", ev.Kind)
		}
	}
	if fresh != 1 || cached != 1 || sess != 1 {
		t.Fatalf("event mix fresh/cached/session = %d/%d/%d, want 1/1/1", fresh, cached, sess)
	}

	// A hostile request ID (embedded spaces would corrupt log lines) is
	// discarded: the response carries a freshly minted hex ID instead.
	httpResp, _ = postSolveWithID(t, client, ts.URL, "evil injected id", SolveRequest{
		Problem: testProblem(t, 1), Engine: "exact", TimeLimitMS: 30_000,
	})
	if got := httpResp.Header.Get("X-Request-ID"); strings.Contains(got, "evil") || len(got) != 16 {
		t.Fatalf("hostile request id survived sanitization: %q", got)
	}
}

// TestSLOBurnAlertOverHTTP is the chaos-soak acceptance path: a fully
// failing engine drives the availability objective's burn rate far past
// the fast rule, /debug/slo reports the alert firing with the budget
// overspent, and the transition lands in the log.
func TestSLOBurnAlertOverHTTP(t *testing.T) {
	var logs syncBuffer
	_, ts := newTestServer(t, Config{
		Workers:          2,
		QueueSize:        64,
		BreakerThreshold: -1,
		Logger:           slog.New(slog.NewTextHandler(&logs, nil)),
		Solve: func(context.Context, *core.Problem, string, core.SolveOptions) (*core.Solution, error) {
			return nil, errors.New("engine exploded")
		},
	})

	const bad = 25
	for i := 0; i < bad; i++ {
		code, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{
			Problem: testProblem(t, 0), Engine: "exact", Seed: int64(i), TimeLimitMS: 30_000,
		})
		if code != http.StatusInternalServerError {
			t.Fatalf("failing solve %d: HTTP %d, want 500", i, code)
		}
	}

	var out DebugSLOResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/debug/slo", &out); code != http.StatusOK {
		t.Fatalf("/debug/slo: HTTP %d", code)
	}
	avail := findStatus(t, out, "solve-availability")
	if avail.Total < bad || avail.Good != 0 {
		t.Fatalf("availability counted %d/%d good/total, want 0/%d+", avail.Good, avail.Total, bad)
	}
	if avail.ErrorBudgetRemaining >= 0 {
		t.Fatalf("budget remaining %v after a total outage, want negative", avail.ErrorBudgetRemaining)
	}
	var fastFiring bool
	for _, a := range avail.Alerts {
		if a.Rule == "fast" && a.Firing {
			fastFiring = true
			if a.ShortBurn < a.Threshold || a.LongBurn < a.Threshold {
				t.Errorf("fast alert firing below threshold: %+v", a)
			}
		}
	}
	if !fastFiring {
		t.Fatalf("fast burn alert not firing after a total outage: %+v", avail.Alerts)
	}
	if !strings.Contains(logs.String(), "slo alert firing") {
		t.Fatal("burn-rate transition did not reach the log")
	}

	// The gauges on /metrics tell the same story.
	if v := scrapeGauge(t, ts.Client(), ts.URL, `floorpland_slo_error_budget_remaining{slo="solve-availability"}`); v >= 0 {
		t.Fatalf("metrics budget gauge = %v, want negative", v)
	}
}

// TestSLOCleanSoakKeepsBudget is the burn alert's control arm: healthy
// traffic leaves every objective's budget untouched and nothing fires.
func TestSLOCleanSoakKeepsBudget(t *testing.T) {
	var logs syncBuffer
	_, ts := newTestServer(t, Config{
		Workers:   2,
		QueueSize: 64,
		Logger:    slog.New(slog.NewTextHandler(&logs, nil)),
	})
	for i := 0; i < 10; i++ {
		code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{
			Problem: testProblem(t, i%3), Engine: "exact", TimeLimitMS: 30_000,
		})
		if code != http.StatusOK || resp.Status != "ok" {
			t.Fatalf("solve %d: HTTP %d status %q", i, code, resp.Status)
		}
	}
	var out DebugSLOResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/debug/slo", &out); code != http.StatusOK {
		t.Fatalf("/debug/slo: HTTP %d", code)
	}
	for _, st := range out.Objectives {
		if st.Objective.Endpoint == "/v1/solve" && st.Total == 0 {
			t.Errorf("%s saw no traffic", st.Objective.Name)
		}
		if st.ErrorBudgetRemaining != 1 {
			t.Errorf("%s budget remaining = %v after a clean soak, want 1", st.Objective.Name, st.ErrorBudgetRemaining)
		}
		for _, a := range st.Alerts {
			if a.Firing {
				t.Errorf("%s/%s firing on healthy traffic", st.Objective.Name, a.Rule)
			}
		}
	}
	if strings.Contains(logs.String(), "slo alert firing") {
		t.Fatal("clean soak tripped a burn alert")
	}
}

// findStatus returns the named objective's status from a /debug/slo
// reply.
func findStatus(t *testing.T, out DebugSLOResponse, name string) slo.Status {
	t.Helper()
	for _, st := range out.Objectives {
		if st.Objective.Name == name {
			return st
		}
	}
	t.Fatalf("objective %s missing from /debug/slo: %+v", name, out.Objectives)
	return slo.Status{}
}

// scrapeGauge is scrapeCounter for float-valued samples.
func scrapeGauge(t testing.TB, client *http.Client, url, name string) float64 {
	t.Helper()
	httpResp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &v); err != nil {
				t.Fatalf("parsing %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestSanitizeRequestID pins the header-vetting rules: printable ASCII
// survives (truncated), anything with spaces, control bytes or
// multi-byte runes is discarded.
func TestSanitizeRequestID(t *testing.T) {
	long := strings.Repeat("a", 100)
	cases := []struct{ in, want string }{
		{"req-42", "req-42"},
		{"", ""},
		{"has space", ""},
		{"new\nline", ""},
		{"ctrl\x01byte", ""},
		{"héllo", ""},
		{long, long[:maxRequestIDLen]},
	}
	for _, tc := range cases {
		if got := sanitizeRequestID(tc.in); got != tc.want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// captureSink keeps a copy of every exported record.
type captureSink struct {
	mu   sync.Mutex
	recs []flight.Record
}

func (c *captureSink) WriteEvent(rec *flight.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, *rec)
	return nil
}

func (c *captureSink) all() []flight.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]flight.Record(nil), c.recs...)
}

// TestExportedEventIsRingRecord: for a fresh solve, its cache hit and a
// session batch, the exported wide event is the flight ring's record
// for the same sequence — same time, same breaker snapshot, same
// sampling reason — with only the trace stripped.
func TestExportedEventIsRingRecord(t *testing.T) {
	sink := &captureSink{}
	s, ts := newTestServer(t, Config{
		Workers:         1,
		QueueSize:       8,
		Logger:          quietLogger(),
		EventSink:       sink,
		EventSampleRate: 1,
	})
	client := ts.Client()

	req := SolveRequest{Problem: testProblem(t, 0), Engine: "exact", TimeLimitMS: 30_000}
	for _, wantCached := range []bool{false, true} {
		if code, resp := postSolve(t, client, ts.URL, req); code != http.StatusOK || resp.Cached != wantCached {
			t.Fatalf("solve: HTTP %d cached=%v, want cached=%v", code, resp.Cached, wantCached)
		}
	}
	info := createSession(t, client, ts.URL, CreateSessionRequest{Device: "k160t"})
	var batch SessionEventsResponse
	if code := sessionPost(t, client, ts.URL+"/v1/sessions/"+info.ID+"/events", SessionEventsRequest{
		Events: []session.Event{{Kind: session.Arrival, Name: "a", Req: device.Requirements{device.ClassCLB: 8}, Mode: 1}},
	}, &batch); code != http.StatusOK {
		t.Fatalf("session batch: HTTP %d", code)
	}
	s.events.Sync()

	exported := sink.all()
	var fresh, cached, sess int
	for _, ev := range exported {
		ring, ok := s.flight.Get(ev.Seq)
		if !ok {
			t.Fatalf("exported seq %d is not in the flight ring", ev.Seq)
		}
		if ev.Trace != nil {
			t.Errorf("exported seq %d carries a trace", ev.Seq)
		}
		if ev.SampleReason == "" {
			t.Errorf("exported seq %d has no sample_reason", ev.Seq)
		}
		if len(ev.Breakers) == 0 {
			t.Errorf("exported seq %d has no breaker snapshot", ev.Seq)
		}
		ring.Trace = nil
		if !reflect.DeepEqual(ev, ring) {
			t.Errorf("exported seq %d differs from the ring record:\nexport %+v\nring   %+v", ev.Seq, ev, ring)
		}
		switch {
		case ev.Kind == "session":
			sess++
		case ev.Cached:
			cached++
		default:
			fresh++
		}
	}
	if fresh != 1 || cached != 1 || sess != 1 {
		t.Fatalf("exported fresh/cached/session = %d/%d/%d, want 1/1/1", fresh, cached, sess)
	}
}

// TestDebugEventsNewestFirst: /debug/events lists the flight ring newest
// first, bounded by the ring and by ?n=.
func TestDebugEventsNewestFirst(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueSize:  8,
		FlightSize: 4,
		Logger:     quietLogger(),
		Solve: func(_ context.Context, p *core.Problem, _ string, _ core.SolveOptions) (*core.Solution, error) {
			return fakeSolution(p), nil
		},
	})
	for seed := int64(0); seed < 6; seed++ {
		if code, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{
			Problem: testProblem(t, 0), Engine: "exact", Seed: seed, TimeLimitMS: 30_000,
		}); code != http.StatusOK {
			t.Fatalf("solve %d: HTTP %d", seed, code)
		}
	}
	seqs := func(query string) []int64 {
		t.Helper()
		var out DebugEventsResponse
		if code := getJSON(t, ts.Client(), ts.URL+"/debug/events"+query, &out); code != http.StatusOK {
			t.Fatalf("/debug/events%s: HTTP %d", query, code)
		}
		var got []int64
		for _, rec := range out.Events {
			got = append(got, rec.Seq)
		}
		return got
	}
	if got := seqs(""); !slices.Equal(got, []int64{6, 5, 4, 3}) {
		t.Fatalf("events = seqs %v, want [6 5 4 3] (ring bound, newest first)", got)
	}
	if got := seqs("?n=2"); !slices.Equal(got, []int64{6, 5}) {
		t.Fatalf("?n=2 = seqs %v, want [6 5]", got)
	}
}
