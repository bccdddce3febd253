package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/guard"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

// TestConcurrentSolvesSharedThroughCache is the acceptance scenario: many
// concurrent requests over a small set of repeated problems, served under
// the race detector, with exactly one underlying solve per unique problem
// (asserted via /metrics) and every response carrying a valid floorplan.
func TestConcurrentSolvesSharedThroughCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueSize: 256, CacheSize: 64})

	const unique = 3
	const requests = 60
	problems := make([]*core.Problem, unique)
	for i := range problems {
		problems[i] = testProblem(t, i)
	}

	var wg sync.WaitGroup
	var okCount atomic.Int64
	for i := 0; i < requests; i++ {
		p := problems[i%unique]
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{
				Problem:     p,
				Engine:      "exact",
				TimeLimitMS: 30_000,
				Workers:     2, // exercises the parallel exact engine concurrently
			})
			if code != http.StatusOK || resp.Status != "ok" {
				t.Errorf("HTTP %d, status %q (%s)", code, resp.Status, resp.Error)
				return
			}
			if resp.Solution == nil {
				t.Error("status ok without a solution")
				return
			}
			if err := resp.Solution.Validate(p); err != nil {
				t.Errorf("returned floorplan invalid: %v", err)
				return
			}
			okCount.Add(1)
		}()
	}
	wg.Wait()
	if n := okCount.Load(); n != requests {
		t.Fatalf("%d/%d requests succeeded", n, requests)
	}

	started := scrapeCounter(t, ts.Client(), ts.URL, "floorpland_solves_started_total")
	if started != unique {
		t.Fatalf("solves_started_total = %d, want exactly %d (one per unique problem)", started, unique)
	}
	completed := scrapeCounter(t, ts.Client(), ts.URL, "floorpland_solves_completed_total")
	if completed != unique {
		t.Fatalf("solves_completed_total = %d, want %d", completed, unique)
	}
	hits := scrapeCounter(t, ts.Client(), ts.URL, "floorpland_cache_hits_total")
	deduped := scrapeCounter(t, ts.Client(), ts.URL, "floorpland_dedup_joined_total")
	if hits+deduped != requests-unique {
		t.Fatalf("cache_hits (%d) + dedup_joined (%d) = %d, want %d",
			hits, deduped, hits+deduped, requests-unique)
	}

	// A later identical request is a straight cache hit.
	code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{
		Problem: problems[0], Engine: "exact", TimeLimitMS: 30_000, Workers: 2,
	})
	if code != http.StatusOK || !resp.Cached {
		t.Fatalf("follow-up request: HTTP %d cached=%v, want cache hit", code, resp.Cached)
	}
	if got := scrapeCounter(t, ts.Client(), ts.URL, "floorpland_solves_started_total"); got != unique {
		t.Fatalf("follow-up request triggered a solve: started=%d", got)
	}
}

// TestQueueOverflowReturns429 drives a single-worker, single-slot server
// past capacity and expects backpressure, not queueing.
func TestQueueOverflowReturns429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s, ts := newTestServer(t, Config{
		Workers:   1,
		QueueSize: 1,
		Solve: func(ctx context.Context, p *core.Problem, engine string, opts core.SolveOptions) (*core.Solution, error) {
			started <- struct{}{}
			select {
			case <-release:
				return fakeSolution(p), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})

	results := make(chan SolveResponse, 2)
	codes := make(chan int, 2)
	post := func(i int) {
		code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: testProblem(t, i)})
		codes <- code
		results <- resp
	}

	go post(0)
	<-started // first request is solving
	go post(1)
	// Wait until the second request is queued behind the busy worker.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue is full: the third distinct request must bounce.
	body := `{"problem":` + mustJSON(t, testProblem(t, 2)) + `}`
	httpResp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", httpResp.StatusCode)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("blocked request finished with HTTP %d", code)
		}
		<-results
	}
	if rejected := scrapeCounter(t, ts.Client(), ts.URL, "floorpland_queue_rejected_total"); rejected != 1 {
		t.Fatalf("queue_rejected_total = %d, want 1", rejected)
	}
}

// TestDedupSharesInFlightSolve has two identical requests race: the
// second must join the first solve rather than start its own.
func TestDedupSharesInFlightSolve(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	var calls atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers:   2,
		QueueSize: 8,
		Solve: func(ctx context.Context, p *core.Problem, engine string, opts core.SolveOptions) (*core.Solution, error) {
			calls.Add(1)
			started <- struct{}{}
			<-release
			return fakeSolution(p), nil
		},
	})

	p := testProblem(t, 0)
	var wg sync.WaitGroup
	dedupedCount := atomic.Int64{}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: p})
			if code != http.StatusOK || resp.Status != "ok" {
				t.Errorf("HTTP %d status %q", code, resp.Status)
			}
			if resp.Deduped {
				dedupedCount.Add(1)
			}
		}()
	}
	<-started // leader is inside the solver
	// Let the follower reach the flight group before releasing; the
	// counters below verify it joined rather than solved.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("solver ran %d times for identical concurrent requests, want 1", n)
	}
	if n := dedupedCount.Load(); n != 1 {
		t.Fatalf("%d responses marked deduped, want 1", n)
	}
}

func TestGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := New(Config{
		Workers:   1,
		QueueSize: 1,
		Solve: func(ctx context.Context, p *core.Problem, engine string, opts core.SolveOptions) (*core.Solution, error) {
			started <- struct{}{}
			<-release
			return fakeSolution(p), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		resp SolveResponse
	}
	inflight := make(chan result, 1)
	queued := make(chan result, 1)
	go func() {
		code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: testProblem(t, 0)})
		inflight <- result{code, resp}
	}()
	<-started
	go func() {
		code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: testProblem(t, 1)})
		queued <- result{code, resp}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Close reach the pool stop signal

	// New work is refused while draining.
	code, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: testProblem(t, 2)})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request during shutdown: HTTP %d, want 503", code)
	}

	close(release) // drain the in-flight solve
	r := <-inflight
	if r.code != http.StatusOK || r.resp.Status != "ok" {
		t.Fatalf("in-flight solve not drained: HTTP %d status %q", r.code, r.resp.Status)
	}
	q := <-queued
	if q.code != http.StatusServiceUnavailable {
		t.Fatalf("queued solve: HTTP %d, want 503 (canceled by shutdown)", q.code)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	httpResp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: HTTP %d, want 503", httpResp.StatusCode)
	}
}

func TestInfeasibleIsCached(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, Config{
		Solve: func(ctx context.Context, p *core.Problem, engine string, opts core.SolveOptions) (*core.Solution, error) {
			calls.Add(1)
			return nil, core.ErrInfeasible
		},
	})
	p := testProblem(t, 0)
	for i := 0; i < 2; i++ {
		code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: p})
		if code != http.StatusOK || resp.Status != "infeasible" {
			t.Fatalf("HTTP %d status %q, want infeasible", code, resp.Status)
		}
		if (i == 1) != resp.Cached {
			t.Fatalf("request %d cached=%v", i, resp.Cached)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("infeasibility solved %d times, want 1 (cached)", n)
	}
}

func TestTransientFailureNotCached(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, Config{
		Solve: func(ctx context.Context, p *core.Problem, engine string, opts core.SolveOptions) (*core.Solution, error) {
			calls.Add(1)
			return nil, context.DeadlineExceeded
		},
	})
	p := testProblem(t, 0)
	for i := 0; i < 2; i++ {
		code, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: p})
		if code != http.StatusGatewayTimeout {
			t.Fatalf("HTTP %d, want 504", code)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("solver ran %d times, want 2 (timeouts are not cached)", n)
	}
}

// TestFallbackBreakersOpenIsRetryable: when the fallback chain reports
// that every member's breaker was open (no engine ran), the daemon must
// answer a retryable 503 with Retry-After — not a definitive 200
// "no_solution" — and must not cache the outcome.
func TestFallbackBreakersOpenIsRetryable(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, Config{
		Solve: func(ctx context.Context, p *core.Problem, engine string, opts core.SolveOptions) (*core.Solution, error) {
			calls.Add(1)
			return nil, fmt.Errorf("guard: no fallback member admitted a run: %w", guard.ErrBreakersOpen)
		},
	})
	p := testProblem(t, 0)
	for i := 0; i < 2; i++ {
		code, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: p})
		if code != http.StatusServiceUnavailable {
			t.Fatalf("HTTP %d, want 503", code)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("solver ran %d times, want 2 (breakers-open is not cached)", n)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"empty body", ""},
		{"not json", "{"},
		{"no problem", `{"engine":"exact"}`},
		{"invalid problem", `{"problem":{"regions":[]}}`},
		{"unknown engine", `{"problem":` + mustJSON(t, testProblem(t, 0)) + `,"engine":"nope"}`},
		{"negative time limit", `{"problem":` + mustJSON(t, testProblem(t, 0)) + `,"time_limit_ms":-1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
		})
	}

	getResp, err := ts.Client().Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: HTTP %d, want 405", getResp.StatusCode)
	}
}

func TestEnginesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/engines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out EnginesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Default != "exact" {
		t.Fatalf("default engine %q", out.Default)
	}
	found := false
	for _, e := range out.Engines {
		if e == "exact" {
			found = true
		}
	}
	if !found {
		t.Fatalf("engines %v missing exact", out.Engines)
	}
}

func TestMetricsEndpointRenders(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: testProblem(t, 0), Engine: "constructive"})
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, resp.Error)
	}
	httpResp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"floorpland_requests_total 1",
		"floorpland_solves_started_total 1",
		`floorpland_solve_seconds_bucket{engine="constructive",le="+Inf"} 1`,
		`floorpland_solve_seconds_count{engine="constructive"} 1`,
		"floorpland_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSolveMissesShareDeviceWork: every request decodes its own device,
// and the daemon swaps it for the model's canonical one, so a second
// cache miss on the same device JSON is served from the candidate lists
// the first one enumerated.
func TestSolveMissesShareDeviceWork(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, CacheSize: 8})
	p := testProblem(t, 0)
	cols := make([]device.TypeID, p.Device.Width())
	for c := range cols {
		cols[c] = p.Device.TypeAt(c, 0)
	}
	dev, err := device.NewColumnar("srvtest-intern", cols, p.Device.Height(), p.Device.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Device = dev
	const hits = "floorpland_candidate_cache_hits_total"
	for seed := int64(1); seed <= 2; seed++ {
		before := scrapeCounter(t, ts.Client(), ts.URL, hits)
		code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: p, Engine: "exact", Seed: seed})
		if code != http.StatusOK || resp.Status != "ok" || resp.Cached {
			t.Fatalf("seed %d: HTTP %d, status %q, cached %v (%s)", seed, code, resp.Status, resp.Cached, resp.Error)
		}
		gained := scrapeCounter(t, ts.Client(), ts.URL, hits) - before
		if seed == 2 && gained < int64(len(p.Regions)) {
			t.Fatalf("second miss gained %d candidate-cache hits, want at least %d", gained, len(p.Regions))
		}
	}
}
