package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	floorplanner "repro"
	"repro/internal/device"
	"repro/internal/grid"
	"repro/internal/heuristic"
	"repro/internal/server"
	"repro/internal/session"
)

// itersPerSecond sizes each client's loop from --seconds: a loop
// iteration (one events request and one solve request) takes about
// 1/itersPerSecond s per client on a 2-core x86 host. minIters keeps at
// least 10 samples beyond every reported p99.
const (
	itersPerSecond = 350
	minIters       = 1200
)

// daemonIters is each client's loop length for a run of seconds.
func daemonIters(seconds int) int { return max(minIters, seconds*itersPerSecond) }

// daemonEnv is one started daemon with its clients' sessions created.
type daemonEnv struct {
	plans   []*clientPlan
	dir     string // durable session directory
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	ids     []string // session id per client
	stopped bool
}

// setupDaemon generates the clients' op sequences, starts an in-process
// daemon with default settings and a durable session directory, waits for
// /healthz and creates one session per client.
func setupDaemon(cfg runConfig, iters int, traced bool) (*daemonEnv, error) {
	env := &daemonEnv{}
	pool := problemPool()
	for c := 0; c < clients; c++ {
		pl, err := planClient(cfg.seed, c, iters, pool[c*poolSize:(c+1)*poolSize], traced)
		if err != nil {
			return nil, err
		}
		env.plans = append(env.plans, pl)
	}
	dir, err := os.MkdirTemp(cfg.workdir, "sessions-")
	if err != nil {
		return nil, err
	}
	env.dir = dir
	env.srv = server.New(server.Config{
		SessionDir: dir,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.discard()
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: env.srv.Handler()}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	env.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}}

	if err := env.waitHealthy(10 * time.Second); err != nil {
		env.discard()
		return nil, err
	}
	body := createSessionBody()
	for c := 0; c < clients; c++ {
		code, resp, _, err := env.post("/v1/sessions", body)
		if err != nil || code != http.StatusCreated {
			env.discard()
			return nil, fmt.Errorf("create session: status %d: %v %s", code, err, resp)
		}
		var info server.SessionInfo
		if err := json.Unmarshal(resp, &info); err != nil {
			env.discard()
			return nil, fmt.Errorf("create session: %w", err)
		}
		env.ids = append(env.ids, info.ID)
	}
	return env, nil
}

func (env *daemonEnv) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := env.client.Get(env.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after %v: %v", limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// post sends one request and returns its status, body and latency.
func (env *daemonEnv) post(path string, body []byte) (int, []byte, time.Duration, error) {
	t := time.Now()
	resp, err := env.client.Post(env.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t), err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, time.Since(t), err
}

// get fetches path and returns its status, body and latency.
func (env *daemonEnv) get(path string) (int, []byte, time.Duration, error) {
	t := time.Now()
	resp, err := env.client.Get(env.base + path)
	if err != nil {
		return 0, nil, time.Since(t), err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, time.Since(t), err
}

// stop shuts the daemon down gracefully; its sessions' final snapshots
// are flushed to the session directory, which stays for recovery.
func (env *daemonEnv) stop() error {
	if env.stopped {
		return nil
	}
	env.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if env.hs != nil {
		err = env.hs.Shutdown(ctx)
		if serr := <-env.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		env.client.CloseIdleConnections()
	}
	if cerr := env.srv.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// discard stops the daemon and deletes its session directory.
func (env *daemonEnv) discard() {
	if env.srv != nil {
		_ = env.stop() // the state is being thrown away
	}
	_ = os.RemoveAll(env.dir)
}

// clientLog is what one client saw during the timed phase.
type clientLog struct {
	eventLat  []float64 // ms per events request
	eventResp [][]byte
	solveLat  []float64 // ms per solve request
	solveResp [][]byte
	cached    []bool        // per solve request, as the reply said; set by checkDaemon
	replay    *replayResult // in-process replay of the stream; set by checkDaemon
	scrapeLat []float64
	requests  int
	failed    []string
}

func (cl *clientLog) fail(format string, args ...any) {
	cl.failed = append(cl.failed, fmt.Sprintf(format, args...))
}

// runClient is one closed-loop client: per iteration an events request,
// then a solve request, and every scrapeEvery iterations a /metrics
// scrape. It waits for each reply before sending the next request.
func (env *daemonEnv) runClient(c int) *clientLog {
	pl := env.plans[c]
	cl := &clientLog{}
	eventsPath := "/v1/sessions/" + env.ids[c] + "/events"
	for i, batch := range pl.batches {
		code, body, d, err := env.post(eventsPath, batch)
		cl.requests++
		cl.eventLat = append(cl.eventLat, ms(d))
		cl.eventResp = append(cl.eventResp, body)
		if err != nil || code != http.StatusOK {
			cl.fail("client %d events %d: status %d: %v", c, i, code, err)
		}
		code, body, d, err = env.post("/v1/solve", pl.bodies[pl.draws[i]])
		cl.requests++
		cl.solveLat = append(cl.solveLat, ms(d))
		cl.solveResp = append(cl.solveResp, body)
		if err != nil || code != http.StatusOK {
			cl.fail("client %d solve %d: status %d: %v", c, i, code, err)
		}
		if i%scrapeEvery == scrapeEvery-1 {
			code, _, d, err = env.get("/metrics")
			cl.requests++
			cl.scrapeLat = append(cl.scrapeLat, ms(d))
			if err != nil || code != http.StatusOK {
				cl.fail("client %d scrape %d: status %d: %v", c, i, code, err)
			}
		}
	}
	return cl
}

// daemonPhase is one timed phase over all clients.
type daemonPhase struct {
	logs []*clientLog
	wall time.Duration
	heap float64
	kb   float64 // KiB allocated per request
}

func (env *daemonEnv) runTimed() *daemonPhase {
	ph := &daemonPhase{logs: make([]*clientLog, clients)}
	hp := startHeapPeak(10 * time.Millisecond)
	a0 := allocBytes()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ph.logs[c] = env.runClient(c)
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.kb = float64(allocBytes()-a0) / 1024 / float64(ph.requests())
	ph.heap = hp.Stop()
	return ph
}

func (ph *daemonPhase) requests() int {
	n := 0
	for _, cl := range ph.logs {
		n += cl.requests
	}
	return n
}

// pooled concatenates one latency class over all clients.
func (ph *daemonPhase) pooled(pick func(*clientLog) []float64) []float64 {
	var out []float64
	for _, cl := range ph.logs {
		out = append(out, pick(cl)...)
	}
	return out
}

func runDaemonMixed(cfg runConfig) (*outcome, error) {
	iters := daemonIters(cfg.seconds)
	var env *daemonEnv
	setups := make([]float64, 0, setupReps)
	for k := 0; k < setupReps; k++ {
		if env != nil {
			env.discard()
			runtime.GC() // start each repetition from the same heap
		}
		t := time.Now()
		if k == 0 {
			t = processStart
		}
		var err error
		if env, err = setupDaemon(cfg, iters, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer env.discard()

	out := newOutcome()
	ph := env.runTimed()
	out.attempted = ph.requests()
	counters, err := env.scrapeCounters()
	if err != nil {
		return nil, err
	}
	if err := env.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}
	if err := checkDaemon(out, env, ph); err != nil {
		return nil, err
	}

	var misses []float64
	for _, cl := range ph.logs {
		for i, cached := range cl.cached {
			if !cached {
				misses = append(misses, cl.solveLat[i])
			}
		}
	}
	solveLat := ph.pooled(func(cl *clientLog) []float64 { return cl.solveLat })
	p50, ok := percentile(solveLat, 0.5)
	if !ok {
		return nil, fmt.Errorf("too few solve requests (%d) for a median", len(solveLat))
	}
	opsPerS := float64(ph.requests()) / ph.wall.Seconds()
	fmt.Fprintf(os.Stderr, "daemon-mixed: %d requests (%d solve misses) in %.2f s\n", ph.requests(), len(misses), ph.wall.Seconds())
	out.values["setup_s"] = median(setups)
	out.values["ops_per_s"] = opsPerS
	out.values["solve_ms_sgm"] = sgm(misses)
	out.values["client.solve_ms_p50"] = p50
	out.values["heap_peak_mb"] = ph.heap
	out.values["alloc_kb_per_op"] = ph.kb

	if cfg.trace {
		if err := traceDaemon(out, cfg, iters, env.plans, ph, counters, opsPerS); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scrapeCounters reads the daemon's /metrics counters into a map.
func (env *daemonEnv) scrapeCounters() (map[string]float64, error) {
	code, body, _, err := env.get("/metrics")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d: %v", code, err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// sessionConfig is the session configuration the daemon builds from
// createSessionBody, for in-process replays.
func sessionConfig(store *session.Store) session.Config {
	return session.Config{
		Device:      device.VirtexFX70T(),
		Engine:      &heuristic.Constructive{},
		SolveBudget: sessionBudgetMS * time.Millisecond,
		Store:       store,
	}
}

// layoutChange is one area a replayed event freed or occupied.
type layoutChange struct {
	rect   grid.Rect
	insert bool
}

// replayResult is an in-process replay of one client's event stream.
type replayResult struct {
	results []*session.EventResult
	applyMS []float64
	changes [][]layoutChange // per event, when captured
	mgr     *session.Manager
}

// replayStream applies the stream to a fresh session, timing each Apply.
// With capture it also records, untimed, the areas each event freed and
// occupied, moves by defragmentation included.
func replayStream(stream []session.Event, store *session.Store, capture bool) (*replayResult, error) {
	mgr, err := session.New(sessionConfig(store))
	if err != nil {
		return nil, err
	}
	rr := &replayResult{mgr: mgr}
	live := map[string]grid.Rect{}
	for _, ev := range stream {
		t := time.Now()
		res, err := mgr.Apply(ev)
		rr.applyMS = append(rr.applyMS, ms(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("replay %s %s: %w", ev.Kind, ev.Name, err)
		}
		rr.results = append(rr.results, res)
		if capture {
			rr.changes = append(rr.changes, layoutDiff(live, mgr.Snapshot().Live))
		}
	}
	return rr, nil
}

// layoutDiff updates live to now and returns the areas freed, then the
// areas occupied.
func layoutDiff(live map[string]grid.Rect, now []session.ModuleInfo) []layoutChange {
	cur := make(map[string]grid.Rect, len(now))
	for _, m := range now {
		cur[m.Name] = m.Rect
	}
	var out []layoutChange
	for name, r := range live {
		if c, ok := cur[name]; !ok || c != r {
			out = append(out, layoutChange{rect: r})
			delete(live, name)
		}
	}
	for name, r := range cur {
		if _, ok := live[name]; !ok {
			out = append(out, layoutChange{rect: r, insert: true})
			live[name] = r
		}
	}
	return out
}

// checkDaemon verifies every response of the timed phase. Each solve
// answer must validate against its problem, be proven, and match an
// in-process exact solve of the same problem; each events reply must
// equal an in-process replay of the stream, event by event; each session
// must end with zero corrupted frames, and its durable state, recovered
// from the session directory, must have the replay's frame digest. It
// records which solve replies came from the cache.
func checkDaemon(out *outcome, env *daemonEnv, ph *daemonPhase) error {
	for c, cl := range ph.logs {
		pl := env.plans[c]
		for _, f := range cl.failed {
			out.fail("%s", f)
		}
		refs := make([]float64, len(pl.pool))
		fresh := problemPool()[c*poolSize:]
		for k, p := range pl.pool {
			sol, err := floorplanner.Solve(context.Background(), fresh[k], floorplanner.Options{Engine: "exact", Workers: 1})
			if err != nil {
				return fmt.Errorf("reference solve of pool problem %d: %w", k, err)
			}
			refs[k] = sol.Objective(p)
		}
		cl.cached = make([]bool, len(cl.solveResp))
		for i, body := range cl.solveResp {
			k := pl.draws[i]
			var r server.SolveResponse
			if err := json.Unmarshal(body, &r); err != nil {
				out.fail("client %d solve %d: bad reply: %v", c, i, err)
				continue
			}
			cl.cached[i] = r.Cached
			p := pl.pool[k]
			switch {
			case r.Status != "ok" || r.Solution == nil:
				out.fail("client %d solve %d: status %q %s", c, i, r.Status, r.Error)
			case r.Solution.Validate(p) != nil:
				out.fail("client %d solve %d: invalid solution: %v", c, i, r.Solution.Validate(p))
			case !r.Solution.Proven:
				out.fail("client %d solve %d: not proven", c, i)
			case !sameObjective(r.Solution.Objective(p), refs[k]):
				out.fail("client %d solve %d: objective %.10g, in-process %.10g", c, i, r.Solution.Objective(p), refs[k])
			}
		}

		rr, err := replayStream(pl.stream, nil, true)
		if err != nil {
			return err
		}
		cl.replay = rr
		j := 0
		for i, body := range cl.eventResp {
			var r server.SessionEventsResponse
			if err := json.Unmarshal(body, &r); err != nil || len(r.Results) != batchEvents {
				out.fail("client %d events %d: bad reply (%d results): %v", c, i, len(r.Results), err)
				j += batchEvents
				continue
			}
			for _, got := range r.Results {
				want := rr.results[j]
				j++
				if got.Placed != want.Placed || got.Rejected != want.Rejected || got.Rect != want.Rect ||
					got.Fragmentation != want.Fragmentation || (got.Defrag == nil) != (want.Defrag == nil) {
					out.fail("client %d event %d (%s %s): daemon placed=%v rect=%v, replay placed=%v rect=%v",
						c, want.Seq, want.Event.Kind, want.Event.Name, got.Placed, got.Rect, want.Placed, want.Rect)
				}
			}
		}
		if st := rr.mgr.Stats(); st.CorruptedFrames != 0 {
			out.fail("client %d: replay corrupted %d frames", c, st.CorruptedFrames)
		}
		digest, corrupted, err := recoverDigest(filepath.Join(env.dir, env.ids[c]))
		if err != nil {
			out.fail("client %d: recovering session %s: %v", c, env.ids[c], err)
			continue
		}
		if corrupted != 0 {
			out.fail("client %d: daemon session corrupted %d frames", c, corrupted)
		}
		if want := rr.mgr.FrameDigest(); digest != want {
			out.fail("client %d: recovered frame digest %08x, replay %08x", c, digest, want)
		}
	}
	return nil
}

// recoverDigest restores a stopped daemon's session from its durable
// directory and returns its frame digest and corrupted-frame count.
func recoverDigest(dir string) (uint32, int, error) {
	store, err := session.OpenStore(dir)
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	lr, err := store.Load()
	if err != nil {
		return 0, 0, err
	}
	mgr, _, err := session.Restore(sessionConfig(store), lr)
	if err != nil {
		return 0, 0, err
	}
	return mgr.FrameDigest(), mgr.Stats().CorruptedFrames, nil
}

// traceDaemon fills the daemon's per-layer metrics: client-side tail
// latencies, a traced second phase for the tracing overhead, server
// counters, the JSON and validation calls a solve request makes, and
// in-process session replays bucketed by what each event did.
func traceDaemon(out *outcome, cfg runConfig, iters int, plans []*clientPlan, ph *daemonPhase, counters map[string]float64, opsPerS float64) error {
	eventLat := ph.pooled(func(cl *clientLog) []float64 { return cl.eventLat })
	solveLat := ph.pooled(func(cl *clientLog) []float64 { return cl.solveLat })
	for name, q := range map[string]struct {
		xs []float64
		q  float64
	}{
		"client.solve_ms_p99": {solveLat, 0.99},
		"client.event_ms_p50": {eventLat, 0.5},
		"client.event_ms_p99": {eventLat, 0.99},
	} {
		v, ok := percentile(q.xs, q.q)
		if !ok {
			return fmt.Errorf("%s: %d samples leave fewer than %d beyond it", name, len(q.xs), minTail)
		}
		out.values[name] = v
	}
	out.values["server.scrape_ms"] = median(ph.pooled(func(cl *clientLog) []float64 { return cl.scrapeLat }))
	hits, misses := counters["floorpland_cache_hits_total"], counters["floorpland_cache_misses_total"]
	if hits+misses > 0 {
		out.values["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	out.values["server.queue_rejected"] = counters["floorpland_queue_rejected_total"]

	// Traced phase: the same kind of op sequence, half as long to keep
	// the traced run well inside its time limit, with "trace": true on
	// every solve, so the daemon records and returns the engine trace.
	env, err := setupDaemon(cfg, max(minIters, iters/2), true)
	if err != nil {
		return err
	}
	tph := env.runTimed()
	env.discard()
	out.values["trace.overhead_pct"] = (opsPerS*tph.wall.Seconds()/float64(tph.requests()) - 1) * 100

	// Request path of a solve, replayed per pool problem.
	var decode, validate, encode, engine []float64
	var hitSelf, missSelf []float64
	for _, pl := range plans {
		for _, body := range pl.bodies {
			t := time.Now()
			var req server.SolveRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			decode = append(decode, ms(time.Since(t)))
			t = time.Now()
			if err := req.Problem.Validate(); err != nil {
				return err
			}
			validate = append(validate, ms(time.Since(t)))
			t = time.Now()
			sol, err := floorplanner.Solve(context.Background(), req.Problem, floorplanner.Options{Engine: "exact", Workers: 1})
			if err != nil {
				return err
			}
			engine = append(engine, ms(time.Since(t)))
			obj := sol.Objective(req.Problem)
			m := sol.Metrics(req.Problem)
			t = time.Now()
			if _, err := json.Marshal(server.SolveResponse{Status: "ok", Engine: sol.Engine, Solution: sol, Metrics: &m, Objective: &obj}); err != nil {
				return err
			}
			encode = append(encode, ms(time.Since(t)))
		}
	}
	out.values["server.decode_ms"] = median(decode)
	out.values["core.validate_problem_ms"] = median(validate)
	out.values["server.encode_ms"] = median(encode)
	request := median(decode) + median(validate) + median(encode)
	for c, cl := range ph.logs {
		for i, cached := range cl.cached {
			if cached {
				hitSelf = append(hitSelf, cl.solveLat[i]-request)
			} else {
				missSelf = append(missSelf, cl.solveLat[i]-request-engine[c*poolSize+plans[c].draws[i]])
			}
		}
	}
	out.values["server.self_ms.solve_hit"] = median(hitSelf)
	out.values["server.self_ms.solve_miss"] = median(missSelf)

	return traceSessions(out, cfg, plans, ph, eventLat)
}

// eventBucket names what an applied event did, for per-bucket timings.
func eventBucket(res *session.EventResult) string {
	switch {
	case res.Defrag != nil:
		return "defrag"
	case res.Event.Kind == session.Departure:
		return "departure"
	case res.Rejected:
		return "rejected"
	case res.Fallback:
		return "fallback"
	}
	return "greedy"
}

// traceSessions reads each client's in-memory replay (per-event Apply
// timings by bucket and the session counters), replays the stream once
// more with a durable store (the write-ahead-log cost per event), and
// drives a separate free-space structure through the replay's layout
// changes (the maximal-empty-rectangle cost per event).
func traceSessions(out *outcome, cfg runConfig, plans []*clientPlan, ph *daemonPhase, eventLat []float64) error {
	sums, counts := map[string]float64{}, map[string]float64{}
	var events, arrivals, placed, burns, fragSum, plainMS, durableMS float64
	var fsMS, merSum float64
	var decode, encode, batchApply []float64
	for c, pl := range plans {
		rr := ph.logs[c].replay
		for i, res := range rr.results {
			b := eventBucket(res)
			sums[b] += rr.applyMS[i]
			counts[b]++
			plainMS += rr.applyMS[i]
			fragSum += res.Fragmentation
			if rr.applyMS[i] >= sessionBudgetMS {
				burns++
			}
		}
		st, rc := rr.mgr.Stats(), rr.mgr.ReconfigStats()
		events += float64(st.Events)
		arrivals += float64(st.Arrivals)
		placed += float64(st.Placed)
		out.values["session.defrag_cycles"] += float64(st.DefragCycles)
		out.values["session.defrag_moves"] += float64(st.DefragMoves)
		out.values["reconfig.frames_written"] += float64(rc.FramesWritten)
		out.values["reconfig.busy_ms"] += ms(rc.BusyTime)

		dir, err := os.MkdirTemp(cfg.workdir, "replay-")
		if err != nil {
			return err
		}
		store, err := session.OpenStore(dir)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		dr, err := replayStream(pl.stream, store, false)
		store.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		for i, x := range dr.applyMS {
			durableMS += x
			if i%batchEvents == batchEvents-1 {
				var sum float64
				for _, y := range dr.applyMS[i+1-batchEvents : i+1] {
					sum += y
				}
				batchApply = append(batchApply, sum)
			}
		}
		for i, body := range pl.batches {
			t := time.Now()
			var req server.SessionEventsRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			decode = append(decode, ms(time.Since(t)))
			resp := server.SessionEventsResponse{}
			for _, r := range dr.results[i*batchEvents : (i+1)*batchEvents] {
				resp.Results = append(resp.Results, *r)
			}
			t = time.Now()
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
			encode = append(encode, ms(time.Since(t)))
		}

		fs := session.NewFreeSpace(device.VirtexFX70T())
		for _, changes := range rr.changes {
			t := time.Now()
			for _, ch := range changes {
				if !ch.insert {
					fs.Remove(ch.rect)
				} else if err := fs.Insert(ch.rect); err != nil {
					return fmt.Errorf("free-space replay: %w", err)
				}
			}
			_ = fs.Fragmentation()
			fsMS += ms(time.Since(t))
			merSum += float64(len(fs.MERs()))
		}
	}
	for _, b := range []string{"greedy", "fallback", "rejected", "defrag", "departure"} {
		out.values["session.count."+b] = counts[b]
		if counts[b] > 0 {
			out.values["session.apply_ms."+b] = sums[b] / counts[b]
		}
	}
	out.values["session.budget_burn_events"] = burns
	out.values["session.wal_ms_per_event"] = (durableMS - plainMS) / events
	out.values["session.freespace_ms"] = fsMS / events
	out.values["session.mer_count"] = merSum / events
	out.values["session.placement_ratio"] = placed / arrivals
	out.values["session.frag_mean"] = fragSum / events
	out.values["reconfig.ms_per_event"] = out.values["reconfig.busy_ms"] / events
	out.values["server.self_ms.event"] = median(eventLat) - median(batchApply) - median(decode) - median(encode)
	return nil
}
