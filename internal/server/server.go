// Package server implements the floorplanning service daemon: an
// HTTP/JSON front end over floorplanner.Solve that amortizes repeated
// solves and bounds concurrency.
//
// Request flow (see DESIGN.md, "The service daemon"):
//
//	POST /v1/solve
//	    → canonical hash of (problem, engine, options)      (hash.go)
//	    → LRU solution cache lookup                         (cache.go)
//	    → single-flight join of identical in-flight solves  (cache.go)
//	    → bounded worker pool with queue backpressure       (pool.go)
//	    → engine (exact, milp-o, milp-ho, heuristics)
//
// Definitive outcomes — a validated solution or a proven infeasibility —
// are cached; transient failures (timeouts, cancellations, shutdown) are
// not. When the queue is full the server answers 429 with a Retry-After
// hint instead of queueing unboundedly. /metrics exposes counters and
// per-engine latency histograms in the Prometheus text format.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/flight"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/reconfig"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// errBreakerOpen reports that the requested engine's circuit breaker is
// open: the engine failed repeatedly and is cooling down (HTTP 503).
var errBreakerOpen = errors.New("server: engine circuit breaker is open")

// SolveFunc computes a floorplan for p with the named engine. The
// default implementation dispatches through the floorplanner package;
// tests substitute controlled solvers.
type SolveFunc func(ctx context.Context, p *core.Problem, engine string, opts core.SolveOptions) (*core.Solution, error)

// Config tunes the daemon. The zero value is usable: every field has a
// production-minded default.
type Config struct {
	// Workers is the number of concurrent solves (default 2).
	Workers int
	// QueueSize bounds the solves waiting behind the workers; beyond it
	// requests get 429 (default 64).
	QueueSize int
	// CacheSize bounds the solution cache entries (default 256).
	CacheSize int
	// DefaultEngine answers requests that name no engine (default
	// "exact").
	DefaultEngine string
	// DefaultTimeLimit applies when a request names no time limit
	// (default 30s).
	DefaultTimeLimit time.Duration
	// MaxTimeLimit caps the per-request time limit (default 2m).
	MaxTimeLimit time.Duration
	// MaxSolveWorkers caps the per-solve parallelism a request may ask
	// for (default GOMAXPROCS).
	MaxSolveWorkers int
	// MaxBodyBytes caps the request body (default 8 MiB).
	MaxBodyBytes int64
	// Engines lists the accepted engine names; empty accepts any name
	// the Solve function accepts.
	Engines []string
	// FallbackChain names the engines the "fallback" meta-engine tries in
	// order (default exact, milp-ho, constructive). Used by the default
	// solver only.
	FallbackChain []string
	// BreakerThreshold is the consecutive engine failures (panics,
	// invalid solutions, unexpected errors) that open an engine's circuit
	// breaker (default 5; negative disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects requests before
	// admitting a half-open probe (default 30s).
	BreakerCooldown time.Duration
	// FlightSize bounds the flight recorder ring: the last FlightSize
	// solve, session-batch and recovery records kept for /debug/solves,
	// /debug/events and SIGUSR1 dumps (default 256).
	FlightSize int
	// MaxSessions bounds the live online-placement sessions the daemon
	// holds (default 16; see sessions.go).
	MaxSessions int
	// SessionTTL is how long an untouched session survives before lazy
	// eviction reclaims it (default 30m).
	SessionTTL time.Duration
	// SessionDir, when set, makes sessions durable: each session's WAL
	// and snapshots live under SessionDir/<id>, and New replays every
	// recoverable session found there (sessions idle past SessionTTL are
	// purged instead).
	SessionDir string
	// SessionSnapshotEvery is the WAL-records-per-snapshot cadence for
	// durable sessions (0 = session.DefaultSnapshotEvery).
	SessionSnapshotEvery int
	// SessionFaults, when non-nil, injects configuration-port faults
	// into every session's frame writes (fault soaks; see
	// reconfig.ParseFaultPlan).
	SessionFaults *reconfig.FaultPlan
	// EventSink receives the exported wide events: the flight records
	// that survive tail sampling, traces stripped; nil exports nothing
	// (the records stay in the flight ring behind /debug/events).
	EventSink telemetry.Sink
	// EventQueueSize bounds the wide-event export queue; a full queue
	// drops events instead of blocking solves (default 256).
	EventQueueSize int
	// EventSampleRate is the keep probability for unremarkable events;
	// errors, budget breaches and the slow tail are always kept
	// (default 0.1; 1 keeps everything, negative keeps only the
	// remarkable).
	EventSampleRate float64
	// SLOs overrides the tracked service-level objectives (default
	// slo.DefaultObjectives). Burn-rate alerts use slo.DefaultRules.
	SLOs []slo.Objective
	// DiagDir, when set, enables anomaly-triggered diagnostic bundles:
	// SLO alerts, budget overruns, panics/invalid solutions and reconfig
	// rollbacks each snapshot a bundle-<ts>.tar.gz there (rate-limited,
	// rotated). GET /debug/bundle works either way.
	DiagDir string
	// DiagKeep bounds the bundles kept in DiagDir (default 8).
	DiagKeep int
	// DiagMinInterval rate-limits anomaly-triggered bundles (default 1m).
	DiagMinInterval time.Duration
	// ProfileCPUDuration is the CPU-profile window a diagnostic bundle
	// captures (default 250ms).
	ProfileCPUDuration time.Duration
	// Chaos, when non-nil, injects faults (panics, invalid solutions,
	// errors, delays) around the whole dispatch path — the fire drill
	// for the guard and diag layers. See guard.ParseChaosSpec.
	Chaos *guard.ChaosConfig
	// Solve overrides the solver (tests); nil uses floorplanner.Solve.
	Solve SolveFunc
	// Logger receives structured request logs; nil uses slog.Default.
	Logger *slog.Logger
	// Version labels the floorpland_build_info metric (default "dev").
	Version string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultEngine == "" {
		c.DefaultEngine = "exact"
	}
	if c.DefaultTimeLimit <= 0 {
		c.DefaultTimeLimit = 30 * time.Second
	}
	if c.MaxTimeLimit <= 0 {
		c.MaxTimeLimit = 2 * time.Minute
	}
	if c.MaxSolveWorkers <= 0 {
		c.MaxSolveWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.FlightSize <= 0 {
		c.FlightSize = 256
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// Server is the floorplanning daemon: hash → cache → single-flight →
// worker pool → engine, with metrics over every stage.
type Server struct {
	cfg      Config
	pool     *workerPool
	cache    *lruCache
	flights  flightGroup
	flight   *flight.Recorder
	metrics  *metrics
	breakers *guard.BreakerSet // nil when breakers are disabled
	sessions *sessionRegistry
	events   *telemetry.Exporter
	slos     *slo.Tracker
	bundler  *diag.Bundler
	chaos    *guard.Chaos // nil unless Config.Chaos set
	log      *slog.Logger
	closing  atomic.Bool
}

// New builds a Server from cfg (zero value fine; see Config defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if len(cfg.Engines) == 0 && cfg.Solve == nil {
		// With the default solver the engine set is known up front, so
		// unknown names fail fast with 400 instead of a failed solve.
		cfg.Engines = defaultEngineNames()
	}
	s := &Server{
		cfg:      cfg,
		pool:     newWorkerPool(cfg.Workers, cfg.QueueSize),
		cache:    newLRUCache(cfg.CacheSize),
		flight:   flight.NewRecorder(cfg.FlightSize),
		metrics:  newMetrics(),
		sessions: newSessionRegistry(cfg.MaxSessions, cfg.SessionTTL),
		log:      cfg.Logger,
	}
	s.events = telemetry.New(telemetry.Config{
		Sink:       cfg.EventSink,
		QueueSize:  cfg.EventQueueSize,
		SampleRate: cfg.EventSampleRate,
	})
	objectives := cfg.SLOs
	if len(objectives) == 0 {
		objectives = slo.DefaultObjectives()
	}
	tracker, err := slo.New(slo.Config{Objectives: objectives, OnAlert: s.onSLOAlert})
	if err != nil {
		// A malformed custom SLO set must not take the daemon down with
		// it; run the stock objectives and say so.
		cfg.Logger.Error("invalid SLO config, using defaults", "err", err)
		tracker, _ = slo.New(slo.Config{Objectives: slo.DefaultObjectives(), OnAlert: s.onSLOAlert})
	}
	s.slos = tracker
	s.sessions.onExpire = func(ls *liveSession) {
		s.metrics.sessionsExpired.Add(1)
		// An expired session must not be resurrected by replay: its
		// durable files go with it.
		if err := ls.mgr.Discard(); err != nil {
			s.log.Error("discarding expired session state", "session_id", ls.id, "err", err)
		}
	}
	s.metrics.sessionsLive = s.sessions.live
	s.metrics.eventStats = s.events.Stats
	s.metrics.sloStatus = s.slos.Evaluate
	s.metrics.queueDepth = s.pool.queueDepth
	s.metrics.candCacheStats = core.CandCacheStats
	s.metrics.version = cfg.Version
	if cfg.BreakerThreshold > 0 {
		s.breakers = guard.NewBreakerSet(guard.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
		})
		s.metrics.breakerStats = s.breakers.Snapshot
	}
	s.pool.onPanic = func(ctx context.Context, v any, stack []byte) {
		s.metrics.poolPanics.Add(1)
		s.log.Error("panic escaped to the worker pool",
			"request_id", requestID(ctx),
			"panic", fmt.Sprint(v),
			"stack", string(stack),
		)
	}
	if cfg.Chaos != nil {
		s.chaos = guard.NewChaosInjector(*cfg.Chaos)
	}
	// Goroutine labeling switches on (process-wide) as soon as anything
	// consumes the labels: anomaly bundles' CPU profiles. Never switched
	// back off here — another server in the process may still depend on
	// it.
	if cfg.DiagDir != "" {
		diag.SetLabeling(true)
	}
	s.bundler = diag.NewBundler(diag.BundlerConfig{
		Dir:         cfg.DiagDir,
		Keep:        cfg.DiagKeep,
		MinInterval: cfg.DiagMinInterval,
		CPUDuration: cfg.ProfileCPUDuration,
		Meta: map[string]string{
			"service": "floorpland",
			"version": cfg.Version,
		},
		Artifacts: s.diagArtifacts,
		Logger:    cfg.Logger,
	})
	s.metrics.diagStats = s.bundler.Stats
	if cfg.SessionDir != "" {
		s.recoverSessions()
	}
	return s
}

// FlightRecorder returns the server's flight ring — the backing store
// of /debug/solves and /debug/events, exposed so the daemon binary can
// dump it on SIGUSR1.
func (s *Server) FlightRecorder() *flight.Recorder { return s.flight }

// Close stops admissions, drains in-flight solves and cancels queued
// ones, bounded by ctx, flushes a final snapshot for every live session
// (graceful drain — a restarted daemon replays them back), then flushes
// and closes the wide-event exporter (and its sink).
func (s *Server) Close(ctx context.Context) error {
	s.closing.Store(true)
	err := s.pool.close(ctx)
	flushed, drainErr := s.drainSessions()
	s.log.Info("session drain", "flushed", flushed)
	if err == nil {
		err = drainErr
	}
	if eerr := s.events.Close(); err == nil {
		err = eerr
	}
	// Last: in-flight anomaly bundles still read the flight ring and
	// exporter stats, both valid until here.
	s.bundler.Close()
	return err
}

// onSLOAlert is the burn-rate transition hook: fired alerts land in the
// log at warning level, resolutions at info, both carrying the burns
// that drove them.
func (s *Server) onSLOAlert(ev slo.AlertEvent) {
	if ev.Firing {
		s.log.Warn("slo alert firing",
			"objective", ev.Objective,
			"rule", ev.Rule,
			"short_burn", ev.ShortBurn,
			"long_burn", ev.LongBurn,
		)
		if s.bundler != nil {
			s.bundler.Trigger("slo-alert", fmt.Sprintf(
				"objective %s rule %s short %.2f long %.2f",
				ev.Objective, ev.Rule, ev.ShortBurn, ev.LongBurn))
		}
		return
	}
	s.log.Info("slo alert resolved",
		"objective", ev.Objective,
		"rule", ev.Rule,
		"short_burn", ev.ShortBurn,
		"long_burn", ev.LongBurn,
	)
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/engines", s.handleEngines)
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/sessions/", s.handleSession)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/solves", s.handleDebugSolves)
	mux.HandleFunc("/debug/solves/", s.handleDebugSolve)
	mux.HandleFunc("/debug/events", s.handleDebugEvents)
	mux.HandleFunc("/debug/slo", s.handleDebugSLO)
	mux.HandleFunc("/debug/bundle", s.handleDebugBundle)
	return s.logRequests(s.recoverPanics(mux))
}

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	// Problem is the floorplanning instance (floorplanner.Problem JSON).
	Problem *core.Problem `json:"problem"`
	// Engine selects the algorithm; empty uses the server default.
	Engine string `json:"engine,omitempty"`
	// TimeLimitMS bounds the solve in milliseconds; 0 uses the server
	// default, values above the server maximum are clamped.
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`
	// Seed drives randomized engines.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds per-solve parallelism; clamped to the server
	// maximum.
	Workers int `json:"workers,omitempty"`
	// Trace asks for the solve's telemetry (incumbent trajectory, work
	// counters, span outcomes) to be embedded in the response. Telemetry
	// is recorded either way; the flag only controls the response size,
	// so it is deliberately NOT part of the cache key.
	Trace bool `json:"trace,omitempty"`
}

// SolveResponse is the POST /v1/solve reply.
type SolveResponse struct {
	// Status is "ok", "infeasible", "no_solution" or "error".
	Status string `json:"status"`
	// Key is the canonical problem hash (the cache key).
	Key string `json:"key"`
	// Cached reports a solution served from the cache.
	Cached bool `json:"cached"`
	// Deduped reports a solution shared from an identical concurrent
	// request's solve.
	Deduped bool `json:"deduped,omitempty"`
	// Engine echoes the engine that produced the solution.
	Engine string `json:"engine,omitempty"`
	// Solution is the floorplan (status "ok" only).
	Solution *core.Solution `json:"solution,omitempty"`
	// Metrics are the solution's raw cost terms (status "ok" only).
	Metrics *core.Metrics `json:"metrics,omitempty"`
	// Objective is the problem objective value (status "ok" only).
	Objective *float64 `json:"objective,omitempty"`
	// Error carries detail for status "error".
	Error string `json:"error,omitempty"`
	// Trace is the solve telemetry, present when the request set
	// "trace": true and the outcome carried a recording.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// EnginesResponse is the GET /v1/engines reply.
type EnginesResponse struct {
	Engines []string `json:"engines"`
	Default string   `json:"default"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.closing.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}

	var req SolveRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if req.Problem == nil {
		s.writeError(w, http.StatusBadRequest, "request has no problem")
		return
	}
	if err := req.Problem.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid problem: "+err.Error())
		return
	}
	// Each request decodes its own device; the canonical one carries the
	// placement index and candidate-cache entries of earlier solves.
	req.Problem.Device = device.Intern(req.Problem.Device)
	engine := req.Engine
	if engine == "" {
		engine = s.cfg.DefaultEngine
	}
	if !s.engineAllowed(engine) {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown engine %q", engine))
		return
	}
	if req.TimeLimitMS < 0 || req.Workers < 0 {
		s.writeError(w, http.StatusBadRequest, "time_limit_ms and workers must be non-negative")
		return
	}

	opts := core.SolveOptions{
		TimeLimit: s.clampTimeLimit(time.Duration(req.TimeLimitMS) * time.Millisecond),
		Seed:      req.Seed,
		Workers:   min(max(req.Workers, 0), s.cfg.MaxSolveWorkers),
	}.Normalized()

	key, err := problemKey(req.Problem, engine, opts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.metrics.requests.Add(1)

	if entry, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		// A cache hit gets its own flight record, linked by OriginSeq to
		// the record of the solve that populated the entry and carrying
		// that solve's trace — never a fabricated one.
		frec := flight.Record{
			RequestDigest: guard.RequestDigest(req.Problem),
			Key:           key,
			Engine:        engine,
			Outcome:       outcomeLabel(entry.sol, entry.err),
			Cached:        true,
			OriginSeq:     entry.flightSeq,
			Trace:         entry.trace,
		}
		if entry.sol != nil {
			obj := entry.sol.Objective(req.Problem)
			frec.Objective = &obj
		}
		if entry.err != nil {
			frec.Err = entry.err.Error()
		}
		s.observeSolve(r.Context(), frec, opts.TimeLimit, entry.err)
		s.respondEntry(w, r, key, engine, req.Problem, entry, true, false, req.Trace)
		return
	}
	s.metrics.cacheMisses.Add(1)

	// The solve context bounds queue wait plus solve: the engine's own
	// TimeLimit normally fires first, the deadline is the backstop.
	solveCtx, cancel := context.WithTimeout(r.Context(), opts.TimeLimit+5*time.Second)
	defer cancel()

	entry, led, err := s.flights.do(solveCtx, key, func() cacheEntry {
		return s.runSolve(solveCtx, key, engine, req.Problem, opts)
	})
	if err != nil {
		// Follower whose own request ended while the leader kept solving.
		s.writeError(w, http.StatusGatewayTimeout, "request canceled while awaiting shared solve: "+err.Error())
		return
	}
	if !led {
		s.metrics.dedupJoined.Add(1)
	}
	s.respondEntry(w, r, key, engine, req.Problem, entry, false, !led, req.Trace)
}

// runSolve is the single-flight leader path: queue on the pool, run the
// engine under a recording probe, record metrics and telemetry, and cache
// definitive outcomes (trace included, so cached answers keep their
// trajectory).
func (s *Server) runSolve(ctx context.Context, key, engine string, p *core.Problem, opts core.SolveOptions) cacheEntry {
	started := time.Now()
	frec := flight.Record{
		RequestDigest: guard.RequestDigest(p),
		Key:           key,
		Engine:        engine,
	}
	var br *guard.Breaker
	if s.breakers != nil {
		br = s.breakers.For(engine)
		if !br.Allow() {
			s.metrics.breakerRejected.Add(1)
			frec.Outcome = outcomeLabel(nil, errBreakerOpen)
			frec.Err = errBreakerOpen.Error()
			s.observeSolve(ctx, frec, opts.TimeLimit, errBreakerOpen)
			return cacheEntry{err: errBreakerOpen}
		}
	}
	rec := obs.NewRecorder()
	// The label probe keeps the worker goroutine's pprof labels in sync
	// with the open span, so CPU samples attribute to the engine/stage
	// actually running; the join digest links samples to this record.
	labels := diag.LabelSet{
		Engine:    engine,
		Phase:     "solve",
		Endpoint:  "/v1/solve",
		Digest:    frec.RequestDigest,
		RequestID: requestID(ctx),
	}
	frec.LabelDigest = labels.JoinDigest()
	lprobe := diag.NewLabelProbe(rec)
	opts.Probe = lprobe
	// The stage log collects meta-engine member stages; the pool hands
	// this ctx to the solve, so the guard layer's collector is ours.
	ctx, stageLog := guard.WithStageLog(ctx)
	run := func(ctx context.Context) (*core.Solution, error) {
		s.metrics.solvesStarted.Add(1)
		solveStarted := time.Now()
		// Guard boundary: engine panics become structured errors and every
		// solution is re-verified before it can be cached or served —
		// regardless of which SolveFunc produced it.
		sol, err := guard.Protect(engine, p, func() (*core.Solution, error) {
			return s.dispatch(ctx, p, engine, opts)
		})
		if err == nil {
			if verr := guard.CheckSolution(engine, p, sol); verr != nil {
				sol, err = nil, verr
			}
		}
		s.metrics.observeLatency(engine, time.Since(solveStarted))
		var panicked *guard.PanicError
		var invalid *guard.InvalidSolutionError
		switch {
		case errors.As(err, &panicked):
			s.metrics.enginePanics.Add(1)
			s.log.Error("engine panicked; recovered",
				"request_id", requestID(ctx),
				"engine", engine,
				"problem", panicked.Request,
				"panic", fmt.Sprint(panicked.Value),
				"stack", string(panicked.Stack),
			)
		case errors.As(err, &invalid):
			s.metrics.invalidSolutions.Add(1)
			s.log.Error("engine solution rejected by validation",
				"request_id", requestID(ctx),
				"engine", engine,
				"err", err.Error(),
			)
		}
		if err == nil || errors.Is(err, core.ErrInfeasible) {
			s.metrics.solvesCompleted.Add(1)
		} else {
			s.metrics.solvesFailed.Add(1)
		}
		return sol, err
	}
	task, err := s.pool.submit(ctx, func(ctx context.Context) (sol *core.Solution, err error) {
		diag.Do(ctx, labels, func(ctx context.Context) {
			lprobe.Bind(ctx)
			sol, err = run(ctx)
		})
		return sol, err
	})
	if err != nil {
		if br != nil {
			// Queue-full and shutdown say nothing about engine health.
			br.Record(guard.BreakerNeutral)
		}
		if errors.Is(err, errQueueFull) {
			s.metrics.queueRejected.Add(1)
		}
		frec.Outcome = outcomeLabel(nil, err)
		frec.Err = err.Error()
		frec.DurationMS = durationMS(time.Since(started))
		s.observeSolve(ctx, frec, opts.TimeLimit, err)
		return cacheEntry{err: err}
	}
	sol, err := task.wait(ctx)
	if br != nil {
		if errors.Is(err, errShuttingDown) {
			br.Record(guard.BreakerNeutral)
		} else {
			br.Record(guard.BreakerOutcomeOf(err))
		}
	}
	nodes := rec.Total(obs.Nodes)
	pivots := rec.Total(obs.Pivots)
	incumbents := int64(len(rec.Incumbents(""))) + int64(rec.DroppedIncumbents())
	s.metrics.recordTelemetry(engine, nodes, pivots, incumbents)
	// The top-level span carries the requested engine's name; its first
	// and latest incumbents give time-to-first/best (objectives within a
	// span are nonincreasing, so latest == best).
	if first, best, ok := rec.IncumbentTimes(engine); ok {
		s.metrics.recordIncumbentTimes(engine, first, best)
	}
	for _, end := range rec.Ends() {
		s.metrics.addSpanSeconds(end.Span, end.Duration())
	}
	s.log.Info("solve telemetry",
		"request_id", requestID(ctx),
		"key", key,
		"engine", engine,
		"nodes", nodes,
		"pivots", pivots,
		"incumbents", incumbents,
		"outcome", outcomeLabel(sol, err),
	)
	frec.Outcome = outcomeLabel(sol, err)
	// Duration is measured here, not in the pool closure: wait can return
	// early on context expiry while the closure still runs, and closure
	// state must not be read after an early return.
	frec.DurationMS = durationMS(time.Since(started))
	if sol != nil {
		obj := sol.Objective(p)
		frec.Objective = &obj
	}
	if err != nil {
		frec.Err = err.Error()
	}
	frec.Stages = stageLog.Stages()
	if engine == "portfolio" {
		winner := ""
		if sol != nil {
			winner = sol.Engine
		}
		s.metrics.recordRace(frec.Stages, winner)
	}
	frec.Trace = rec.Trace()
	seq := s.observeSolve(ctx, frec, opts.TimeLimit, err)
	entry := cacheEntry{sol: sol, err: err, trace: frec.Trace, flightSeq: seq}
	if err == nil || errors.Is(err, core.ErrInfeasible) {
		s.cache.put(key, entry)
	}
	return entry
}

// record is the one place a daemon record is finished: it stamps the
// time and the breaker snapshots, makes the export's sampling decision,
// appends the record to the flight ring, hands the same record to the
// exporter and checks it for anomaly-bundle triggers. It returns the
// assigned sequence number.
func (s *Server) record(rec flight.Record) int64 {
	rec.Time = time.Now()
	if s.breakers != nil {
		for _, bs := range s.breakers.Snapshot() {
			rec.Breakers = append(rec.Breakers, flight.Breaker{
				Engine: bs.Name,
				State:  bs.State.String(),
				Trips:  bs.Trips,
			})
		}
	}
	s.events.Sample(&rec)
	rec.Seq = s.flight.Record(rec)
	s.events.Export(rec)
	s.triggerDiag(rec)
	return rec.Seq
}

// observeSolve records one finished solve with its serving context and
// feeds it to the SLO tracker, returning the record's sequence number.
func (s *Server) observeSolve(ctx context.Context, frec flight.Record, budget time.Duration, err error) int64 {
	frec.Kind = "solve"
	frec.Endpoint = "/v1/solve"
	frec.RequestID = requestID(ctx)
	frec.BudgetMS = durationMS(budget)
	// Overrun is measured against the same tolerance the SLO's
	// budget-relative latency objective uses, so the two never disagree
	// about whether a solve blew its deadline.
	if over := frec.DurationMS - frec.BudgetMS - durationMS(slo.BudgetEpsilon); over > 0 && !frec.Cached {
		frec.BudgetOverrunMS = over
	}
	seq := s.record(frec)
	if failed, counted := sloCounts(err); counted {
		s.slos.Record(slo.Sample{
			Engine:   frec.Engine,
			Endpoint: "/v1/solve",
			Failed:   failed,
			Duration: time.Duration(frec.DurationMS * float64(time.Millisecond)),
			Budget:   budget,
		})
	}
	return seq
}

// sloCounts classifies a solve error for the SLO tracker: failed says
// whether the request burns error budget, counted whether it enters the
// denominator at all. Definitive answers (including proven infeasibility
// and an honest "no solution in budget") are good service. Load-shed,
// shutdown and client-canceled requests are excluded entirely — they say
// nothing about whether the service is meeting its objectives. Everything
// else (engine errors, panics, invalid solutions, open breakers,
// deadline blowouts) burns budget.
func sloCounts(err error) (failed, counted bool) {
	switch {
	case err == nil,
		errors.Is(err, core.ErrInfeasible),
		errors.Is(err, core.ErrNoSolution):
		return false, true
	case errors.Is(err, errQueueFull),
		errors.Is(err, errShuttingDown),
		errors.Is(err, context.Canceled):
		return false, false
	default:
		return true, true
	}
}

// durationMS converts a duration to float milliseconds for wire records.
func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// outcomeLabel names a solve outcome for the telemetry log line.
func outcomeLabel(sol *core.Solution, err error) string {
	return string(core.ObsOutcome(sol, err))
}

// dispatch runs the configured solver, with the chaos injector (when
// enabled) applying its scheduled fault around the whole path — inside
// the guard boundary, so injected panics and poison solutions exercise
// the same recovery the real thing would.
func (s *Server) dispatch(ctx context.Context, p *core.Problem, engine string, opts core.SolveOptions) (*core.Solution, error) {
	if s.chaos != nil {
		return s.chaos.Apply(ctx, p, func(ctx context.Context) (*core.Solution, error) {
			return s.solve(ctx, p, engine, opts)
		})
	}
	return s.solve(ctx, p, engine, opts)
}

func (s *Server) solve(ctx context.Context, p *core.Problem, engine string, opts core.SolveOptions) (*core.Solution, error) {
	if s.cfg.Solve != nil {
		return s.cfg.Solve(ctx, p, engine, opts)
	}
	if engine == "fallback" {
		return defaultFallbackSolve(ctx, p, s.cfg.FallbackChain, opts)
	}
	return defaultSolve(ctx, p, engine, opts)
}

// respondEntry translates a solve outcome into the HTTP reply. wantTrace
// embeds the recorded telemetry on the definitive statuses.
func (s *Server) respondEntry(w http.ResponseWriter, r *http.Request, key, engine string, p *core.Problem, entry cacheEntry, cached, deduped, wantTrace bool) {
	resp := SolveResponse{Key: key, Cached: cached, Deduped: deduped}
	if wantTrace {
		resp.Trace = entry.trace
	}
	switch {
	case entry.err == nil && entry.sol != nil:
		resp.Status = "ok"
		resp.Engine = entry.sol.Engine
		resp.Solution = entry.sol
		m := entry.sol.Metrics(p)
		resp.Metrics = &m
		obj := entry.sol.Objective(p)
		resp.Objective = &obj
		s.writeJSON(w, http.StatusOK, resp)
	case errors.Is(entry.err, core.ErrInfeasible):
		resp.Status = "infeasible"
		resp.Engine = engine
		s.writeJSON(w, http.StatusOK, resp)
	case errors.Is(entry.err, core.ErrNoSolution):
		resp.Status = "no_solution"
		resp.Engine = engine
		resp.Error = "no solution found within the time limit"
		s.writeJSON(w, http.StatusOK, resp)
	case errors.Is(entry.err, errQueueFull):
		w.Header().Set("Retry-After", s.retryAfter())
		s.writeError(w, http.StatusTooManyRequests, "solve queue is full, retry later")
	case errors.Is(entry.err, errBreakerOpen), errors.Is(entry.err, guard.ErrBreakersOpen):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.BreakerCooldown/time.Second)+1))
		s.writeError(w, http.StatusServiceUnavailable, "engine disabled after repeated failures, retry later")
	case errors.Is(entry.err, errShuttingDown):
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
	case errors.Is(entry.err, context.DeadlineExceeded), errors.Is(entry.err, context.Canceled):
		s.writeError(w, http.StatusGatewayTimeout, "solve canceled: "+entry.err.Error())
	default:
		s.writeError(w, http.StatusInternalServerError, "solve failed: "+entry.err.Error())
	}
}

// retryAfter estimates seconds until queue space frees up: one solve
// time-slice per queued task per worker, floored at 1s.
func (s *Server) retryAfter() string {
	secs := s.pool.queueDepth() / s.cfg.Workers
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) clampTimeLimit(d time.Duration) time.Duration {
	if d <= 0 {
		d = s.cfg.DefaultTimeLimit
	}
	if d > s.cfg.MaxTimeLimit {
		d = s.cfg.MaxTimeLimit
	}
	return d
}

func (s *Server) engineAllowed(name string) bool {
	if len(s.cfg.Engines) == 0 {
		return true
	}
	for _, e := range s.cfg.Engines {
		if e == name {
			return true
		}
	}
	return false
}

func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	engines := s.cfg.Engines
	if len(engines) == 0 {
		engines = defaultEngineNames()
	}
	s.writeJSON(w, http.StatusOK, EnginesResponse{Engines: engines, Default: s.cfg.DefaultEngine})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting down"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.metrics.render())
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.log.Error("encoding response", "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, SolveResponse{Status: "error", Error: msg})
}

// statusWriter captures the response code for request logging.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// requestIDKey keys the per-request ID in the request context.
type requestIDKey struct{}

// requestID returns the ID logRequests assigned, or "" outside a request.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID returns a 16-hex-char random request ID.
func newRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(buf[:])
}

// maxRequestIDLen caps a client-supplied X-Request-ID.
const maxRequestIDLen = 64

// sanitizeRequestID vets a client-supplied request ID before it is
// echoed into response headers, logs and exported events: only printable
// non-space ASCII survives, truncated to maxRequestIDLen. Anything else
// (header injection attempts, control bytes, emptiness) is discarded and
// the caller mints a fresh ID.
func sanitizeRequestID(id string) string {
	if len(id) > maxRequestIDLen {
		id = id[:maxRequestIDLen]
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= 0x20 || id[i] >= 0x7f {
			return ""
		}
	}
	return id
}

// recoverPanics is the HTTP-layer last-resort recovery: a panic in any
// handler answers 500 (best effort; a mid-stream panic just truncates
// the response) instead of killing the daemon.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.handlerPanics.Add(1)
				s.log.Error("handler panicked; recovered",
					"request_id", requestID(r.Context()),
					"path", r.URL.Path,
					"panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()),
				)
				s.writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		id := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.log.Info("request",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.code,
			"elapsed", time.Since(started).Round(time.Microsecond),
			"remote", r.RemoteAddr,
		)
	})
}
