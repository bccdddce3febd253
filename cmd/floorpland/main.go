// Command floorpland runs the floorplanning service daemon: an HTTP/JSON
// API over the floorplanner engines with a solution cache, a bounded
// worker pool and Prometheus-style metrics.
//
// Usage:
//
//	floorpland -addr :8080 -workers 4 -queue 128 -cache 512
//	floorpland -default-engine portfolio -default-time 10s
//	floorpland -pprof localhost:6060   # profiler on a separate listener
//
// Endpoints:
//
//	POST /v1/solve          solve a problem (floorplanner.Problem JSON + options)
//	GET  /v1/engines        list available engines
//	POST /v1/sessions       create an online-placement session (stateful
//	                        arrivals/departures with defragmentation)
//	GET  /v1/sessions       list live sessions
//	GET  /v1/sessions/{id}  session snapshot; DELETE closes it
//	POST /v1/sessions/{id}/events  apply an arrival/departure batch
//	GET  /healthz           liveness probe
//	GET  /metrics           counters, per-engine latency/work/incumbent-time
//	                        histograms; when the portfolio engine runs, also
//	                        per-member race/win/latency counters
//	GET  /debug/solves      recent flight records (solves, session batches,
//	                        recoveries) + per-engine distribution summaries;
//	                        ?n= bounds the list, ?kind= and ?outcome= filter it
//	GET  /debug/solves/{id} one record with its full telemetry trace
//	GET  /debug/events      wide-event export counters + the same recent
//	                        records, traces stripped; same ?n=, ?kind=,
//	                        ?outcome=
//	GET  /debug/slo         per-objective error budgets, burn rates and
//	                        alert states
//	GET  /debug/bundle      capture a diagnostic bundle on demand and
//	                        stream it back as tar.gz (floorplanctl diag
//	                        is the CLI front end)
//
// Logs go to stderr at -log-level (default info) in -log-format (default
// text; json for machine ingestion).
//
// -events FILE exports one JSON line per kept wide event (every flight
// record — solve, session batch or recovery — that survives tail
// sampling, trace stripped) to a size-rotated file; without it the
// records stay in the flight ring behind /debug/events only.
//
// -session-dir makes online-placement sessions durable: every applied
// event batch is written to a per-session write-ahead log before the
// response is acknowledged, periodic snapshots bound replay, and on
// start the daemon replays every recoverable session — frame-verified —
// back into the registry. -faults drives reconfiguration frame loads
// through an injected-fault plan (resilience testing; see
// reconfig.ParseFaultPlan).
//
// Per-engine/phase time comes from the recorded span durations
// (floorpland_span_seconds_total on /metrics). -diag-dir arms anomaly
// triggers (panic, invalid solution, budget overrun, SLO alert,
// reconfiguration rollback) that snapshot rate-limited diagnostic
// bundles (bundle-<ts>.tar.gz) there, each with a -profile-cpu window
// of engine-labelled CPU profile; -chaos injects scripted or seeded
// solve-path faults to fire-drill exactly that machinery.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// requests, drains in-flight solves and cancels queued ones; with
// -session-dir set it also flushes a final snapshot per live session.
// SIGUSR1 dumps the flight recorder ring to -flight-dump as JSON without
// interrupting service. SIGUSR2 captures a diagnostic bundle into
// -diag-dir on demand.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	floorplanner "repro"
	"repro/internal/guard"
	"repro/internal/logx"
	"repro/internal/reconfig"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "floorpland:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent solves")
		queue        = flag.Int("queue", 64, "queued solves before 429 backpressure")
		cacheSize    = flag.Int("cache", 256, "cached solutions (LRU)")
		engine       = flag.String("default-engine", "exact", "engine used when a request names none")
		fallback     = flag.String("fallback", "", "comma-separated engine chain for the \"fallback\" engine (empty = exact,milp-ho,constructive)")
		brkThreshold = flag.Int("breaker-threshold", 5, "consecutive engine failures that open its circuit breaker (negative disables)")
		brkCooldown  = flag.Duration("breaker-cooldown", 30*time.Second, "how long an open circuit breaker waits before a half-open probe")
		defaultLimit = flag.Duration("default-time", 30*time.Second, "time limit when a request names none")
		maxLimit     = flag.Duration("max-time", 2*time.Minute, "per-request time limit cap")
		drainTimeout = flag.Duration("drain", 2*time.Minute, "shutdown drain budget for in-flight solves")
		logLevel     = flag.String("log-level", "info", "log level: "+logx.Levels)
		logFormat    = flag.String("log-format", "text", "log format: "+logx.Formats)
		maxSessions  = flag.Int("max-sessions", 16, "live online-placement sessions the daemon holds")
		sessionTTL   = flag.Duration("session-ttl", 30*time.Minute, "idle time before a session is reclaimed")
		sessionDir   = flag.String("session-dir", "", "persist sessions (WAL + snapshots) under this directory and recover them on start (empty = in-memory only)")
		sessionSnap  = flag.Int("session-snapshot-every", 0, "WAL records between session snapshots (0 = 64)")
		faultSpec    = flag.String("faults", "", "reconfiguration fault-injection plan, e.g. seed:7 or script:transient,pass (empty disables; for resilience testing)")
		flightSize   = flag.Int("flight", 256, "records kept in the flight recorder ring (/debug/solves, /debug/events)")
		flightDump   = flag.String("flight-dump", "floorpland-flight.json", "file the flight ring is dumped to on SIGUSR1")
		eventsPath   = flag.String("events", "", "export wide events (sampled flight records) as JSON lines to this file (empty exports nothing)")
		eventsMax    = flag.Int64("events-max-bytes", 0, "rotate the events file past this size (0 = 8 MiB)")
		eventsKeep   = flag.Int("events-keep", 0, "rotated events files kept (0 = 2)")
		eventsSample = flag.Float64("events-sample", 0, "keep probability for unremarkable events; errors, budget breaches and the slow tail are always kept (0 = 0.1, 1 keeps everything)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		diagDir      = flag.String("diag-dir", "", "write anomaly-triggered diagnostic bundles (bundle-<ts>.tar.gz) to this directory (empty disables triggers; /debug/bundle still works)")
		diagKeep     = flag.Int("diag-keep", 0, "diagnostic bundles kept in -diag-dir before rotation (0 = 8)")
		diagInterval = flag.Duration("diag-min-interval", 0, "minimum time between anomaly-triggered bundles (0 = 1m)")
		profCPU      = flag.Duration("profile-cpu", 0, "CPU-profile window of each diagnostic bundle capture (0 = 250ms)")
		chaosSpec    = flag.String("chaos", "", "solve-path chaos injection, e.g. seed:7 or script:panic,pass (empty disables; fire drills for the guard/diag layers)")
	)
	flag.Parse()

	log, err := logx.New(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	if _, err := floorplanner.NewEngine(*engine); err != nil {
		return err
	}
	var fallbackChain []string
	if *fallback != "" {
		fallbackChain = strings.Split(*fallback, ",")
		// Fail fast on typos: the chain must assemble.
		if _, err := floorplanner.NewFallback(fallbackChain...); err != nil {
			return err
		}
	}
	faultPlan, err := reconfig.ParseFaultPlan(*faultSpec)
	if err != nil {
		return err
	}
	chaosCfg, err := guard.ParseChaosSpec(*chaosSpec)
	if err != nil {
		return err
	}
	var eventSink telemetry.Sink
	if *eventsPath != "" {
		fs, err := telemetry.NewFileSink(*eventsPath, *eventsMax, *eventsKeep)
		if err != nil {
			return err
		}
		// The exporter owns the sink: Server.Close closes it after the
		// queue drains.
		eventSink = fs
	}
	srv := server.New(server.Config{
		Workers:              *workers,
		QueueSize:            *queue,
		CacheSize:            *cacheSize,
		DefaultEngine:        *engine,
		FallbackChain:        fallbackChain,
		BreakerThreshold:     *brkThreshold,
		BreakerCooldown:      *brkCooldown,
		DefaultTimeLimit:     *defaultLimit,
		MaxTimeLimit:         *maxLimit,
		MaxSessions:          *maxSessions,
		SessionTTL:           *sessionTTL,
		SessionDir:           *sessionDir,
		SessionSnapshotEvery: *sessionSnap,
		SessionFaults:        faultPlan,
		FlightSize:           *flightSize,
		EventSink:            eventSink,
		EventSampleRate:      *eventsSample,
		DiagDir:              *diagDir,
		DiagKeep:             *diagKeep,
		DiagMinInterval:      *diagInterval,
		ProfileCPUDuration:   *profCPU,
		Chaos:                chaosCfg,
		Logger:               log,
		Version:              buildVersion(),
	})

	// SIGUSR1 dumps the flight ring — the last -flight solve records,
	// traces included — to -flight-dump as JSON, for post-mortems without
	// stopping the daemon.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			if err := srv.FlightRecorder().WriteFile(*flightDump); err != nil {
				log.Error("flight dump failed", "path", *flightDump, "err", err)
				continue
			}
			log.Info("flight ring dumped", "path", *flightDump, "records", srv.FlightRecorder().Len())
		}
	}()

	// SIGUSR2 snapshots a full diagnostic bundle — CPU profile, heap and
	// goroutine dumps, flight ring, SLO/breaker state, metrics — into
	// -diag-dir, bypassing the anomaly triggers' rate limit.
	usr2 := make(chan os.Signal, 1)
	signal.Notify(usr2, syscall.SIGUSR2)
	go func() {
		for range usr2 {
			path, err := srv.CaptureDiagBundle("SIGUSR2")
			if err != nil {
				log.Error("diag bundle failed", "err", err)
				continue
			}
			log.Info("diag bundle written", "path", path)
		}
	}()

	if *pprofAddr != "" {
		// The profiler gets its own mux on its own listener so the
		// debugging surface is never reachable through the public API
		// address. Bind it to localhost in production.
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofMux); err != nil {
				log.Warn("pprof server", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr, "workers", *workers, "queue", *queue, "cache", *cacheSize)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Info("shutting down", "signal", sig.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
	if err := srv.Close(ctx); err != nil {
		return fmt.Errorf("draining worker pool: %w", err)
	}
	log.Info("drained, bye")
	return nil
}

// buildVersion labels the floorpland_build_info metric from the binary's
// embedded module metadata ("dev" for uninstalled builds).
func buildVersion() string {
	if info, ok := debug.ReadBuildInfo(); ok && info.Main.Version != "" && info.Main.Version != "(devel)" {
		return info.Main.Version
	}
	return "dev"
}
