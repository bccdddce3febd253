package server

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/flight"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// engineDist holds one engine's per-solve distributions (proper
// histograms: buckets + sum + count) and its monotonic work totals. The
// distributions answer tail questions ("did exact's p95 regress?") that
// the totals alone cannot.
type engineDist struct {
	// latency is seconds per solve.
	latency *hist.Hist
	// nodes and pivots are work counts per solve.
	nodes  *hist.Hist
	pivots *hist.Hist
	// firstIncumbent and bestIncumbent are seconds from solve start to
	// the engine span's first/best incumbent (observed only when the
	// solve produced incumbents).
	firstIncumbent *hist.Hist
	bestIncumbent  *hist.Hist

	// Monotonic totals, kept alongside the histograms for rate queries.
	nodesTotal      atomic.Int64
	pivotsTotal     atomic.Int64
	incumbentsTotal atomic.Int64
}

func newEngineDist() *engineDist {
	return &engineDist{
		latency:        hist.New(hist.LatencyBuckets()),
		nodes:          hist.New(hist.WorkBuckets()),
		pivots:         hist.New(hist.WorkBuckets()),
		firstIncumbent: hist.New(hist.LatencyBuckets()),
		bestIncumbent:  hist.New(hist.LatencyBuckets()),
	}
}

// metrics is the server's observability state: flat atomic counters plus
// per-engine distributions. All fields are safe for concurrent use; the
// per-engine map is guarded by mu for creation only.
type metrics struct {
	solvesStarted   atomic.Int64
	solvesCompleted atomic.Int64
	solvesFailed    atomic.Int64
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	dedupJoined     atomic.Int64
	queueRejected   atomic.Int64
	requests        atomic.Int64

	// Fault-tolerance counters (the guard layer).
	enginePanics     atomic.Int64
	invalidSolutions atomic.Int64
	poolPanics       atomic.Int64
	handlerPanics    atomic.Int64
	breakerRejected  atomic.Int64

	// Online-placement session counters (sessions.go).
	sessionsCreated  atomic.Int64
	sessionsClosed   atomic.Int64
	sessionsExpired  atomic.Int64
	sessionEvents    atomic.Int64
	sessionDefrags   atomic.Int64
	sessionCorrupted atomic.Int64

	// Session durability and fault-recovery counters (sessions.go,
	// recovery.go).
	sessionWALRecords atomic.Int64
	sessionReplays    atomic.Int64
	sessionRecoveries atomic.Int64
	sessionRetries    atomic.Int64
	sessionRollbacks  atomic.Int64

	queueDepth   func() int // live gauge, set by the server
	sessionsLive func() int // live session gauge, set by the server
	// breakerStats, when set, supplies the per-engine circuit breaker
	// snapshots for rendering.
	breakerStats func() []guard.BreakerSnapshot
	// candCacheStats, when set, supplies the process-wide candidate-cache
	// hit/miss counters (core.CandCacheStats in production).
	candCacheStats func() (hits, misses int64)
	// eventStats, when set, supplies the wide-event exporter's pipeline
	// counters.
	eventStats func() telemetry.Stats
	// sloStatus, when set, supplies the evaluated SLO statuses. Rendering
	// /metrics drives the tracker's edge-triggered alert hook as a side
	// effect, so a scraped daemon needs no background evaluation loop.
	sloStatus func() []slo.Status
	// diagStats, when set, supplies the diagnostic-bundle pipeline
	// counters.
	diagStats func() diag.BundleStats

	// version labels floorpland_build_info; start anchors the uptime gauge.
	version string
	start   time.Time

	mu        sync.Mutex
	perEngine map[string]*engineDist
	// members holds the portfolio engine's per-member race counters
	// (guarded by mu).
	members map[string]*memberStats
	// spanSeconds sums ended solve spans' durations by engine and phase
	// (guarded by mu).
	spanSeconds map[spanKey]float64
}

// spanKey is one {engine, phase} pair of floorpland_span_seconds_total.
type spanKey struct{ engine, phase string }

// memberStats is one portfolio member's cumulative race record.
type memberStats struct {
	name                  string
	races, wins, failures int64
	seconds               float64
}

func newMetrics() *metrics {
	return &metrics{
		perEngine:    map[string]*engineDist{},
		members:      map[string]*memberStats{},
		spanSeconds:  map[spanKey]float64{},
		queueDepth:   func() int { return 0 },
		sessionsLive: func() int { return 0 },
		version:      "dev",
		start:        time.Now(),
	}
}

// dist returns (creating if needed) the named engine's distributions.
func (m *metrics) dist(engine string) *engineDist {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.perEngine[engine]
	if !ok {
		d = newEngineDist()
		m.perEngine[engine] = d
	}
	return d
}

// recordRace tallies one portfolio solve's stage log: every member that
// ran counts a race (and a failure when it ended in error), and the
// member named in the winning solution's label ("portfolio(exact)")
// counts a win.
func (m *metrics) recordRace(stages []flight.Stage, winner string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range stages {
		if st.Outcome == guard.StageOutcomeSkipped {
			continue
		}
		ms := m.members[st.Engine]
		if ms == nil {
			ms = &memberStats{name: st.Engine}
			m.members[st.Engine] = ms
		}
		ms.races++
		ms.seconds += st.ElapsedMS / 1000
		if st.Err != "" {
			ms.failures++
		}
		if winner == "portfolio("+st.Engine+")" {
			ms.wins++
		}
	}
}

// memberSnapshot returns the portfolio member counters sorted by member.
func (m *metrics) memberSnapshot() []memberStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]memberStats, 0, len(m.members))
	for _, ms := range m.members {
		out = append(out, *ms)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// observeLatency folds one solve's wall-clock into the engine's latency
// histogram.
func (m *metrics) observeLatency(engine string, d time.Duration) {
	m.dist(engine).latency.Observe(d.Seconds())
}

// recordTelemetry folds one solve's probe totals into the per-engine
// aggregates: monotonic totals plus the per-solve work distributions.
// engine is the requested engine name, so stage sub-spans (MILP passes,
// warm-start seeds) accumulate under the engine the client asked for.
func (m *metrics) recordTelemetry(engine string, nodes, pivots, incumbents int64) {
	d := m.dist(engine)
	d.nodesTotal.Add(nodes)
	d.pivotsTotal.Add(pivots)
	d.incumbentsTotal.Add(incumbents)
	d.nodes.Observe(float64(nodes))
	d.pivots.Observe(float64(pivots))
}

// recordIncumbentTimes folds one solve's time-to-first/best-incumbent
// into the engine's distributions. Call only when the solve produced
// incumbents.
func (m *metrics) recordIncumbentTimes(engine string, first, best time.Duration) {
	d := m.dist(engine)
	d.firstIncumbent.Observe(first.Seconds())
	d.bestIncumbent.Observe(best.Seconds())
}

// addSpanSeconds adds one ended span's duration under the engine and
// phase its name splits into (obs.SplitSpan).
func (m *metrics) addSpanSeconds(span string, d time.Duration) {
	engine, phase := obs.SplitSpan(span)
	m.mu.Lock()
	m.spanSeconds[spanKey{engine, phase}] += d.Seconds()
	m.mu.Unlock()
}

// engineNames returns the engines with recorded distributions, sorted.
func (m *metrics) engineNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.perEngine))
	for name := range m.perEngine {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DistSummary condenses one distribution for /debug/solves: count, mean
// and bucket-interpolated quantiles (the same estimate Prometheus's
// histogram_quantile computes). Zero-valued when the distribution is
// empty.
type DistSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
}

// summarize converts a snapshot, scaling values by scale (1000 turns
// seconds into milliseconds).
func summarize(s hist.Snapshot, scale float64) DistSummary {
	if s.Count == 0 {
		return DistSummary{}
	}
	return DistSummary{
		Count: s.Count,
		Mean:  s.Mean() * scale,
		P50:   s.Quantile(0.5) * scale,
		P95:   s.Quantile(0.95) * scale,
	}
}

// EngineDistSummary is one engine's /debug/solves distribution summary.
type EngineDistSummary struct {
	// Solves counts observed solves (the latency histogram's count).
	Solves                 int64       `json:"solves"`
	LatencyMS              DistSummary `json:"latency_ms"`
	Nodes                  DistSummary `json:"nodes"`
	Pivots                 DistSummary `json:"pivots"`
	TimeToFirstIncumbentMS DistSummary `json:"time_to_first_incumbent_ms"`
	TimeToBestIncumbentMS  DistSummary `json:"time_to_best_incumbent_ms"`
}

// engineSummaries snapshots every engine's distributions for
// /debug/solves.
func (m *metrics) engineSummaries() map[string]EngineDistSummary {
	out := map[string]EngineDistSummary{}
	for _, name := range m.engineNames() {
		d := m.dist(name)
		lat := d.latency.Snapshot()
		out[name] = EngineDistSummary{
			Solves:                 lat.Count,
			LatencyMS:              summarize(lat, 1000),
			Nodes:                  summarize(d.nodes.Snapshot(), 1),
			Pivots:                 summarize(d.pivots.Snapshot(), 1),
			TimeToFirstIncumbentMS: summarize(d.firstIncumbent.Snapshot(), 1000),
			TimeToBestIncumbentMS:  summarize(d.bestIncumbent.Snapshot(), 1000),
		}
	}
	return out
}

// render writes the metrics in the Prometheus text exposition format.
func (m *metrics) render() string {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("floorpland_requests_total", "HTTP requests accepted on /v1/solve.", m.requests.Load())
	counter("floorpland_solves_started_total", "Solves handed to the worker pool.", m.solvesStarted.Load())
	counter("floorpland_solves_completed_total", "Solves that produced a solution or a proven infeasibility.", m.solvesCompleted.Load())
	counter("floorpland_solves_failed_total", "Solves that errored, timed out or were canceled.", m.solvesFailed.Load())
	counter("floorpland_cache_hits_total", "Solve requests answered from the solution cache.", m.cacheHits.Load())
	counter("floorpland_cache_misses_total", "Solve requests not present in the solution cache.", m.cacheMisses.Load())
	counter("floorpland_dedup_joined_total", "Solve requests that joined an identical in-flight solve.", m.dedupJoined.Load())
	counter("floorpland_queue_rejected_total", "Solve requests rejected with 429 because the queue was full.", m.queueRejected.Load())
	counter("floorpland_engine_panics_total", "Engine panics recovered by the guard layer.", m.enginePanics.Load())
	counter("floorpland_invalid_solutions_total", "Engine solutions rejected by serving-boundary validation.", m.invalidSolutions.Load())
	counter("floorpland_pool_panics_total", "Panics recovered by the worker pool's last-resort handler.", m.poolPanics.Load())
	counter("floorpland_handler_panics_total", "Panics recovered by the HTTP handler middleware.", m.handlerPanics.Load())
	counter("floorpland_breaker_rejected_total", "Solve requests rejected because the engine's circuit breaker was open.", m.breakerRejected.Load())
	counter("floorpland_sessions_created_total", "Online-placement sessions created.", m.sessionsCreated.Load())
	counter("floorpland_sessions_closed_total", "Online-placement sessions closed by clients.", m.sessionsClosed.Load())
	counter("floorpland_sessions_expired_total", "Online-placement sessions reclaimed after their idle TTL.", m.sessionsExpired.Load())
	counter("floorpland_session_events_total", "Arrival/departure events applied across all sessions.", m.sessionEvents.Load())
	counter("floorpland_session_defrag_cycles_total", "Executed defragmentation cycles across all sessions.", m.sessionDefrags.Load())
	counter("floorpland_session_corrupted_frames_total", "Frame readback mismatches across all executed relocation schedules (0 on a correct run).", m.sessionCorrupted.Load())
	counter("floorpland_session_wal_records_total", "Write-ahead-log records appended across all durable sessions.", m.sessionWALRecords.Load())
	counter("floorpland_session_replays_total", "WAL records replayed while recovering sessions at startup.", m.sessionReplays.Load())
	counter("floorpland_session_recoveries_total", "Sessions rebuilt from snapshot+WAL at startup.", m.sessionRecoveries.Load())
	counter("floorpland_session_reconfig_retries_total", "Frame-write attempts retried after transient faults or detected corruptions.", m.sessionRetries.Load())
	counter("floorpland_session_rollbacks_total", "Relocation-schedule moves rolled back after mid-schedule hard failures.", m.sessionRollbacks.Load())
	if m.candCacheStats != nil {
		hits, misses := m.candCacheStats()
		counter("floorpland_candidate_cache_hits_total", "Candidate enumerations served from the shared candidate cache.", hits)
		counter("floorpland_candidate_cache_misses_total", "Candidate enumerations that ran the full sweep (cache misses).", misses)
	}
	if m.eventStats != nil {
		es := m.eventStats()
		counter("floorpland_events_emitted_total", "Wide events offered to the export pipeline.", es.Emitted)
		counter("floorpland_events_exported_total", "Wide events delivered to the configured sink.", es.Exported)
		counter("floorpland_events_dropped_total", "Wide events dropped because the export queue was full.", es.DroppedQueue)
		counter("floorpland_events_sampled_out_total", "Unremarkable wide events discarded by tail sampling.", es.SampledOut)
		counter("floorpland_events_sink_errors_total", "Wide-event sink write failures.", es.SinkErrors)
	}
	if m.diagStats != nil {
		ds := m.diagStats()
		if len(ds.Captured) > 0 {
			triggers := make([]string, 0, len(ds.Captured))
			for t := range ds.Captured {
				triggers = append(triggers, t)
			}
			sort.Strings(triggers)
			b.WriteString("# HELP floorpland_diag_bundles_total Diagnostic bundles captured, by trigger cause.\n# TYPE floorpland_diag_bundles_total counter\n")
			for _, t := range triggers {
				fmt.Fprintf(&b, "floorpland_diag_bundles_total{trigger=%q} %d\n", t, ds.Captured[t])
			}
		}
		counter("floorpland_diag_bundle_errors_total", "Diagnostic bundle captures that failed.", ds.Errors)
		counter("floorpland_diag_rate_limited_total", "Anomaly bundle triggers suppressed by the rate limit.", ds.RateLimited)
		counter("floorpland_diag_dropped_total", "Anomaly bundle triggers dropped because the capture queue was full.", ds.Dropped)
	}
	m.mu.Lock()
	spans := maps.Clone(m.spanSeconds)
	m.mu.Unlock()
	if len(spans) > 0 {
		b.WriteString("# HELP floorpland_span_seconds_total Seconds spent inside ended solve spans, by span engine and phase (nested and parallel spans each count in full).\n# TYPE floorpland_span_seconds_total counter\n")
		keys := make([]spanKey, 0, len(spans))
		for k := range spans {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b spanKey) int {
			return cmp.Or(strings.Compare(a.engine, b.engine), strings.Compare(a.phase, b.phase))
		})
		for _, k := range keys {
			fmt.Fprintf(&b, "floorpland_span_seconds_total{engine=%q,phase=%q} %g\n", k.engine, k.phase, spans[k])
		}
	}
	fmt.Fprintf(&b, "# HELP floorpland_queue_depth Solves waiting in the pool queue.\n# TYPE floorpland_queue_depth gauge\nfloorpland_queue_depth %d\n", m.queueDepth())
	fmt.Fprintf(&b, "# HELP floorpland_sessions_live Online-placement sessions currently registered.\n# TYPE floorpland_sessions_live gauge\nfloorpland_sessions_live %d\n", m.sessionsLive())
	// Labels must stay alphabetically sorted (the exposition lint test
	// enforces this for every labeled sample).
	fmt.Fprintf(&b, "# HELP floorpland_build_info Build metadata; the value is always 1.\n# TYPE floorpland_build_info gauge\nfloorpland_build_info{go_version=%q,version=%q} 1\n",
		runtime.Version(), m.version)
	fmt.Fprintf(&b, "# HELP floorpland_uptime_seconds Seconds since the server started.\n# TYPE floorpland_uptime_seconds gauge\nfloorpland_uptime_seconds %g\n",
		time.Since(m.start).Seconds())

	engines := m.engineNames()
	dists := make([]*engineDist, len(engines))
	for i, name := range engines {
		dists[i] = m.dist(name)
	}

	if len(engines) > 0 {
		b.WriteString("# HELP floorpland_engine_nodes_total Search/branch-and-bound nodes expanded, by requested engine.\n# TYPE floorpland_engine_nodes_total counter\n")
		for i, name := range engines {
			fmt.Fprintf(&b, "floorpland_engine_nodes_total{engine=%q} %d\n", name, dists[i].nodesTotal.Load())
		}
		b.WriteString("# HELP floorpland_engine_pivots_total Simplex pivots spent in LP relaxations, by requested engine.\n# TYPE floorpland_engine_pivots_total counter\n")
		for i, name := range engines {
			fmt.Fprintf(&b, "floorpland_engine_pivots_total{engine=%q} %d\n", name, dists[i].pivotsTotal.Load())
		}
		b.WriteString("# HELP floorpland_engine_incumbents_total Incumbent improvements observed, by requested engine.\n# TYPE floorpland_engine_incumbents_total counter\n")
		for i, name := range engines {
			fmt.Fprintf(&b, "floorpland_engine_incumbents_total{engine=%q} %d\n", name, dists[i].incumbentsTotal.Load())
		}
	}

	histFamily := func(name, help string, snap func(*engineDist) hist.Snapshot) {
		if len(engines) == 0 {
			return
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for i, engine := range engines {
			s := snap(dists[i])
			for j, ub := range s.Bounds {
				fmt.Fprintf(&b, "%s_bucket{engine=%q,le=%q} %d\n", name, engine, trimFloat(ub), s.Counts[j])
			}
			fmt.Fprintf(&b, "%s_bucket{engine=%q,le=\"+Inf\"} %d\n", name, engine, s.Count)
			fmt.Fprintf(&b, "%s_sum{engine=%q} %g\n", name, engine, s.Sum)
			fmt.Fprintf(&b, "%s_count{engine=%q} %d\n", name, engine, s.Count)
		}
	}
	histFamily("floorpland_solve_seconds", "Solve latency by engine.",
		func(d *engineDist) hist.Snapshot { return d.latency.Snapshot() })
	histFamily("floorpland_solve_nodes", "Branch-and-bound nodes expanded per solve, by engine.",
		func(d *engineDist) hist.Snapshot { return d.nodes.Snapshot() })
	histFamily("floorpland_solve_pivots", "Simplex pivots per solve, by engine.",
		func(d *engineDist) hist.Snapshot { return d.pivots.Snapshot() })
	histFamily("floorpland_time_to_first_incumbent_seconds", "Seconds from solve start to the first incumbent, by engine (solves that produced incumbents).",
		func(d *engineDist) hist.Snapshot { return d.firstIncumbent.Snapshot() })
	histFamily("floorpland_time_to_best_incumbent_seconds", "Seconds from solve start to the best incumbent, by engine (solves that produced incumbents).",
		func(d *engineDist) hist.Snapshot { return d.bestIncumbent.Snapshot() })

	if m.breakerStats != nil {
		if snaps := m.breakerStats(); len(snaps) > 0 {
			b.WriteString("# HELP floorpland_breaker_state Per-engine circuit breaker state: 0 closed, 1 half-open, 2 open.\n# TYPE floorpland_breaker_state gauge\n")
			for _, bs := range snaps {
				fmt.Fprintf(&b, "floorpland_breaker_state{engine=%q} %d\n", bs.Name, int(bs.State))
			}
			b.WriteString("# HELP floorpland_breaker_trips_total Circuit breaker closed-to-open transitions, by engine.\n# TYPE floorpland_breaker_trips_total counter\n")
			for _, bs := range snaps {
				fmt.Fprintf(&b, "floorpland_breaker_trips_total{engine=%q} %d\n", bs.Name, bs.Trips)
			}
		}
	}

	if m.sloStatus != nil {
		if statuses := m.sloStatus(); len(statuses) > 0 {
			b.WriteString("# HELP floorpland_slo_error_budget_remaining Unspent fraction of each objective's error budget (1 untouched, negative overspent).\n# TYPE floorpland_slo_error_budget_remaining gauge\n")
			for _, st := range statuses {
				fmt.Fprintf(&b, "floorpland_slo_error_budget_remaining{slo=%q} %g\n", st.Objective.Name, st.ErrorBudgetRemaining)
			}
			b.WriteString("# HELP floorpland_slo_burn_rate Error-budget burn rate per objective and rule window (1 = budgeted pace).\n# TYPE floorpland_slo_burn_rate gauge\n")
			for _, st := range statuses {
				for _, br := range st.BurnRates {
					fmt.Fprintf(&b, "floorpland_slo_burn_rate{slo=%q,window=%q} %g\n", st.Objective.Name, br.Window, br.Burn)
				}
			}
		}
	}

	if stats := m.memberSnapshot(); len(stats) > 0 {
		b.WriteString("# HELP floorpland_portfolio_member_races_total Portfolio races each member engine ran in.\n# TYPE floorpland_portfolio_member_races_total counter\n")
		for _, ms := range stats {
			fmt.Fprintf(&b, "floorpland_portfolio_member_races_total{member=%q} %d\n", ms.name, ms.races)
		}
		b.WriteString("# HELP floorpland_portfolio_member_wins_total Portfolio races each member engine won.\n# TYPE floorpland_portfolio_member_wins_total counter\n")
		for _, ms := range stats {
			fmt.Fprintf(&b, "floorpland_portfolio_member_wins_total{member=%q} %d\n", ms.name, ms.wins)
		}
		b.WriteString("# HELP floorpland_portfolio_member_failures_total Portfolio member runs that returned an error.\n# TYPE floorpland_portfolio_member_failures_total counter\n")
		for _, ms := range stats {
			fmt.Fprintf(&b, "floorpland_portfolio_member_failures_total{member=%q} %d\n", ms.name, ms.failures)
		}
		b.WriteString("# HELP floorpland_portfolio_member_seconds_sum Cumulative portfolio member solve time.\n# TYPE floorpland_portfolio_member_seconds_sum counter\n")
		for _, ms := range stats {
			fmt.Fprintf(&b, "floorpland_portfolio_member_seconds_sum{member=%q} %g\n", ms.name, ms.seconds)
		}
	}
	return b.String()
}

// trimFloat formats a bucket bound without trailing zeros (0.05, 1, 30).
func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", f), "0"), ".")
}
