package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// DebugSolvesResponse is the GET /debug/solves reply: the most recent
// flight records (newest first, traces stripped for size — fetch
// /debug/solves/{seq} for one record's full trace) plus the per-engine
// distribution summaries.
type DebugSolvesResponse struct {
	// Total counts records ever appended; Capacity is the ring size.
	// Records holds min(n, held) most-recent entries.
	Total    int64           `json:"total"`
	Capacity int             `json:"capacity"`
	Records  []flight.Record `json:"records"`
	// Engines summarizes each engine's latency/work/incumbent-time
	// distributions (the same data behind the /metrics histograms).
	Engines map[string]EngineDistSummary `json:"engines,omitempty"`
}

// defaultDebugSolves bounds the list reply when no ?n= is given.
const defaultDebugSolves = 50

// recentRecords is the listing /debug/solves and /debug/events share:
// the newest ?n= flight records (default 50), newest first, traces
// stripped, narrowed by ?kind= ("solve", "session", "recovery") and
// ?outcome= ("panic", "no_solution", ...) when given — filters scan the
// whole ring and keep the newest n matches. ok is false when the request
// was rejected and the error reply is already written.
func (s *Server) recentRecords(w http.ResponseWriter, r *http.Request) (records []flight.Record, ok bool) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return nil, false
	}
	q := r.URL.Query()
	n := defaultDebugSolves
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			s.writeError(w, http.StatusBadRequest, "n must be a positive integer")
			return nil, false
		}
		n = v
	}
	kind, outcome := q.Get("kind"), q.Get("outcome")
	if kind == "" && outcome == "" {
		records = s.flight.Last(n)
	} else {
		records = []flight.Record{}
		for _, rec := range s.flight.Last(0) {
			if (kind == "" || rec.Kind == kind) && (outcome == "" || rec.Outcome == outcome) {
				records = append(records, rec)
				if len(records) == n {
					break
				}
			}
		}
	}
	for i := range records {
		records[i].Trace = nil // the list stays light; /debug/solves/{seq} serves the trace
	}
	return records, true
}

// handleDebugSolves serves GET /debug/solves: the recent record list
// plus the per-engine distributions.
func (s *Server) handleDebugSolves(w http.ResponseWriter, r *http.Request) {
	records, ok := s.recentRecords(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, DebugSolvesResponse{
		Total:    s.flight.Total(),
		Capacity: s.flight.Cap(),
		Records:  records,
		Engines:  s.metrics.engineSummaries(),
	})
}

// handleDebugSolve serves GET /debug/solves/{seq}: one full record,
// trace included.
func (s *Server) handleDebugSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/debug/solves/")
	seq, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || seq <= 0 {
		s.writeError(w, http.StatusBadRequest, "sequence must be a positive integer")
		return
	}
	rec, ok := s.flight.Get(seq)
	if !ok {
		s.writeError(w, http.StatusNotFound, "record not in the ring (evicted or never recorded)")
		return
	}
	s.writeJSON(w, http.StatusOK, rec)
}

// DebugEventsResponse is the GET /debug/events reply: the wide-event
// exporter's pipeline counters plus the recent flight records (newest
// first, traces stripped) — the same records the export writes. A
// record's sample_reason says why it was exported; records without one
// were sampled out.
type DebugEventsResponse struct {
	Stats  telemetry.Stats `json:"stats"`
	Events []flight.Record `json:"events"`
}

// handleDebugEvents serves GET /debug/events?n=&kind=&outcome=.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	records, ok := s.recentRecords(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, DebugEventsResponse{
		Stats:  s.events.Stats(),
		Events: records,
	})
}

// DebugSLOResponse is the GET /debug/slo reply: every objective's
// compliance, error budget, burn rates and alert states at evaluation
// time.
type DebugSLOResponse struct {
	EvaluatedAt time.Time    `json:"evaluated_at"`
	Objectives  []slo.Status `json:"objectives"`
}

// handleDebugSLO serves GET /debug/slo. Evaluation drives the tracker's
// edge-triggered alert hook, so polling this endpoint (like scraping
// /metrics) is what turns burn-rate transitions into log lines.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.writeJSON(w, http.StatusOK, DebugSLOResponse{
		EvaluatedAt: time.Now(),
		Objectives:  s.slos.Evaluate(),
	})
}
