package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/diag"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/slo"
)

// triggerDiag inspects one finished record for anomaly bundle triggers:
// recovered panics, validation-rejected solutions and contract-breaching
// budget overruns of fresh solves, and transactional defrag rollbacks of
// session batches, each snapshot a diagnostic bundle (rate-limited; see
// diag.Bundler).
func (s *Server) triggerDiag(rec flight.Record) {
	if rec.Session != nil && rec.Session.Rollbacks > 0 {
		// A mid-schedule hard fault just unwound live relocations —
		// snapshot the evidence.
		s.bundler.Trigger("reconfig-rollback", fmt.Sprintf(
			"session %s seq %d rollbacks %d retries %d",
			rec.Key, rec.Seq, rec.Session.Rollbacks, rec.Session.Retries))
	}
	if rec.Kind != "solve" || rec.Cached {
		return
	}
	note := fmt.Sprintf("engine %s seq %d digest %s ldig %s",
		rec.Engine, rec.Seq, rec.RequestDigest, rec.LabelDigest)
	switch rec.Outcome {
	case string(obs.OutcomePanic):
		s.bundler.Trigger("panic", note)
	case string(obs.OutcomeInvalid):
		s.bundler.Trigger("invalid-solution", note)
	default:
		if rec.BudgetOverrunMS > 0 {
			s.bundler.Trigger("budget-overrun",
				fmt.Sprintf("%s overrun %.0fms past budget+epsilon", note, rec.BudgetOverrunMS))
		}
	}
}

// diagSLOState is the slo.json artifact shape.
type diagSLOState struct {
	EvaluatedAt time.Time    `json:"evaluated_at"`
	Firing      []string     `json:"firing"`
	Objectives  []slo.Status `json:"objectives"`
}

// diagArtifacts assembles the server-state files a diagnostic bundle
// carries beyond the runtime dumps: the flight ring (every recent solve,
// session batch and recovery record, traces included), SLO and breaker
// state, and the full metrics exposition (exporter counters included).
func (s *Server) diagArtifacts() []diag.Artifact {
	arts := []diag.Artifact{
		{Name: "flight.json", Write: s.flight.WriteJSON},
		{Name: "slo.json", Write: func(w io.Writer) error {
			// Evaluate advances the edge-triggered alert state; a nested
			// slo-alert trigger is absorbed by the bundler's rate limit,
			// which the running capture has already reserved.
			st := diagSLOState{
				EvaluatedAt: time.Now(),
				Objectives:  s.slos.Evaluate(),
				Firing:      s.slos.Firing(),
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(st)
		}},
		{Name: "metrics.prom", Write: func(w io.Writer) error {
			_, err := io.WriteString(w, s.metrics.render())
			return err
		}},
	}
	if s.breakers != nil {
		arts = append(arts, diag.Artifact{Name: "breakers.json", Write: func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(s.breakers.Snapshot())
		}})
	}
	return arts
}

// CaptureDiagBundle captures a diagnostic bundle on demand (the daemon's
// SIGUSR2 handler) and returns the written file's path. It requires a
// configured DiagDir — unlike /debug/bundle there is nowhere else to
// put the bytes.
func (s *Server) CaptureDiagBundle(note string) (string, error) {
	if s.cfg.DiagDir == "" {
		return "", errors.New("server: diagnostic bundles need a configured diag dir")
	}
	_, name, err := s.bundler.Capture("signal", note)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.cfg.DiagDir, name), nil
}

// handleDebugBundle serves GET /debug/bundle: a synchronous on-demand
// bundle capture, streamed back as the tar.gz (and persisted to the
// diag dir when one is configured). floorplanctl diag is the CLI front
// end for this endpoint.
func (s *Server) handleDebugBundle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	note := "requested via /debug/bundle"
	if id := requestID(r.Context()); id != "" {
		note += " request_id " + id
	}
	data, name, err := s.bundler.Capture("manual", note)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "bundle capture failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}
