// Sessions: the daemon's online-placement surface. Where /v1/solve
// answers one offline instance, a session is a stateful
// session.Manager held server-side — arrivals, departures and
// defragmentation cycles applied over a live device across many
// requests.
//
//	POST   /v1/sessions              create a session
//	GET    /v1/sessions              list live sessions
//	GET    /v1/sessions/{id}         session snapshot
//	POST   /v1/sessions/{id}/events  apply an event batch
//	DELETE /v1/sessions/{id}         close a session
//
// Sessions live in a bounded registry with lazy TTL eviction (touched
// on every use), so an abandoned session costs nothing once it ages out
// and a runaway client cannot accumulate unbounded device state. With
// Config.SessionDir set, sessions are also durable: every applied event
// is WAL-logged before its result is acknowledged, snapshots compact
// the log, and a restarted daemon replays each session back
// (recovery.go) — eviction and DELETE purge the durable files so a dead
// session cannot be resurrected.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	floorplanner "repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/flight"
	"repro/internal/session"
	"repro/internal/slo"
)

// liveSession is one registry entry: the manager plus the bookkeeping
// the list/TTL machinery needs.
type liveSession struct {
	id      string
	device  string
	engine  string
	created time.Time
	mgr     *session.Manager
}

// sessionRegistry holds the daemon's live sessions: a bounded map with
// lazy TTL eviction. Eviction happens on access (create, lookup, list)
// rather than on a timer, so the registry needs no background
// goroutine and cannot leak one.
type sessionRegistry struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	byID     map[string]*liveSession
	lastUsed map[string]time.Time
	// onExpire, when set, observes each TTL eviction (metrics hook plus
	// durable-state purge).
	onExpire func(*liveSession)
}

func newSessionRegistry(capacity int, ttl time.Duration) *sessionRegistry {
	return &sessionRegistry{
		capacity: capacity,
		ttl:      ttl,
		byID:     map[string]*liveSession{},
		lastUsed: map[string]time.Time{},
	}
}

// evictExpiredLocked drops every session idle past the TTL and returns
// them (nil when none expired). Callers hold r.mu and pass the result to
// expire after releasing it: discarding a durable session removes its
// directory, which must not stall the requests and scrapes that wait on
// r.mu.
func (r *sessionRegistry) evictExpiredLocked(now time.Time) []*liveSession {
	var expired []*liveSession
	for id, used := range r.lastUsed {
		if now.Sub(used) > r.ttl {
			if ls := r.byID[id]; ls != nil {
				expired = append(expired, ls)
			}
			delete(r.byID, id)
			delete(r.lastUsed, id)
		}
	}
	return expired
}

// expire runs onExpire on the sessions evictExpiredLocked dropped.
// Callers do not hold r.mu.
func (r *sessionRegistry) expire(expired []*liveSession) {
	if r.onExpire == nil {
		return
	}
	for _, ls := range expired {
		r.onExpire(ls)
	}
}

// errSessionLimit reports the registry is at capacity (HTTP 429).
var errSessionLimit = fmt.Errorf("server: session limit reached")

// add registers a new session, evicting idle ones first.
func (r *sessionRegistry) add(ls *liveSession) error {
	r.mu.Lock()
	now := time.Now()
	expired := r.evictExpiredLocked(now)
	err := errSessionLimit
	if len(r.byID) < r.capacity {
		r.byID[ls.id] = ls
		r.lastUsed[ls.id] = now
		err = nil
	}
	r.mu.Unlock()
	r.expire(expired)
	return err
}

// get returns the session and refreshes its TTL clock.
func (r *sessionRegistry) get(id string) (*liveSession, bool) {
	r.mu.Lock()
	now := time.Now()
	expired := r.evictExpiredLocked(now)
	ls, ok := r.byID[id]
	if ok {
		r.lastUsed[id] = now
	}
	r.mu.Unlock()
	r.expire(expired)
	return ls, ok
}

// remove deletes the session, returning it when it was present (so the
// caller can purge its durable state).
func (r *sessionRegistry) remove(id string) (*liveSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls, ok := r.byID[id]
	delete(r.byID, id)
	delete(r.lastUsed, id)
	return ls, ok
}

// list returns the live sessions ordered by creation time.
func (r *sessionRegistry) list() []*liveSession {
	r.mu.Lock()
	expired := r.evictExpiredLocked(time.Now())
	out := make([]*liveSession, 0, len(r.byID))
	for _, ls := range r.byID {
		out = append(out, ls)
	}
	r.mu.Unlock()
	r.expire(expired)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].created.Equal(out[j].created) {
			return out[i].created.Before(out[j].created)
		}
		return out[i].id < out[j].id
	})
	return out
}

// live counts the registered sessions (after lazy eviction); it backs
// the floorpland_sessions_live gauge.
func (r *sessionRegistry) live() int {
	r.mu.Lock()
	expired := r.evictExpiredLocked(time.Now())
	n := len(r.byID)
	r.mu.Unlock()
	r.expire(expired)
	return n
}

// CreateSessionRequest is the POST /v1/sessions body.
type CreateSessionRequest struct {
	// Device names the target FPGA model: "fx70t" or "k160t".
	Device string `json:"device"`
	// Engine names the fallback floorplanner used for arrivals greedy
	// placement cannot fit; empty disables the fallback.
	Engine string `json:"engine,omitempty"`
	// FragThreshold triggers defragmentation (0 = session default;
	// negative disables). Devices with forbidden blocks have a nonzero
	// fragmentation baseline — see session.DefaultFragThreshold.
	FragThreshold float64 `json:"frag_threshold,omitempty"`
	// DefragCooldown is the minimum events between defragmentation
	// attempts (0 = session default).
	DefragCooldown int `json:"defrag_cooldown,omitempty"`
	// SolveBudgetMS bounds each fallback solve in milliseconds
	// (0 = session default).
	SolveBudgetMS int64 `json:"solve_budget_ms,omitempty"`
}

// SessionInfo is the create/get reply: identity plus a full snapshot.
type SessionInfo struct {
	ID        string           `json:"id"`
	Device    string           `json:"device"`
	Engine    string           `json:"engine,omitempty"`
	CreatedAt time.Time        `json:"created_at"`
	Snapshot  session.Snapshot `json:"snapshot"`
}

// SessionSummary is one row of the GET /v1/sessions listing.
type SessionSummary struct {
	ID            string    `json:"id"`
	Device        string    `json:"device"`
	Engine        string    `json:"engine,omitempty"`
	CreatedAt     time.Time `json:"created_at"`
	Events        int       `json:"events"`
	Live          int       `json:"live"`
	Fragmentation float64   `json:"fragmentation"`
}

// SessionListResponse is the GET /v1/sessions reply.
type SessionListResponse struct {
	Sessions []SessionSummary `json:"sessions"`
}

// SessionEventsRequest is the POST /v1/sessions/{id}/events body: a
// batch applied in order.
type SessionEventsRequest struct {
	Events []session.Event `json:"events"`
}

// SessionEventsResponse reports what the batch did. Results align with
// the request's events. If an event is malformed the batch stops there
// with HTTP 400 and the already-applied prefix stays applied.
type SessionEventsResponse struct {
	ID            string                `json:"id"`
	Results       []session.EventResult `json:"results"`
	Fragmentation float64               `json:"fragmentation"`
	Occupancy     float64               `json:"occupancy"`
}

// sessionDevice resolves a device model name from a create request or a
// recovered session to the model's canonical device, so every session on
// one model shares its placement index and candidate lists.
func sessionDevice(name string) (*device.Device, error) {
	dev, err := device.ByName(name)
	if err != nil {
		return nil, err
	}
	return device.Intern(dev), nil
}

// handleSessions serves the collection: POST creates, GET lists.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.createSession(w, r)
	case http.MethodGet:
		s.listSessions(w)
	default:
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

func (s *Server) createSession(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	var req CreateSessionRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	dev, err := sessionDevice(req.Device)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var engine core.Engine
	if req.Engine != "" {
		engine, err = floorplanner.NewEngine(req.Engine)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	if req.SolveBudgetMS < 0 {
		s.writeError(w, http.StatusBadRequest, "solve_budget_ms must be non-negative")
		return
	}
	id := newRequestID()
	created := time.Now()
	cfg := session.Config{
		Device:         dev,
		Engine:         engine,
		FragThreshold:  req.FragThreshold,
		DefragCooldown: req.DefragCooldown,
		SolveBudget:    time.Duration(req.SolveBudgetMS) * time.Millisecond,
		SnapshotEvery:  s.cfg.SessionSnapshotEvery,
		Faults:         s.cfg.SessionFaults,
	}
	if s.cfg.SessionDir != "" {
		store, err := session.OpenStore(filepath.Join(s.cfg.SessionDir, id))
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "opening session store: "+err.Error())
			return
		}
		cfg.Store = store
		// Meta records the raw request values (not the resolved
		// defaults), so a recovery re-applies exactly the same Config.
		cfg.Meta = session.Meta{
			ID:             id,
			Device:         dev.Name(),
			Engine:         req.Engine,
			FragThreshold:  req.FragThreshold,
			DefragCooldown: req.DefragCooldown,
			SolveBudgetMS:  req.SolveBudgetMS,
			CreatedAt:      created,
		}
	}
	mgr, err := session.New(cfg)
	if err != nil {
		if cfg.Store != nil {
			cfg.Store.Purge()
		}
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ls := &liveSession{
		id:      id,
		device:  dev.Name(),
		engine:  req.Engine,
		created: created,
		mgr:     mgr,
	}
	if err := s.sessions.add(ls); err != nil {
		_ = mgr.Discard()
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session limit (%d) reached; close or let idle sessions expire", s.cfg.MaxSessions))
		return
	}
	s.metrics.sessionsCreated.Add(1)
	s.log.Info("session created",
		"request_id", requestID(r.Context()),
		"session_id", ls.id,
		"device", ls.device,
		"engine", ls.engine,
	)
	s.writeJSON(w, http.StatusCreated, sessionInfo(ls))
}

func (s *Server) listSessions(w http.ResponseWriter) {
	resp := SessionListResponse{Sessions: []SessionSummary{}}
	for _, ls := range s.sessions.list() {
		snap := ls.mgr.Snapshot()
		resp.Sessions = append(resp.Sessions, SessionSummary{
			ID:            ls.id,
			Device:        ls.device,
			Engine:        ls.engine,
			CreatedAt:     ls.created,
			Events:        snap.Stats.Events,
			Live:          len(snap.Live),
			Fragmentation: snap.Fragmentation,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSession serves one session: GET {id}, DELETE {id},
// POST {id}/events.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		s.writeError(w, http.StatusNotFound, "no session id in path")
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		s.getSession(w, id)
	case sub == "" && r.Method == http.MethodDelete:
		s.deleteSession(w, r, id)
	case sub == "events" && r.Method == http.MethodPost:
		s.applySessionEvents(w, r, id)
	case sub == "" || sub == "events":
		w.Header().Set("Allow", "GET, DELETE, POST")
		s.writeError(w, http.StatusMethodNotAllowed, "unsupported method for this session path")
	default:
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session subresource %q", sub))
	}
}

func (s *Server) getSession(w http.ResponseWriter, id string) {
	ls, ok := s.sessions.get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such session (closed or expired)")
		return
	}
	s.writeJSON(w, http.StatusOK, sessionInfo(ls))
}

func (s *Server) deleteSession(w http.ResponseWriter, r *http.Request, id string) {
	ls, ok := s.sessions.remove(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such session (closed or expired)")
		return
	}
	// A closed session must not come back on restart: purge its WAL and
	// snapshot along with the registry entry.
	if err := ls.mgr.Discard(); err != nil {
		s.log.Error("discarding session state", "session_id", id, "err", err)
	}
	s.metrics.sessionsClosed.Add(1)
	s.log.Info("session closed",
		"request_id", requestID(r.Context()),
		"session_id", id,
	)
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "closed", "id": id})
}

func (s *Server) applySessionEvents(w http.ResponseWriter, r *http.Request, id string) {
	if s.closing.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	ls, ok := s.sessions.get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such session (closed or expired)")
		return
	}
	var req SessionEventsRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if len(req.Events) == 0 {
		s.writeError(w, http.StatusBadRequest, "request has no events")
		return
	}
	for i := range req.Events {
		req.Events[i].Req = canonicalizeRequirements(req.Events[i].Req)
	}

	started := time.Now()
	resp := SessionEventsResponse{ID: id, Results: make([]session.EventResult, 0, len(req.Events))}
	stats := flight.SessionStats{SessionID: id, FragBefore: ls.mgr.Fragmentation()}
	// Durability/fault work is accounted as batch deltas of the
	// manager's counters, so retries inside failed events count too.
	sBefore, rBefore := ls.mgr.Stats(), ls.mgr.ReconfigStats()
	closeDeltas := func() {
		sAfter, rAfter := ls.mgr.Stats(), ls.mgr.ReconfigStats()
		stats.WALRecords = sAfter.WALRecords - sBefore.WALRecords
		stats.Retries = rAfter.Retries - rBefore.Retries
		stats.Rollbacks = rAfter.Rollbacks - rBefore.Rollbacks
		s.metrics.sessionWALRecords.Add(int64(stats.WALRecords))
		s.metrics.sessionRetries.Add(int64(stats.Retries))
		s.metrics.sessionRollbacks.Add(int64(stats.Rollbacks))
	}
	// The batch runs under session goroutine labels, so CPU profiles
	// attribute placement/defrag work to the session pseudo-engine.
	failIdx, failErr := -1, error(nil)
	diag.Do(r.Context(), sessionLabels(r.Context(), id), func(context.Context) {
		for i, ev := range req.Events {
			res, err := ls.mgr.Apply(ev)
			if err != nil {
				failIdx, failErr = i, err
				return
			}
			resp.Results = append(resp.Results, *res)
			resp.Fragmentation = res.Fragmentation
			resp.Occupancy = res.Occupancy
			if res.Defrag != nil && res.Defrag.Executed {
				stats.Defrags++
				if res.Defrag.Schedule != nil {
					stats.Moves += res.Defrag.Schedule.Executed
					stats.CorruptedFrames += res.Defrag.Schedule.CorruptedFrames
				}
			}
		}
	})
	if failErr != nil {
		// Malformed event: the applied prefix stays applied — sessions
		// are stateful and moves already flowed through the config
		// memory — and the client learns exactly where the batch broke.
		s.metrics.sessionEvents.Add(int64(failIdx))
		stats.Events = failIdx
		closeDeltas()
		s.recordSessionFlight(r.Context(), ls, stats, time.Since(started), failErr)
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("event %d: %v", failIdx, failErr))
		return
	}
	s.metrics.sessionEvents.Add(int64(len(req.Events)))
	s.metrics.sessionDefrags.Add(int64(stats.Defrags))
	s.metrics.sessionCorrupted.Add(int64(stats.CorruptedFrames))
	stats.Events = len(req.Events)
	closeDeltas()
	s.recordSessionFlight(r.Context(), ls, stats, time.Since(started), nil)
	s.writeJSON(w, http.StatusOK, resp)
}

// canonicalClasses maps case-folded spellings of the standard resource
// classes to their canonical names, so JSON clients writing {"clb": 40}
// ask for CLB tiles instead of a class no device provides (which would
// silently reject every arrival as unplaceable).
var canonicalClasses = map[string]device.Class{
	"clb":  device.ClassCLB,
	"bram": device.ClassBRAM,
	"dsp":  device.ClassDSP,
	"io":   device.ClassIO,
}

// canonicalizeRequirements rewrites standard-class keys to their
// canonical spelling, summing duplicates; unknown classes pass through
// untouched (custom devices may define their own).
func canonicalizeRequirements(req device.Requirements) device.Requirements {
	if req == nil {
		return nil
	}
	out := make(device.Requirements, len(req))
	for class, n := range req {
		if canon, ok := canonicalClasses[strings.ToLower(string(class))]; ok {
			class = canon
		}
		out[class] += n
	}
	return out
}

// recordSessionFlight records one event batch, keyed by session id
// under the pseudo-engine "session", so /debug/solves interleaves online
// batches with offline solves and the export carries them too — then
// feeds the SLO tracker. stats carries the batch's defrag work (frag
// before/after, executed moves) so an exported session record is
// self-contained.
func (s *Server) recordSessionFlight(ctx context.Context, ls *liveSession, stats flight.SessionStats, elapsed time.Duration, err error) {
	frag := ls.mgr.Fragmentation()
	stats.FragAfter = frag
	rec := flight.Record{
		RequestDigest: fmt.Sprintf("session:%s:%d", ls.id, stats.Events),
		LabelDigest:   sessionLabels(ctx, ls.id).JoinDigest(),
		Key:           ls.id,
		Engine:        "session",
		Outcome:       "ok",
		Objective:     &frag,
		DurationMS:    durationMS(elapsed),
		Session:       &stats,
		Kind:          "session",
		Endpoint:      "/v1/sessions/events",
		RequestID:     requestID(ctx),
	}
	if err != nil {
		rec.Outcome = "error"
		rec.Err = err.Error()
	}
	s.record(rec)
	// Malformed events are client errors (HTTP 400): they don't enter the
	// availability objective's denominator at all, same as a canceled
	// solve. A clean batch is good service.
	if err == nil {
		s.slos.Record(slo.Sample{
			Engine:   "session",
			Endpoint: "/v1/sessions/events",
			Duration: elapsed,
		})
	}
}

// sessionLabels is the goroutine label set an event batch runs under;
// the same set derives the flight record's join digest, so profile
// samples attribute back to the exact batch.
func sessionLabels(ctx context.Context, id string) diag.LabelSet {
	return diag.LabelSet{
		Engine:    "session",
		Phase:     "apply",
		Endpoint:  "/v1/sessions/events",
		Digest:    id,
		RequestID: requestID(ctx),
	}
}

// sessionInfo assembles the full reply for create/get.
func sessionInfo(ls *liveSession) SessionInfo {
	return SessionInfo{
		ID:        ls.id,
		Device:    ls.device,
		Engine:    ls.engine,
		CreatedAt: ls.created,
		Snapshot:  ls.mgr.Snapshot(),
	}
}
