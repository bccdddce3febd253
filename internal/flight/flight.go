// Package flight is the solve flight recorder: a fixed-size ring buffer
// of the most recent solve records, kept in memory for post-mortems and
// fleet questions ("what did the last 200 solves look like?").
//
// Two rings exist in practice. The floorplanner facade records every
// library-level Solve into the shared Default ring, so any process
// embedding the library can ask for its recent solve history. The
// service daemon keeps its own ring (complete with cache-hit records,
// breaker snapshots and traces) behind GET /debug/solves and the
// SIGUSR1 JSON dump.
//
// Recording is lock-cheap: one uncontended mutex acquisition and a
// struct copy into a preallocated slot — no allocation on the record
// path — so it is safe to call on every solve of a busy daemon.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultSize is the ring capacity used by the shared Default recorder
// and by callers that pass a non-positive size to NewRecorder.
const DefaultSize = 128

// Stage is one meta-engine member's part in a solve (a "portfolio" race
// entry or a "fallback" chain stage), as the guard layer's stage log
// records it.
type Stage struct {
	// Engine names the stage's member engine.
	Engine string `json:"engine"`
	// Outcome labels how the stage ended: an obs outcome ("solved",
	// "no_solution", "panic", ...) or "skipped" for breaker-gated stages
	// that never ran.
	Outcome string `json:"outcome"`
	// ElapsedMS is the stage's wall-clock in milliseconds (0 when
	// skipped).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Err carries the stage's error text, when it failed.
	Err string `json:"err,omitempty"`
}

// Breaker is a per-engine circuit-breaker snapshot at record time.
type Breaker struct {
	// Engine names the breaker's engine.
	Engine string `json:"engine"`
	// State is "closed", "half-open" or "open".
	State string `json:"state"`
	// Trips counts closed-to-open transitions so far.
	Trips int64 `json:"trips"`
}

// SessionStats carries the online-session specifics of an event-batch
// record (pseudo-engine "session"): what the batch did to the live
// device, so /debug/solves and the wide-event export tell the defrag
// story without scraping SIM.json.
type SessionStats struct {
	// SessionID names the session the batch was applied to.
	SessionID string `json:"session_id"`
	// Events counts the events the batch applied (the prefix that
	// succeeded, when the batch failed partway).
	Events int `json:"events"`
	// FragBefore and FragAfter bracket the batch: free-space
	// fragmentation when it started and after its last event (including
	// any defragmentation cycles it triggered).
	FragBefore float64 `json:"frag_before"`
	FragAfter  float64 `json:"frag_after"`
	// Defrags counts the defragmentation cycles the batch executed;
	// Moves the relocation moves those cycles performed.
	Defrags int `json:"defrags,omitempty"`
	Moves   int `json:"moves,omitempty"`
	// CorruptedFrames counts frame-readback mismatches across the
	// batch's executed schedules (0 on a correct run).
	CorruptedFrames int `json:"corrupted_frames,omitempty"`
	// Retries counts frame-write attempts the batch repeated after
	// injected transient faults or detected corruptions.
	Retries int `json:"retries,omitempty"`
	// Rollbacks counts schedule moves the batch undid after mid-schedule
	// hard failures (transactional defrag rollback).
	Rollbacks int `json:"rollbacks,omitempty"`
	// WALRecords counts write-ahead-log records the batch appended
	// (durable sessions only).
	WALRecords int `json:"wal_records,omitempty"`
}

// Record is one solve's flight entry. Seq is assigned by the recorder
// and increases monotonically; a Record with Seq 0 has not been
// recorded yet.
type Record struct {
	// Seq is the recorder-assigned monotonic sequence number (1-based).
	Seq int64 `json:"seq"`
	// Time is when the record was appended.
	Time time.Time `json:"time"`
	// RequestDigest is the short problem digest (guard.RequestDigest)
	// correlating this record with log lines.
	RequestDigest string `json:"request_digest,omitempty"`
	// LabelDigest is the goroutine-label join digest
	// (diag.LabelSet.JoinDigest) the solve ran under: CPU-profile
	// samples carry the same value as the "ldig" pprof label, so a
	// profile sample joins back to the exact solve that was on CPU.
	LabelDigest string `json:"label_digest,omitempty"`
	// Key is the serving-layer cache key, when the solve went through
	// the daemon.
	Key string `json:"key,omitempty"`
	// Engine is the requested engine name.
	Engine string `json:"engine"`
	// Outcome is the obs outcome label ("proven", "solved",
	// "infeasible", "no_solution", "panic", "invalid", "error").
	Outcome string `json:"outcome"`
	// Objective is the returned solution's objective value, when one was
	// returned.
	Objective *float64 `json:"objective,omitempty"`
	// DurationMS is the solve wall-clock in milliseconds (0 for cache
	// hits).
	DurationMS float64 `json:"duration_ms"`
	// Cached marks a record answered from the solution cache rather
	// than a fresh solve.
	Cached bool `json:"cached,omitempty"`
	// OriginSeq links a cached record to the Seq of the record whose
	// solve produced the cached entry (0 when unknown, e.g. after a
	// daemon restart repopulated the cache without the ring).
	OriginSeq int64 `json:"origin_seq,omitempty"`
	// Stages are the member stage timings, when the solve ran a
	// meta-engine ("portfolio" race entries or "fallback" chain stages).
	Stages []Stage `json:"stages,omitempty"`
	// Breakers snapshots the per-engine circuit breakers at record time.
	Breakers []Breaker `json:"breakers,omitempty"`
	// Session carries the online-session batch specifics, for records
	// with Engine "session".
	Session *SessionStats `json:"session,omitempty"`
	// Err carries the failure text for non-ok outcomes.
	Err string `json:"err,omitempty"`
	// Trace is the solve's recorded telemetry, when a recording probe
	// observed it. Cached records carry the original solve's trace.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// Recorder is the ring buffer. Safe for concurrent use.
type Recorder struct {
	mu   sync.Mutex
	ring []Record
	next int64 // total records ever appended == last assigned Seq
}

// NewRecorder returns a ring holding the last size records (DefaultSize
// when size is non-positive).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultSize
	}
	return &Recorder{ring: make([]Record, size)}
}

var defaultRecorder = NewRecorder(DefaultSize)

// Default returns the process-wide shared ring the floorplanner facade
// records into.
func Default() *Recorder { return defaultRecorder }

// Record appends rec, assigning and returning its sequence number. A
// zero rec.Time is stamped with the current time. The oldest record is
// overwritten once the ring is full.
func (r *Recorder) Record(rec Record) int64 {
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	r.mu.Lock()
	r.next++
	rec.Seq = r.next
	r.ring[int((r.next-1)%int64(len(r.ring)))] = rec
	r.mu.Unlock()
	return rec.Seq
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int { return len(r.ring) }

// Total returns how many records were ever appended (>= Len).
func (r *Recorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Len returns how many records are currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.next, int64(len(r.ring))))
}

// Last returns up to n records, newest first. n <= 0 returns everything
// held.
func (r *Recorder) Last(n int) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := int(min(r.next, int64(len(r.ring))))
	if n <= 0 || n > held {
		n = held
	}
	out := make([]Record, 0, n)
	for seq := r.next; seq > r.next-int64(n); seq-- {
		out = append(out, r.ring[int((seq-1)%int64(len(r.ring)))])
	}
	return out
}

// Get returns the record with the given sequence number, if it is still
// in the ring.
func (r *Recorder) Get(seq int64) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq <= 0 || seq > r.next || seq <= r.next-int64(len(r.ring)) {
		return Record{}, false
	}
	return r.ring[int((seq-1)%int64(len(r.ring)))], true
}

// Dump is the JSON shape of a full ring dump.
type Dump struct {
	// DumpedAt is when the dump was taken.
	DumpedAt time.Time `json:"dumped_at"`
	// Total counts records ever appended; Records holds the retained
	// tail, oldest first.
	Total   int64    `json:"total"`
	Records []Record `json:"records"`
}

// WriteJSON writes the full retained ring (oldest first) as one JSON
// document — the SIGUSR1 post-mortem dump.
func (r *Recorder) WriteJSON(w io.Writer) error {
	recs := r.Last(0)
	// Last is newest-first; a post-mortem reads chronologically.
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Dump{DumpedAt: time.Now(), Total: r.Total(), Records: recs})
}

// WriteFile dumps the ring to path (0644, truncating).
func (r *Recorder) WriteFile(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("flight: creating dump: %w", err)
	}
	werr := r.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
