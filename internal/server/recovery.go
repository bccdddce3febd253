package server

// Session recovery: with Config.SessionDir set, New scans the
// directory at startup and replays every recoverable session —
// snapshot base, WAL records folded on top, the rebuilt fabric verified
// frame by frame — back into the registry, so a crashed or restarted
// daemon resumes exactly the sessions it acknowledged. Graceful
// shutdown flushes a final snapshot per session (drainSessions), so a
// clean restart replays from snapshots alone.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	floorplanner "repro"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/session"
)

// recoverSessions rebuilds every session persisted under SessionDir.
// Failures are per-session: a directory that cannot be recovered is
// logged and left in place for inspection, and the daemon serves on.
func (s *Server) recoverSessions() {
	entries, err := os.ReadDir(s.cfg.SessionDir)
	if err != nil {
		if !os.IsNotExist(err) {
			s.log.Error("session recovery: reading session dir", "dir", s.cfg.SessionDir, "err", err)
		}
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.SessionDir, e.Name())
		// A session idle past the TTL would have been evicted had the
		// daemon stayed up; purge it instead of resurrecting it.
		if idle, ok := dirIdle(dir); ok && idle > s.cfg.SessionTTL {
			s.metrics.sessionsExpired.Add(1)
			if err := os.RemoveAll(dir); err != nil {
				s.log.Error("session recovery: purging expired session", "dir", dir, "err", err)
			} else {
				s.log.Info("session recovery: purged expired session", "id", e.Name(), "idle", idle.Round(time.Second))
			}
			continue
		}
		if err := s.recoverSession(dir, e.Name()); err != nil {
			s.log.Error("session recovery failed", "id", e.Name(), "err", err)
			s.emitRecoveryEvent(e.Name(), nil, err)
		}
	}
}

// recoverSession replays one session directory back into the registry.
func (s *Server) recoverSession(dir, name string) error {
	store, err := session.OpenStore(dir)
	if err != nil {
		return err
	}
	lr, err := store.Load()
	if err != nil {
		store.Close()
		return err
	}
	if lr.State == nil && len(lr.Records) == 0 {
		// Nothing was ever persisted — an aborted creation; clean it up.
		return store.Purge()
	}
	if lr.State == nil {
		store.Close()
		return fmt.Errorf("events without a snapshot base")
	}
	meta := lr.State.Meta
	if meta.ID == "" {
		meta.ID = name
	}
	dev, err := sessionDevice(meta.Device)
	if err != nil {
		store.Close()
		return err
	}
	var engine core.Engine
	if meta.Engine != "" {
		engine, err = floorplanner.NewEngine(meta.Engine)
		if err != nil {
			store.Close()
			return err
		}
	}
	mgr, rep, err := session.Restore(session.Config{
		Device:         dev,
		Engine:         engine,
		FragThreshold:  meta.FragThreshold,
		DefragCooldown: meta.DefragCooldown,
		SolveBudget:    time.Duration(meta.SolveBudgetMS) * time.Millisecond,
		Store:          store,
		SnapshotEvery:  s.cfg.SessionSnapshotEvery,
		Faults:         s.cfg.SessionFaults,
	}, lr)
	if err != nil {
		store.Close()
		return err
	}
	ls := &liveSession{
		id:      meta.ID,
		device:  dev.Name(),
		engine:  meta.Engine,
		created: meta.CreatedAt,
		mgr:     mgr,
	}
	if err := s.sessions.add(ls); err != nil {
		mgr.Close()
		return fmt.Errorf("registering recovered session: %w", err)
	}
	s.metrics.sessionRecoveries.Add(1)
	s.metrics.sessionReplays.Add(int64(rep.WALRecords))
	s.log.Info("session recovered",
		"session_id", ls.id,
		"device", ls.device,
		"live", rep.Live,
		"snapshot_events", rep.SnapshotEvents,
		"wal_records", rep.WALRecords,
		"frames_verified", rep.FramesVerified,
		"torn_tail", rep.TornTail != "",
	)
	s.emitRecoveryEvent(ls.id, rep, nil)
	return nil
}

// emitRecoveryEvent records one recovery outcome, so recoveries land in
// the same flight ring and export stream as solves and session batches.
func (s *Server) emitRecoveryEvent(id string, rep *session.RecoveryReport, err error) {
	rec := flight.Record{
		Key:      id,
		Engine:   "session",
		Outcome:  "ok",
		Kind:     "recovery",
		Endpoint: "startup",
	}
	if rep != nil {
		rec.Session = &flight.SessionStats{
			SessionID:       id,
			Events:          rep.SnapshotEvents,
			WALRecords:      rep.WALRecords,
			CorruptedFrames: rep.CorruptedFrames,
		}
	}
	if err != nil {
		rec.Outcome = "error"
		rec.Err = err.Error()
	}
	s.record(rec)
}

// drainSessions flushes a final snapshot for every live session and
// closes their stores — the graceful-shutdown half of durability.
// Returns how many sessions flushed cleanly and the first error.
func (s *Server) drainSessions() (int, error) {
	var firstErr error
	flushed := 0
	for _, ls := range s.sessions.list() {
		if err := ls.mgr.Close(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("draining session %s: %w", ls.id, err)
			}
			s.log.Error("session drain: final snapshot failed", "session_id", ls.id, "err", err)
			continue
		}
		flushed++
	}
	return flushed, firstErr
}

// dirIdle returns how long ago the directory's newest file was
// modified; ok is false for an empty or unreadable directory.
func dirIdle(dir string) (time.Duration, bool) {
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		return 0, false
	}
	var newest time.Time
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		if info.ModTime().After(newest) {
			newest = info.ModTime()
		}
	}
	if newest.IsZero() {
		return 0, false
	}
	return time.Since(newest), true
}
