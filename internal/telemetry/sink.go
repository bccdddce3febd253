package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/flight"
)

// FileSink writes records as JSON lines to a size-rotated file: when the
// live file exceeds MaxBytes it is renamed to <path>.1 (shifting older
// rotations up, dropping the one past Keep) and a fresh file is opened.
// One record is one line, so the log greps and tails cleanly.
type FileSink struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	keep     int
	f        *os.File
	size     int64
}

// Defaults for NewFileSink's non-positive arguments.
const (
	DefaultSinkMaxBytes = 8 << 20
	DefaultSinkKeep     = 2
)

// NewFileSink opens (appending) the events file at path. maxBytes <= 0
// uses DefaultSinkMaxBytes; keep <= 0 uses DefaultSinkKeep rotated
// files.
func NewFileSink(path string, maxBytes int64, keep int) (*FileSink, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultSinkMaxBytes
	}
	if keep <= 0 {
		keep = DefaultSinkKeep
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: opening events sink: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("telemetry: stat events sink: %w", err)
	}
	return &FileSink{path: path, maxBytes: maxBytes, keep: keep, f: f, size: info.Size()}, nil
}

// WriteEvent implements Sink: one JSON line per record, rotating first
// when the live file is over budget.
func (s *FileSink) WriteEvent(rec *flight.Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("telemetry: encoding event: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("telemetry: events sink is closed")
	}
	if s.size > 0 && s.size+int64(len(line)) > s.maxBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := s.f.Write(line)
	s.size += int64(n)
	if err != nil {
		return fmt.Errorf("telemetry: writing event: %w", err)
	}
	return nil
}

// rotateLocked shifts <path>.i → <path>.i+1 (dropping the oldest),
// moves the live file to <path>.1 and reopens a fresh live file.
// Callers hold s.mu.
func (s *FileSink) rotateLocked() error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("telemetry: rotating events sink: %w", err)
	}
	os.Remove(fmt.Sprintf("%s.%d", s.path, s.keep))
	for i := s.keep - 1; i >= 1; i-- {
		// Renaming a missing rotation is fine; the chain just has a gap.
		os.Rename(fmt.Sprintf("%s.%d", s.path, i), fmt.Sprintf("%s.%d", s.path, i+1))
	}
	if err := os.Rename(s.path, s.path+".1"); err != nil {
		return fmt.Errorf("telemetry: rotating events sink: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("telemetry: reopening events sink: %w", err)
	}
	s.f, s.size = f, 0
	return nil
}

// Close flushes and closes the live file. Further writes fail.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
