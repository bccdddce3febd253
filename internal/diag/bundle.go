package diag

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// ManifestSchema versions the bundle layout.
const ManifestSchema = "floorpland-diag/1"

// cpuMu serializes CPU-profile capture: the runtime allows only one
// StartCPUProfile at a time process-wide, and every bundler in the
// process wants one.
var cpuMu sync.Mutex

// CaptureCPUProfile records a CPU profile for d (or until cancel
// closes) and returns the gzipped protobuf bytes. It serializes with
// every other capture in the process; if something outside this package
// holds the profiler, it returns an error rather than waiting for it.
func CaptureCPUProfile(d time.Duration, cancel <-chan struct{}) ([]byte, error) {
	cpuMu.Lock()
	defer cpuMu.Unlock()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("diag: start cpu profile: %w", err)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-cancel:
	}
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// Artifact is one extra file a bundle host contributes (flight ring,
// SLO state, metrics, ...). Write must be safe to call from the
// bundler's worker goroutine.
type Artifact struct {
	Name  string
	Write func(io.Writer) error
}

// BundlerConfig configures the capture pipeline.
type BundlerConfig struct {
	// Dir is where bundles land. Empty disables async triggers and
	// on-disk persistence; synchronous Capture still works (in-memory),
	// which is what GET /debug/bundle uses.
	Dir string
	// Keep bounds how many bundles stay on disk (default 8).
	Keep int
	// MinInterval rate-limits anomaly-triggered captures (default 1m).
	MinInterval time.Duration
	// CPUDuration is the live CPU profile window per bundle (250ms
	// default).
	CPUDuration time.Duration
	// Meta is build/deploy provenance recorded in the manifest.
	Meta map[string]string
	// Artifacts returns the host's extra files, called at capture time.
	Artifacts func() []Artifact
	// Logger receives capture failures (discarded when nil).
	Logger *slog.Logger
}

// Manifest is bundle-internal metadata, written first as manifest.json.
type Manifest struct {
	Schema     string            `json:"schema"`
	Trigger    string            `json:"trigger"`
	Note       string            `json:"note,omitempty"`
	CapturedAt time.Time         `json:"captured_at"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	CPUs       int               `json:"cpus"`
	Hostname   string            `json:"hostname,omitempty"`
	Meta       map[string]string `json:"meta,omitempty"`
	Contents   []string          `json:"contents"`
	Notes      []string          `json:"notes,omitempty"`
}

// BundleStats is the bundler's exported state, rendered into the
// floorpland_diag_* metric families.
type BundleStats struct {
	Captured    map[string]int64 // by trigger cause
	Errors      int64
	RateLimited int64
	Dropped     int64
}

type bundleReq struct {
	cause string
	note  string
}

// Bundler is the rate-limited diagnostic-bundle capture pipeline.
// Trigger is async and cheap (anomaly paths call it inline); Capture is
// synchronous (debug handler, SIGUSR2, tests).
type Bundler struct {
	cfg  BundlerConfig
	reqs chan bundleReq
	done chan struct{}

	mu       sync.Mutex
	last     time.Time
	captured map[string]int64
	errors   int64
	limited  int64
	dropped  int64
	closed   bool
}

// NewBundler starts the capture worker.
func NewBundler(cfg BundlerConfig) *Bundler {
	if cfg.Keep <= 0 {
		cfg.Keep = 8
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = time.Minute
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 250 * time.Millisecond
	}
	b := &Bundler{
		cfg:      cfg,
		reqs:     make(chan bundleReq, 2),
		done:     make(chan struct{}),
		captured: make(map[string]int64),
	}
	go b.worker()
	return b
}

func (b *Bundler) worker() {
	defer close(b.done)
	for req := range b.reqs {
		if _, _, err := b.Capture(req.cause, req.note); err != nil && b.cfg.Logger != nil {
			b.cfg.Logger.Warn("diag bundle capture failed",
				"trigger", req.cause, "err", err)
		}
	}
}

// Trigger requests an anomaly bundle. It never blocks: requests inside
// the rate-limit window are counted and discarded, and a full queue
// drops the request. No-op when the bundler has no directory.
func (b *Bundler) Trigger(cause, note string) {
	if b.cfg.Dir == "" {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	if !b.last.IsZero() && time.Since(b.last) < b.cfg.MinInterval {
		b.limited++
		b.mu.Unlock()
		return
	}
	// Reserve the window now so a burst of triggers yields one bundle
	// even though capture itself runs on the worker goroutine.
	b.last = time.Now()
	b.mu.Unlock()

	select {
	case b.reqs <- bundleReq{cause: cause, note: note}:
	default:
		b.mu.Lock()
		b.dropped++
		b.mu.Unlock()
	}
}

// Capture builds a bundle synchronously, bypassing the rate limit (it
// still resets the window, so a manual capture quiets anomaly triggers
// for MinInterval). The bundle bytes and file name are returned; the
// file is persisted (and rotation applied) only when Dir is set.
func (b *Bundler) Capture(cause, note string) (data []byte, name string, err error) {
	now := time.Now().UTC()
	b.mu.Lock()
	b.last = now
	b.mu.Unlock()

	data, manifest, buildErr := b.build(cause, note, now)
	if buildErr != nil {
		b.mu.Lock()
		b.errors++
		b.mu.Unlock()
		return nil, "", buildErr
	}
	name = fmt.Sprintf("bundle-%s.tar.gz", now.Format("20060102T150405.000Z0700"))

	if b.cfg.Dir != "" {
		if err := os.MkdirAll(b.cfg.Dir, 0o755); err != nil {
			b.countError()
			return nil, "", fmt.Errorf("diag: bundle dir: %w", err)
		}
		if err := os.WriteFile(filepath.Join(b.cfg.Dir, name), data, 0o644); err != nil {
			b.countError()
			return nil, "", fmt.Errorf("diag: write bundle: %w", err)
		}
		b.rotate()
	}

	b.mu.Lock()
	b.captured[cause]++
	b.mu.Unlock()
	if b.cfg.Logger != nil {
		b.cfg.Logger.Info("diag bundle captured",
			"trigger", cause, "bundle", name, "bytes", len(data),
			"contents", len(manifest.Contents))
	}
	return data, name, nil
}

func (b *Bundler) countError() {
	b.mu.Lock()
	b.errors++
	b.mu.Unlock()
}

// build assembles the tar.gz in memory.
func (b *Bundler) build(cause, note string, now time.Time) ([]byte, *Manifest, error) {
	man := &Manifest{
		Schema:     ManifestSchema,
		Trigger:    cause,
		Note:       note,
		CapturedAt: now,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Meta:       b.cfg.Meta,
	}
	if hn, err := os.Hostname(); err == nil {
		man.Hostname = hn
	}

	type file struct {
		name string
		data []byte
	}
	var files []file
	add := func(name string, data []byte) {
		files = append(files, file{name, data})
		man.Contents = append(man.Contents, name)
	}

	// Live CPU profile of the anomaly's aftermath. Degrades to a
	// manifest note when the profiler is busy (e.g. an external
	// StartCPUProfile holder) rather than failing the whole bundle.
	if cpu, err := CaptureCPUProfile(b.cfg.CPUDuration, nil); err == nil {
		add("cpu.pprof", cpu)
	} else {
		man.Notes = append(man.Notes, fmt.Sprintf("cpu.pprof skipped: %v", err))
	}

	var heap bytes.Buffer
	if p := pprof.Lookup("heap"); p != nil {
		if err := p.WriteTo(&heap, 0); err == nil {
			add("heap.pprof", append([]byte(nil), heap.Bytes()...))
		}
	}
	var goroutines bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		if err := p.WriteTo(&goroutines, 2); err == nil {
			add("goroutines.txt", append([]byte(nil), goroutines.Bytes()...))
		}
	}

	if b.cfg.Artifacts != nil {
		for _, a := range b.cfg.Artifacts() {
			var buf bytes.Buffer
			if err := a.Write(&buf); err != nil {
				man.Notes = append(man.Notes, fmt.Sprintf("%s skipped: %v", a.Name, err))
				continue
			}
			add(a.Name, append([]byte(nil), buf.Bytes()...))
		}
	}

	manJSON, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, nil, fmt.Errorf("diag: marshal manifest: %w", err)
	}

	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	tw := tar.NewWriter(zw)
	write := func(name string, data []byte) error {
		hdr := &tar.Header{
			Name:    name,
			Mode:    0o644,
			Size:    int64(len(data)),
			ModTime: now,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	if err := write("manifest.json", manJSON); err != nil {
		return nil, nil, fmt.Errorf("diag: tar manifest: %w", err)
	}
	for _, f := range files {
		if err := write(f.name, f.data); err != nil {
			return nil, nil, fmt.Errorf("diag: tar %s: %w", f.name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return nil, nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, nil, err
	}
	return out.Bytes(), man, nil
}

// rotate removes the oldest bundles beyond Keep. Timestamped names sort
// chronologically, so lexical order is capture order.
func (b *Bundler) rotate() {
	entries, err := os.ReadDir(b.cfg.Dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "bundle-") && strings.HasSuffix(n, ".tar.gz") {
			names = append(names, n)
		}
	}
	if len(names) <= b.cfg.Keep {
		return
	}
	sort.Strings(names)
	for _, n := range names[:len(names)-b.cfg.Keep] {
		os.Remove(filepath.Join(b.cfg.Dir, n))
	}
}

// Stats snapshots capture counters.
func (b *Bundler) Stats() BundleStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BundleStats{
		Captured:    make(map[string]int64, len(b.captured)),
		Errors:      b.errors,
		RateLimited: b.limited,
		Dropped:     b.dropped,
	}
	for k, v := range b.captured {
		st.Captured[k] = v
	}
	return st
}

// Close drains the worker. Further Triggers are ignored.
func (b *Bundler) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.reqs)
	<-b.done
}
