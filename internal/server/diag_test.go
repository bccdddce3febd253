package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/flight"
	"repro/internal/reconfig"
	"repro/internal/session"
)

// readBundleFile parses one bundle archive into name -> contents and
// its manifest, asserting manifest.json is the first entry (operators
// stream bundles; the manifest must be readable before the rest).
func readBundleFile(t *testing.T, data []byte) (map[string][]byte, diag.Manifest) {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	files := map[string][]byte{}
	first := ""
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reading bundle tar: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("reading %s: %v", hdr.Name, err)
		}
		if first == "" {
			first = hdr.Name
		}
		files[hdr.Name] = body
	}
	if first != "manifest.json" {
		t.Fatalf("first bundle entry = %q, want manifest.json", first)
	}
	var m diag.Manifest
	if err := json.Unmarshal(files["manifest.json"], &m); err != nil {
		t.Fatalf("decoding manifest: %v", err)
	}
	if m.Schema != diag.ManifestSchema {
		t.Fatalf("manifest schema = %q, want %q", m.Schema, diag.ManifestSchema)
	}
	return files, m
}

// waitForBundles polls dir until want bundle files exist (10s cap) and
// returns their paths sorted by name.
func waitForBundles(t *testing.T, dir string, want int) []string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		paths, err := filepath.Glob(filepath.Join(dir, "bundle-*.tar.gz"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) >= want {
			return paths
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d bundles in %s after 10s, want %d", len(paths), dir, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPanicProducesExactlyOneBundle is the anomaly-pipeline acceptance
// test: two panicking solves fire two triggers, the rate limit collapses
// them into exactly one bundle on disk, and that bundle carries a
// parseable CPU profile plus the flight record of the solve that
// triggered it — joinable through the goroutine-label digest.
func TestPanicProducesExactlyOneBundle(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		Workers:            1,
		QueueSize:          8,
		CacheSize:          8,
		BreakerThreshold:   -1,
		Logger:             quietLogger(),
		DiagDir:            dir,
		DiagMinInterval:    time.Hour,
		ProfileCPUDuration: 50 * time.Millisecond,
		EventSampleRate:    1,
		Solve: func(context.Context, *core.Problem, string, core.SolveOptions) (*core.Solution, error) {
			panic("chaos strike")
		},
	})

	for seed := int64(0); seed < 2; seed++ {
		code, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{
			Problem: testProblem(t, 0), Engine: "exact", Seed: seed, TimeLimitMS: 30_000,
		})
		if code != http.StatusInternalServerError {
			t.Fatalf("panicking solve: HTTP %d, want 500", code)
		}
	}

	paths := waitForBundles(t, dir, 1)
	// Both triggers have been enqueued synchronously by now (Trigger
	// reserves the rate limit before returning); one bundle must remain.
	if len(paths) != 1 {
		t.Fatalf("bundles on disk = %v, want exactly one", paths)
	}
	// The bundle file becomes visible just before the bundler counts the
	// capture: wait for the counter to be exposed before reading it.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(scrapeMetrics(t, ts), "\nfloorpland_diag_bundles_total{trigger=\"panic\"} ") {
		if time.Now().After(deadline) {
			t.Fatal(`diag_bundles_total{trigger="panic"} not exposed 10s after the bundle appeared`)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := scrapeCounter(t, ts.Client(), ts.URL, `floorpland_diag_bundles_total{trigger="panic"}`); n != 1 {
		t.Fatalf(`diag_bundles_total{trigger="panic"} = %d, want 1`, n)
	}
	// At least the second panic trigger was rate-limited (SLO alerts
	// evaluated during capture and scrapes may add more).
	if n := scrapeCounter(t, ts.Client(), ts.URL, "floorpland_diag_rate_limited_total"); n < 1 {
		t.Fatalf("diag_rate_limited_total = %d, want >= 1", n)
	}

	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	files, manifest := readBundleFile(t, data)
	if manifest.Trigger != "panic" {
		t.Fatalf("manifest trigger = %q, want panic", manifest.Trigger)
	}
	if manifest.Meta["service"] != "floorpland" {
		t.Fatalf("manifest meta = %v, want service=floorpland", manifest.Meta)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof", "goroutines.txt", "flight.json", "slo.json", "metrics.prom"} {
		if _, ok := files[name]; !ok {
			t.Errorf("bundle lacks %s (has %v)", name, manifest.Contents)
		}
	}

	// The CPU profile must be a real CPU profile the toolchain reads.
	if raw := pprofRaw(t, files["cpu.pprof"]); !strings.Contains(raw, "PeriodType: cpu nanoseconds") ||
		!strings.Contains(raw, "cpu/nanoseconds") {
		t.Fatalf("cpu.pprof has no cpu dimension:\n%s", raw)
	}

	// The flight ring in the bundle holds the panic record, and the
	// manifest note carries its label digest — the join key that matches
	// the "ldig" goroutine label on that solve's profile samples.
	var dump flight.Dump
	if err := json.Unmarshal(files["flight.json"], &dump); err != nil {
		t.Fatalf("decoding flight.json: %v", err)
	}
	var panicRec *flight.Record
	for i := range dump.Records {
		if dump.Records[i].Outcome == "panic" {
			panicRec = &dump.Records[i]
			break
		}
	}
	if panicRec == nil {
		t.Fatal("no panic record in the bundled flight ring")
	}
	if panicRec.LabelDigest == "" {
		t.Fatal("panic flight record carries no label digest")
	}
	if !strings.Contains(manifest.Note, panicRec.LabelDigest) {
		t.Fatalf("manifest note %q does not reference label digest %s", manifest.Note, panicRec.LabelDigest)
	}

	// /debug/events serves the same record, so profiles join to the
	// event view too.
	resp, err := ts.Client().Get(ts.URL + "/debug/events?outcome=panic")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events DebugEventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events.Events) == 0 {
		t.Fatal("no panic records in /debug/events")
	}
	found := false
	for _, ev := range events.Events {
		if ev.Seq == panicRec.Seq {
			found = true
			if ev.LabelDigest != panicRec.LabelDigest {
				t.Fatalf("wide event label digest = %q, flight record has %q", ev.LabelDigest, panicRec.LabelDigest)
			}
		}
	}
	if !found {
		t.Fatalf("no wide event for flight seq %d", panicRec.Seq)
	}
}

// TestDebugBundleOnDemand: GET /debug/bundle captures synchronously,
// bypasses the anomaly rate limit, and works without a configured diag
// dir (the bytes only travel over HTTP).
func TestDebugBundleOnDemand(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:            1,
		QueueSize:          8,
		CacheSize:          8,
		Logger:             quietLogger(),
		ProfileCPUDuration: 30 * time.Millisecond,
	})

	fetch := func() ([]byte, *http.Response) {
		resp, err := ts.Client().Get(ts.URL + "/debug/bundle")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data, resp
	}

	data, resp := fetch()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/bundle: HTTP %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("content type %q, want application/gzip", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "bundle-") {
		t.Fatalf("content disposition %q names no bundle file", cd)
	}
	_, manifest := readBundleFile(t, data)
	if manifest.Trigger != "manual" {
		t.Fatalf("manifest trigger = %q, want manual", manifest.Trigger)
	}

	// A second on-demand capture must not be rate-limited away.
	if data2, resp2 := fetch(); resp2.StatusCode != http.StatusOK || len(data2) == 0 {
		t.Fatalf("second on-demand capture: HTTP %d, %d bytes", resp2.StatusCode, len(data2))
	}

	// POST is rejected.
	post, err := ts.Client().Post(ts.URL+"/debug/bundle", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/bundle: HTTP %d, want 405", post.StatusCode)
	}
}

// TestReconfigRollbackTriggersBundle: a scripted configuration-port
// fault mix that hard-fails defrag moves mid-schedule (seed 1, 10%
// stuck — deterministically 6 rollbacks over this workload) must
// produce a reconfig-rollback bundle, rate-limited to exactly one.
func TestReconfigRollbackTriggersBundle(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		Workers:            1,
		QueueSize:          8,
		CacheSize:          8,
		Logger:             quietLogger(),
		DiagDir:            dir,
		DiagMinInterval:    time.Hour,
		ProfileCPUDuration: 30 * time.Millisecond,
		SessionFaults:      &reconfig.FaultPlan{Seed: 1, PassWeight: 90, StuckWeight: 10},
	})
	client := ts.Client()

	info := createSession(t, client, ts.URL, CreateSessionRequest{Device: "fx70t", FragThreshold: 0.1})
	workload := session.GenerateWorkload(session.WorkloadConfig{
		Seed: 1, Events: 40, Intensity: 0.6, Device: device.VirtexFX70T(),
	})
	// One event per batch: a hard-failed arrival (stuck fault past the
	// retry budget) 400s its own batch without masking later events.
	for _, ev := range workload {
		var resp SessionEventsResponse
		code := sessionPost(t, client, ts.URL+"/v1/sessions/"+info.ID+"/events",
			SessionEventsRequest{Events: []session.Event{ev}}, &resp)
		if code != http.StatusOK && code != http.StatusBadRequest {
			t.Fatalf("apply event: HTTP %d", code)
		}
	}

	if got := scrapeCounter(t, client, ts.URL, "floorpland_session_rollbacks_total"); got <= 0 {
		t.Fatalf("session_rollbacks_total = %d; the fault recipe no longer rolls back", got)
	}
	paths := waitForBundles(t, dir, 1)
	if len(paths) != 1 {
		t.Fatalf("bundles on disk = %v, want exactly one (rate limit)", paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	files, manifest := readBundleFile(t, data)
	if manifest.Trigger != "reconfig-rollback" {
		t.Fatalf("manifest trigger = %q, want reconfig-rollback", manifest.Trigger)
	}
	if !strings.Contains(manifest.Note, "session "+info.ID) {
		t.Fatalf("manifest note %q does not name session %s", manifest.Note, info.ID)
	}
	if _, ok := files["flight.json"]; !ok {
		t.Fatal("rollback bundle lacks flight.json")
	}
	if st := s.bundler.Stats(); st.Captured["reconfig-rollback"] != 1 {
		t.Fatalf("bundler stats = %+v, want one reconfig-rollback capture", st)
	}
}

// TestDebugEventsFilters covers the ?kind= and ?outcome= query filters
// on /debug/events.
func TestDebugEventsFilters(t *testing.T) {
	var fail bool
	s, ts := newTestServer(t, Config{
		Workers:          1,
		QueueSize:        8,
		CacheSize:        8,
		BreakerThreshold: -1,
		Logger:           quietLogger(),
		EventSampleRate:  1, // keep every event: the filter test needs them all
		Solve: func(_ context.Context, p *core.Problem, _ string, _ core.SolveOptions) (*core.Solution, error) {
			if fail {
				panic("injected")
			}
			return fakeSolution(p), nil
		},
	})
	client := ts.Client()

	for seed := int64(0); seed < 2; seed++ {
		if code, _ := postSolve(t, client, ts.URL, SolveRequest{
			Problem: testProblem(t, 0), Engine: "exact", Seed: seed, TimeLimitMS: 30_000,
		}); code != http.StatusOK {
			t.Fatalf("ok solve: HTTP %d", code)
		}
	}
	fail = true
	if code, _ := postSolve(t, client, ts.URL, SolveRequest{
		Problem: testProblem(t, 0), Engine: "exact", Seed: 9, TimeLimitMS: 30_000,
	}); code != http.StatusInternalServerError {
		t.Fatalf("panicking solve: HTTP %d", code)
	}
	s.events.Sync()

	get := func(query string) DebugEventsResponse {
		t.Helper()
		resp, err := client.Get(ts.URL + "/debug/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/events%s: HTTP %d", query, resp.StatusCode)
		}
		var out DebugEventsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if all := get(""); len(all.Events) != 3 {
		t.Fatalf("unfiltered events = %d, want 3", len(all.Events))
	}
	panics := get("?outcome=panic")
	if len(panics.Events) != 1 || panics.Events[0].Outcome != "panic" {
		t.Fatalf("?outcome=panic returned %+v, want the one panic event", panics.Events)
	}
	oks := get("?kind=solve&outcome=solved")
	if len(oks.Events) != 2 {
		t.Fatalf("?kind=solve&outcome=solved = %d events, want 2", len(oks.Events))
	}
	for _, ev := range oks.Events {
		if ev.Kind != "solve" || ev.Outcome != "solved" {
			t.Fatalf("filter leaked event kind=%q outcome=%q", ev.Kind, ev.Outcome)
		}
	}
	if sessions := get("?kind=session"); len(sessions.Events) != 0 {
		t.Fatalf("?kind=session = %d events, want 0", len(sessions.Events))
	}
	if capped := get("?outcome=solved&n=1"); len(capped.Events) != 1 {
		t.Fatalf("?outcome=solved&n=1 = %d events, want 1", len(capped.Events))
	}

	resp, err := client.Get(ts.URL + "/debug/events?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?n=bogus: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestSIGUSR2CaptureHelper covers Server.CaptureDiagBundle, the daemon's
// SIGUSR2 entry point.
func TestSIGUSR2CaptureHelper(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{
		Workers:            1,
		QueueSize:          8,
		CacheSize:          8,
		Logger:             quietLogger(),
		DiagDir:            dir,
		ProfileCPUDuration: 20 * time.Millisecond,
	})
	path, err := s.CaptureDiagBundle("SIGUSR2")
	if err != nil {
		t.Fatalf("CaptureDiagBundle: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("bundle not on disk: %v", err)
	}
	_, manifest := readBundleFile(t, data)
	if manifest.Trigger != "signal" {
		t.Fatalf("manifest trigger = %q, want signal", manifest.Trigger)
	}

	noDir, _ := newTestServer(t, Config{Workers: 1, QueueSize: 8, CacheSize: 8, Logger: quietLogger()})
	if _, err := noDir.CaptureDiagBundle("SIGUSR2"); err == nil {
		t.Fatal("CaptureDiagBundle without a diag dir must error")
	}
}

// pprofRaw renders a profile with `go tool pprof -raw`, which reads it
// offline; the test is skipped only when no go binary is on PATH.
func pprofRaw(t *testing.T, profile []byte) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH to run go tool pprof")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, profile, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-raw", path).Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("go tool pprof -raw: %v\n%s", err, exit.Stderr)
		}
		t.Fatalf("go tool pprof -raw: %v", err)
	}
	return string(out)
}
