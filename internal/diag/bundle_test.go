package diag

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// readBundle unpacks a tar.gz into name→contents.
func readBundle(t *testing.T, data []byte) (files map[string][]byte, order []string) {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("bundle not gzipped: %v", err)
	}
	tr := tar.NewReader(zr)
	files = map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("tar: %v", err)
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("tar read %s: %v", hdr.Name, err)
		}
		files[hdr.Name] = b
		order = append(order, hdr.Name)
	}
	return files, order
}

func listBundles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "bundle-") && strings.HasSuffix(e.Name(), ".tar.gz") {
			names = append(names, e.Name())
		}
	}
	return names
}

func TestBundleTriggerRateLimitAndContents(t *testing.T) {
	dir := t.TempDir()
	b := NewBundler(BundlerConfig{
		Dir:         dir,
		MinInterval: time.Hour,
		CPUDuration: 10 * time.Millisecond,
		Meta:        map[string]string{"service": "floorpland-test"},
		Artifacts: func() []Artifact {
			return []Artifact{
				{Name: "flight.json", Write: func(w io.Writer) error {
					_, err := io.WriteString(w, `[{"seq":1,"outcome":"panic"}]`)
					return err
				}},
				{Name: "broken.json", Write: func(io.Writer) error {
					return io.ErrUnexpectedEOF
				}},
			}
		},
	})
	defer b.Close()

	b.Trigger("panic", "engine exact seq 1")
	// Inside the rate-limit window: counted, not captured.
	b.Trigger("budget-overrun", "again")

	deadline := time.Now().Add(10 * time.Second)
	for len(listBundles(t, dir)) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no bundle captured in 10s; stats %+v", b.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Give the worker a beat, then assert exactly one bundle.
	time.Sleep(50 * time.Millisecond)
	names := listBundles(t, dir)
	if len(names) != 1 {
		t.Fatalf("bundles on disk = %v, want exactly 1", names)
	}

	st := b.Stats()
	if st.Captured["panic"] != 1 || st.RateLimited != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}

	data, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	files, order := readBundle(t, data)
	if len(order) == 0 || order[0] != "manifest.json" {
		t.Fatalf("manifest.json not first: %v", order)
	}
	var man Manifest
	if err := json.Unmarshal(files["manifest.json"], &man); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if man.Schema != ManifestSchema || man.Trigger != "panic" || man.Note != "engine exact seq 1" {
		t.Fatalf("manifest = %+v", man)
	}
	if man.Meta["service"] != "floorpland-test" {
		t.Fatalf("meta lost: %+v", man.Meta)
	}
	if string(files["flight.json"]) != `[{"seq":1,"outcome":"panic"}]` {
		t.Fatalf("flight.json = %q", files["flight.json"])
	}
	// The failing artifact degrades to a manifest note, not an error.
	if _, ok := files["broken.json"]; ok {
		t.Fatal("failing artifact was included")
	}
	foundNote := false
	for _, n := range man.Notes {
		if strings.Contains(n, "broken.json") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Fatalf("no manifest note for failed artifact: %v", man.Notes)
	}
	if cpu, ok := files["cpu.pprof"]; ok {
		assertCPUProfile(t, pprofTool(t, cpu, "-raw"))
	} else if len(man.Notes) == 0 {
		t.Fatal("bundle has neither cpu.pprof nor a skip note")
	}
	if _, ok := files["heap.pprof"]; !ok {
		t.Fatal("heap.pprof missing")
	}
	if g, ok := files["goroutines.txt"]; !ok || !bytes.Contains(g, []byte("goroutine")) {
		t.Fatal("goroutines.txt missing or empty")
	}
	for _, name := range man.Contents {
		if _, ok := files[name]; !ok {
			t.Fatalf("manifest lists %s but bundle lacks it", name)
		}
	}
}

func TestCaptureBypassesRateLimit(t *testing.T) {
	b := NewBundler(BundlerConfig{MinInterval: time.Hour, CPUDuration: 5 * time.Millisecond})
	defer b.Close()

	// No Dir: triggers are no-ops, synchronous capture still works.
	b.Trigger("panic", "ignored")
	data, name, err := b.Capture("manual", "debug handler")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(name, "bundle-") || len(data) == 0 {
		t.Fatalf("capture = %q, %d bytes", name, len(data))
	}
	data2, _, err := b.Capture("manual", "again inside the window")
	if err != nil || len(data2) == 0 {
		t.Fatalf("second capture: %v", err)
	}
	st := b.Stats()
	if st.Captured["manual"] != 2 || st.Captured["panic"] != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBundleRotation(t *testing.T) {
	dir := t.TempDir()
	b := NewBundler(BundlerConfig{Dir: dir, Keep: 2, CPUDuration: time.Millisecond})
	defer b.Close()
	for i := 0; i < 4; i++ {
		if _, _, err := b.Capture("manual", ""); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * time.Millisecond) // distinct millisecond timestamps
	}
	names := listBundles(t, dir)
	if len(names) != 2 {
		t.Fatalf("rotation kept %d bundles: %v", len(names), names)
	}
}

func TestTriggerAfterCloseIsSafe(t *testing.T) {
	b := NewBundler(BundlerConfig{Dir: t.TempDir(), CPUDuration: time.Millisecond})
	b.Close()
	b.Close() // idempotent
	b.Trigger("panic", "after close")
}

// TestCaptureCPUProfileIsValidPprof: a real capture is a CPU profile the
// toolchain's pprof reads.
func TestCaptureCPUProfileIsValidPprof(t *testing.T) {
	raw, err := CaptureCPUProfile(50*time.Millisecond, nil)
	if err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	assertCPUProfile(t, pprofTool(t, raw, "-raw"))
}
