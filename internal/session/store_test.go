package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/device"
)

// memFS is an in-memory store directory that records every write and
// fsync, so a test can rebuild the file images a crash could leave
// after any of them. Each file has a volatile image (what reads see)
// and a durable one (what its last Sync made stable).
type memFS struct {
	volatile map[string][]byte
	durable  map[string][]byte
	opens    int
	// recording gates ops; acked is stamped on each op as it happens.
	recording bool
	acked     int
	ops       []memOp
}

// memOp is one recorded WriteAt (data non-nil) or Sync of a file.
type memOp struct {
	file  string
	off   int64
	data  []byte
	acked int // events acknowledged before the op began
}

func newMemFS(files map[string][]byte) *memFS {
	fs := &memFS{volatile: map[string][]byte{}, durable: map[string][]byte{}}
	for name, b := range files {
		fs.volatile[name] = bytes.Clone(b)
		fs.durable[name] = bytes.Clone(b)
	}
	return fs
}

func (fs *memFS) openFile(name string) (storeFile, bool, error) {
	fs.opens++
	_, ok := fs.volatile[name]
	if !ok {
		fs.volatile[name] = []byte{}
		fs.durable[name] = []byte{}
	}
	return &memFile{fs: fs, name: name}, !ok, nil
}

func (fs *memFS) syncDir() error { return nil }

type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	b := f.fs.volatile[f.name]
	if off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.recording {
		f.fs.ops = append(f.fs.ops, memOp{file: f.name, off: off, data: bytes.Clone(p), acked: f.fs.acked})
	}
	f.fs.volatile[f.name] = writeAt(f.fs.volatile[f.name], p, off)
	return len(p), nil
}

func (f *memFile) Sync() error {
	if f.fs.recording {
		f.fs.ops = append(f.fs.ops, memOp{file: f.name, acked: f.fs.acked})
	}
	f.fs.durable[f.name] = bytes.Clone(f.fs.volatile[f.name])
	return nil
}

func (f *memFile) Close() error { return nil }

// writeAt returns b with p written at off, grown as needed.
func writeAt(b, p []byte, off int64) []byte {
	if end := int(off) + len(p); end > len(b) {
		b = append(b, make([]byte, end-len(b))...)
	}
	copy(b[off:], p)
	return b
}

// cloneFiles deep-copies a set of file images.
func cloneFiles(files map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(files))
	for name, b := range files {
		out[name] = bytes.Clone(b)
	}
	return out
}

// imageKey fingerprints a set of file images for deduplication.
func imageKey(files map[string][]byte) string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s:%d:%08x;", name, len(files[name]), crc32.ChecksumIEEE(files[name]))
	}
	return sb.String()
}

// tearPoints returns the byte counts at which a crash tears write p:
// inside its frame header and inside its payload, plus one byte short
// of whole.
func tearPoints(p []byte) []int {
	hdr := 0
	if bytes.HasPrefix(p, []byte(walMagic)) {
		hdr = len(walMagic)
	}
	var out []int
	for _, k := range []int{hdr + 3, hdr + 8 + (len(p)-hdr-8)/2, len(p) - 1} {
		if k > 0 && k < len(p) && (len(out) == 0 || out[len(out)-1] < k) {
			out = append(out, k)
		}
	}
	return out
}

// crashImage is the directory a crash left, and how many events had
// been acknowledged when it struck.
type crashImage struct {
	files map[string][]byte
	acked int
	what  string
}

// crashImages replays the recorded ops from the starting images and,
// for every WriteAt and Sync, returns the distinct images a crash at
// that op can leave: the write lost, torn inside its header or payload,
// or whole but unsynced — each over both the volatile and the durable
// state of the other writes.
func crashImages(start map[string][]byte, ops []memOp) []crashImage {
	volatile, durable := cloneFiles(start), cloneFiles(start)
	seen := map[string]bool{}
	var out []crashImage
	add := func(files map[string][]byte, acked int, what string) {
		if key := imageKey(files); !seen[key] {
			seen[key] = true
			out = append(out, crashImage{files: cloneFiles(files), acked: acked, what: what})
		}
	}
	for i, op := range ops {
		bases := []map[string][]byte{volatile}
		if imageKey(durable) != imageKey(volatile) {
			bases = append(bases, durable)
		}
		for _, base := range bases {
			add(base, op.acked, fmt.Sprintf("op %d: lost", i))
			if op.data == nil {
				continue
			}
			for _, k := range tearPoints(op.data) {
				img := cloneFiles(base)
				img[op.file] = writeAt(img[op.file], op.data[:k], op.off)
				add(img, op.acked, fmt.Sprintf("op %d: %s torn at %d of %d bytes", i, op.file, k, len(op.data)))
			}
			img := cloneFiles(base)
			img[op.file] = writeAt(img[op.file], op.data, op.off)
			add(img, op.acked, fmt.Sprintf("op %d: %s whole, unsynced", i, op.file))
		}
		if op.data != nil {
			volatile[op.file] = writeAt(volatile[op.file], op.data, op.off)
		} else {
			durable[op.file] = bytes.Clone(volatile[op.file])
		}
	}
	return out
}

// TestStoreCrashStates is a scoped ALICE check (Pillai et al., OSDI
// 2014) of the store: a seeded event stream runs over an in-memory
// directory that records every write and fsync, and every image a crash
// could leave at any of them must load and restore to a prefix of the
// stream that holds every acknowledged event, frame for frame equal to
// an uncrashed replay of that prefix.
func TestStoreCrashStates(t *testing.T) {
	dev := device.VirtexFX70T()
	cfg := Config{Device: dev, FragThreshold: 0.55, DefragCooldown: 6, SnapshotEvery: 8}
	workload := GenerateWorkload(WorkloadConfig{Seed: 5, Events: 60, Intensity: 0.6, Device: dev})

	// digests[n] is the uncrashed replay's frame digest after n events.
	control := newTestManager(t, cfg)
	digests := []uint32{control.FrameDigest()}
	for _, ev := range workload {
		if _, err := control.Apply(ev); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, control.FrameDigest())
	}

	fs := newMemFS(nil)
	store, err := openStore("crash", fs)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := cfg
	dcfg.Store = store
	dcfg.Meta = Meta{ID: "crash", Device: dev.Name()}
	m, err := New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	start := cloneFiles(fs.durable)
	fs.recording = true
	for _, ev := range workload {
		if _, err := m.Apply(ev); err != nil {
			t.Fatal(err)
		}
		fs.acked++
	}
	if fs.opens != 3 {
		t.Fatalf("store opened %d files, want its 3 files opened once", fs.opens)
	}
	if got := m.Stats().Snapshots; got < 60/8 {
		t.Fatalf("%d snapshots over 60 events at SnapshotEvery 8", got)
	}

	images := crashImages(start, fs.ops)
	t.Logf("%d ops, %d distinct crash images", len(fs.ops), len(images))
	for _, img := range images {
		rstore, err := openStore("crash", newMemFS(img.files))
		if err != nil {
			t.Fatalf("%s: open: %v", img.what, err)
		}
		lr, err := rstore.Load()
		if err != nil {
			t.Fatalf("%s: load: %v", img.what, err)
		}
		rcfg := cfg
		rcfg.Store = rstore
		restored, rep, err := Restore(rcfg, lr)
		if err != nil {
			t.Fatalf("%s: restore: %v (report %+v)", img.what, err, rep)
		}
		n := restored.Stats().Events
		if n < img.acked || n > img.acked+1 {
			t.Fatalf("%s: recovered %d events, %d were acknowledged", img.what, n, img.acked)
		}
		if got := restored.FrameDigest(); got != digests[n] {
			t.Fatalf("%s: digest %08x after recovering %d events, replay %08x", img.what, got, n, digests[n])
		}
	}
}

// durableRun applies events to a fresh durable session in dir and
// returns it with its store, left open.
func durableRun(t *testing.T, dir string, cfg Config, events []Event) (*Manager, *Store) {
	t.Helper()
	m, store := newDurableManager(t, dir, cfg)
	for _, ev := range events {
		if _, err := m.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	return m, store
}

// flipNewestSlot flips one payload bit of the store's newest snapshot.
func flipNewestSlot(t *testing.T, dir string, store *Store) {
	t.Helper()
	path := filepath.Join(dir, slotFiles[store.newest])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(walMagic)+8+20] ^= 0x04
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRejectsLostNewestSnapshot: when the newest slot rots after
// records of its generation were appended, those acknowledged events
// have no base left — Load must fail, not replay the older slot with
// zero records. Before any such record, the older slot and its log
// still hold everything, and recovery falls back to them.
func TestLoadRejectsLostNewestSnapshot(t *testing.T) {
	dev := device.VirtexFX70T()
	cfg := Config{Device: dev, FragThreshold: -1, SnapshotEvery: 8}
	workload := GenerateWorkload(WorkloadConfig{Seed: 3, Events: 20, Intensity: 0.5, Device: dev})

	dir := t.TempDir()
	_, store := durableRun(t, dir, cfg, workload) // snapshots after events 8 and 16
	store.Close()
	flipNewestSlot(t, dir, store)
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Load(); err == nil || !strings.Contains(err.Error(), "newer than every valid snapshot") {
		t.Fatalf("load with a rotted newest slot and 4 records of its generation: err = %v", err)
	}
	reopened.Close()

	dir = t.TempDir()
	m, store := durableRun(t, dir, cfg, workload[:16])
	digest := m.FrameDigest()
	store.Close()
	flipNewestSlot(t, dir, store)
	restored, rep := reload(t, dir, cfg)
	if rep.WALRecords != 8 || restored.Stats().Events != 16 {
		t.Fatalf("fallback to the older slot replayed %d records to %d events, want 8 to 16", rep.WALRecords, restored.Stats().Events)
	}
	if got := restored.FrameDigest(); got != digest {
		t.Fatalf("digest %08x after falling back to the older slot, want %08x", got, digest)
	}
}

// TestStoreRecoversParentLayout: a directory written before snapshot
// generations existed — one snapshot.wal frame and an events.wal that
// ends at end of file, neither carrying a "gen" field — restores to the
// in-memory replay's fabric, and keeps taking events afterwards.
func TestStoreRecoversParentLayout(t *testing.T) {
	dev := device.VirtexFX70T()
	cfg := Config{Device: dev, FragThreshold: 0.55, DefragCooldown: 6, SnapshotEvery: 1 << 20}
	workload := GenerateWorkload(WorkloadConfig{Seed: 9, Events: 50, Intensity: 0.6, Device: dev})

	// A durable run yields the snapshot and records to re-encode.
	src := t.TempDir()
	_, store := durableRun(t, src, cfg, workload[:40])
	lr, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	if len(lr.Records) != 40 {
		t.Fatalf("source run logged %d records, want 40", len(lr.Records))
	}

	dir := t.TempDir()
	write := func(name string, payloads ...any) {
		var buf bytes.Buffer
		buf.WriteString(walMagic)
		for _, p := range payloads {
			b, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(b, []byte(`"gen"`)) {
				t.Fatalf("%s payload still carries a generation", name)
			}
			if err := writeWALFrame(&buf, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lr.State.Gen = 0
	write("snapshot.wal", lr.State)
	records := make([]any, len(lr.Records))
	for i, rec := range lr.Records {
		rec.Gen = 0
		records[i] = rec
	}
	write(eventsFile, records...)

	control := newTestManager(t, cfg)
	for _, ev := range workload[:40] {
		if _, err := control.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	restored, rep := reload(t, dir, cfg)
	if rep.WALRecords != 40 || rep.TornTail != "" {
		t.Fatalf("recovery report = %+v", rep)
	}
	if got, want := restored.FrameDigest(), control.FrameDigest(); got != want {
		t.Fatalf("parent-layout digest %08x, replay %08x", got, want)
	}
	for _, ev := range workload[40:] {
		if _, err := restored.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if _, err := control.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
	again, _ := reload(t, dir, cfg)
	if got, want := again.FrameDigest(), control.FrameDigest(); got != want {
		t.Fatalf("digest %08x after the converted directory's own snapshots, replay %08x", got, want)
	}
}

// TestStoreKeepsItsFiles: after creation the store only rewrites its
// three files in place — across 200 events and 25 snapshots each keeps
// its inode, and no other file ever appears.
func TestStoreKeepsItsFiles(t *testing.T) {
	dev := device.VirtexFX70T()
	dir := t.TempDir()
	names := []string{slotFiles[0], slotFiles[1], eventsFile}
	m, store := newDurableManager(t, dir, Config{Device: dev, FragThreshold: 0.55, SnapshotEvery: 8})
	stat := func() []os.FileInfo {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(names) {
			t.Fatalf("store directory holds %d entries, want %v", len(entries), names)
		}
		var out []os.FileInfo
		for _, name := range names {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fi)
		}
		return out
	}
	before := stat()
	for _, ev := range GenerateWorkload(WorkloadConfig{Seed: 4, Events: 200, Intensity: 0.6, Device: dev}) {
		if _, err := m.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats().Snapshots; got != 1+200/8 {
		t.Fatalf("%d snapshots, want %d", got, 1+200/8)
	}
	after := stat()
	for i, name := range names {
		if !os.SameFile(before[i], after[i]) {
			t.Fatalf("%s was replaced during the stream", name)
		}
	}
	store.Close()
}

// TestLoadGenerations pins how Load pairs snapshot slots with log
// records by generation, on hand-built images.
func TestLoadGenerations(t *testing.T) {
	image := func(payloads ...string) []byte {
		var buf bytes.Buffer
		buf.WriteString(walMagic)
		for _, p := range payloads {
			if p == "END" {
				buf.Write(walEnd[:])
				continue
			}
			if err := writeWALFrame(&buf, []byte(p)); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	snap := func(gen int) string { return fmt.Sprintf(`{"gen":%d,"meta":{"id":"g%d"}}`, gen, gen) }
	rec := func(gen, seq int) string { return fmt.Sprintf(`{"gen":%d,"result":{"seq":%d}}`, gen, seq) }
	for _, tc := range []struct {
		name         string
		slot0, slot1 []byte
		log          []byte
		wantID       string
		wantSeqs     []int
		wantErr      string
	}{
		{name: "restarted log not yet overwritten", slot0: image(snap(1)), slot1: image(snap(2)),
			log: image(rec(1, 1), rec(1, 2), "END"), wantID: "g2"},
		{name: "end marker hides stale records", slot0: image(snap(3)), slot1: image(snap(2)),
			log: image(rec(3, 9), "END", rec(2, 5), rec(2, 6), "END"), wantID: "g3", wantSeqs: []int{9}},
		{name: "older record past a lost marker is a clean end", slot0: image(snap(3)), slot1: image(snap(2)),
			log: image(rec(3, 9), rec(2, 5), "END"), wantID: "g3", wantSeqs: []int{9}},
		{name: "torn newer slot falls back", slot0: image(snap(2)), slot1: image(snap(3))[:40],
			log: image(rec(2, 4), rec(2, 5), "END"), wantID: "g2", wantSeqs: []int{4, 5}},
		{name: "parent layout reads as generation 0", slot0: image(`{"meta":{"id":"g0"}}`),
			log: image(`{"result":{"seq":1}}`, `{"result":{"seq":2}}`), wantID: "g0", wantSeqs: []int{1, 2}},
		{name: "record newer than every snapshot", slot0: image(snap(2)), slot1: image(snap(3))[:40],
			log: image(rec(3, 7), "END"), wantErr: "newer than every valid snapshot"},
		{name: "no valid snapshot", slot0: image(snap(1))[:30], log: image("END"), wantErr: "unreadable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string][]byte{eventsFile: tc.log}
			for i, b := range [][]byte{tc.slot0, tc.slot1} {
				if b != nil {
					files[slotFiles[i]] = b
				}
			}
			store, err := openStore("gen", newMemFS(files))
			if err != nil {
				t.Fatal(err)
			}
			lr, err := store.Load()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if lr.Torn != nil {
				t.Fatalf("clean image reported torn: %v", lr.Torn)
			}
			var seqs []int
			for _, r := range lr.Records {
				seqs = append(seqs, r.Result.Seq)
			}
			if lr.State.Meta.ID != tc.wantID || fmt.Sprint(seqs) != fmt.Sprint(tc.wantSeqs) {
				t.Fatalf("loaded snapshot %q with records %v, want %q with %v", lr.State.Meta.ID, seqs, tc.wantID, tc.wantSeqs)
			}
		})
	}
}
