package session

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
)

// newDurableManager opens a store in dir and builds a manager over it.
func newDurableManager(t *testing.T, dir string, cfg Config) (*Manager, *Store) {
	t.Helper()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Device == nil {
		cfg.Device = device.VirtexFX70T()
	}
	cfg.Store = store
	if cfg.Meta.ID == "" {
		cfg.Meta = Meta{
			ID:             "test-session",
			Device:         cfg.Device.Name(),
			FragThreshold:  cfg.FragThreshold,
			DefragCooldown: cfg.DefragCooldown,
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, store
}

// reload mimics a daemon restart: a fresh store over the same directory,
// loaded and restored.
func reload(t *testing.T, dir string, cfg Config) (*Manager, *RecoveryReport) {
	t.Helper()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Device == nil {
		cfg.Device = device.VirtexFX70T()
	}
	cfg.Store = store
	m, rep, err := Restore(cfg, lr)
	if err != nil {
		t.Fatalf("restore: %v (report %+v)", err, rep)
	}
	return m, rep
}

// TestCrashRecoveryMatchesControl is the kill-and-recover e2e: a durable
// session is dropped without a final snapshot (the crash), replayed from
// snapshot+WAL, and must match a never-killed control run frame for
// frame — then both keep serving the rest of the workload identically.
func TestCrashRecoveryMatchesControl(t *testing.T) {
	dev := device.VirtexFX70T()
	base := Config{Device: dev, FragThreshold: 0.55, DefragCooldown: 6}
	workload := GenerateWorkload(WorkloadConfig{Seed: 5, Events: 150, Intensity: 0.6, Device: dev})
	const crashAt = 120

	control := newTestManager(t, base)
	for _, ev := range workload[:crashAt] {
		if _, err := control.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	durable, store := newDurableManager(t, dir, Config{
		Device: dev, FragThreshold: 0.55, DefragCooldown: 6, SnapshotEvery: 16,
	})
	for _, ev := range workload[:crashAt] {
		if _, err := durable.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	wantStats := durable.Stats()
	wantDigest := durable.FrameDigest()
	// Crash: drop the manager with no Close — no final snapshot, only
	// what AppendEvent already fsynced.
	store.Close()

	if wantDigest != control.FrameDigest() {
		t.Fatal("durable and control runs diverged before the crash — workload replay is not deterministic")
	}

	restored, rep := reload(t, dir, Config{Device: dev, FragThreshold: 0.55, DefragCooldown: 6, SnapshotEvery: 16})
	if rep.SessionID != "test-session" || rep.CorruptedFrames != 0 || rep.TornTail != "" {
		t.Fatalf("recovery report = %+v", rep)
	}
	if rep.WALRecords == 0 {
		t.Fatal("recovery replayed no WAL records — the crash window was empty")
	}
	if got := restored.FrameDigest(); got != wantDigest {
		t.Fatalf("restored frame digest %08x, want %08x — fabric diverged", got, wantDigest)
	}
	gotStats := restored.Stats()
	// Restore writes one compacting snapshot of its own; everything else
	// must carry over exactly.
	gotStats.Snapshots, wantStats.Snapshots = 0, 0
	if gotStats != wantStats {
		t.Fatalf("restored stats %+v, want %+v", gotStats, wantStats)
	}
	if got, want := restored.Snapshot().Live, control.Snapshot().Live; len(got) != len(want) {
		t.Fatalf("restored %d live modules, control %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("live module %d: restored %+v, control %+v", i, got[i], want[i])
			}
		}
	}

	// The recovered session is not a museum piece: the rest of the
	// workload must apply and keep matching the control run.
	for _, ev := range workload[crashAt:] {
		if _, err := restored.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if _, err := control.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := restored.FrameDigest(), control.FrameDigest(); got != want {
		t.Fatalf("post-recovery digest %08x, control %08x — recovered session diverged", got, want)
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryToleratesTornTail: garbage at the log's write offset (a
// torn final append, which overwrites the end marker there) must not
// block recovery — the clean prefix is replayed and the tear is
// reported.
func TestRecoveryToleratesTornTail(t *testing.T) {
	dev := device.VirtexFX70T()
	dir := t.TempDir()
	m, store := newDurableManager(t, dir, Config{Device: dev, FragThreshold: -1, SnapshotEvery: 1 << 20})
	for _, ev := range GenerateWorkload(WorkloadConfig{Seed: 2, Events: 40, Intensity: 0.5, Device: dev}) {
		if _, err := m.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	digest := m.FrameDigest()
	off := store.off
	store.Close()

	f, err := os.OpenFile(filepath.Join(dir, eventsFile), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	restored, rep := reload(t, dir, Config{Device: dev, FragThreshold: -1})
	if rep.TornTail == "" || !strings.Contains(rep.TornTail, "torn") {
		t.Fatalf("torn tail not reported: %+v", rep)
	}
	if rep.WALRecords != 40 {
		t.Fatalf("replayed %d records, want the full 40-event clean prefix", rep.WALRecords)
	}
	if got := restored.FrameDigest(); got != digest {
		t.Fatalf("digest %08x after torn-tail recovery, want %08x", got, digest)
	}
}

// TestDuplicateEventIdempotent: resubmitting an acknowledged ClientSeq
// returns the recorded result instead of double-applying.
func TestDuplicateEventIdempotent(t *testing.T) {
	dev := device.VirtexFX70T()
	m, _ := newDurableManager(t, t.TempDir(), Config{Device: dev, FragThreshold: -1})
	ev := Event{Kind: Arrival, Name: "a", Req: device.Requirements{device.ClassCLB: 4}, Mode: 1, ClientSeq: 1}
	first, err := m.Apply(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Placed || first.Duplicate {
		t.Fatalf("first apply = %+v", first)
	}
	walBefore := m.Stats().WALRecords

	again, err := m.Apply(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Duplicate {
		t.Fatalf("resubmission not flagged duplicate: %+v", again)
	}
	if again.Seq != first.Seq || again.Rect != first.Rect || !again.Placed {
		t.Fatalf("duplicate result %+v differs from original %+v", again, first)
	}
	st := m.Stats()
	if st.Events != 1 || st.Arrivals != 1 || st.Placed != 1 {
		t.Fatalf("duplicate was re-applied: %+v", st)
	}
	if st.WALRecords != walBefore {
		t.Fatal("duplicate appended a WAL record")
	}

	// The module must exist once, not twice: a fresh arrival under a new
	// ClientSeq still sees the name as live.
	if _, err := m.Apply(Event{Kind: Arrival, Name: "a", Req: ev.Req, Mode: 1, ClientSeq: 2}); err == nil {
		t.Fatal("second live arrival of the same name accepted")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateSurvivesRecovery: the idempotency window is durable — a
// resubmission after a crash and restore still returns the original
// result.
func TestDuplicateSurvivesRecovery(t *testing.T) {
	dev := device.VirtexFX70T()
	dir := t.TempDir()
	m, store := newDurableManager(t, dir, Config{Device: dev, FragThreshold: -1, SnapshotEvery: 1 << 20})
	ev := Event{Kind: Arrival, Name: "a", Req: device.Requirements{device.ClassCLB: 4}, Mode: 1, ClientSeq: 1}
	first, err := m.Apply(ev)
	if err != nil {
		t.Fatal(err)
	}
	store.Close() // crash

	restored, _ := reload(t, dir, Config{Device: dev, FragThreshold: -1})
	again, err := restored.Apply(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Duplicate || again.Rect != first.Rect || again.Seq != first.Seq {
		t.Fatalf("post-recovery duplicate = %+v, original %+v", again, first)
	}
}

// TestClientSeqAgedOut: a ClientSeq below the oldest retained result is
// a structured error, not a silent re-apply.
func TestClientSeqAgedOut(t *testing.T) {
	dev := device.VirtexFX70T()
	m, _ := newDurableManager(t, t.TempDir(), Config{Device: dev, FragThreshold: -1})
	req := device.Requirements{device.ClassCLB: 2}
	seq := int64(0)
	// Arrival/departure pairs keep the device empty while the window
	// slides past its capacity.
	for i := 0; i < idempotencyWindow/2+2; i++ {
		seq++
		if _, err := m.Apply(Event{Kind: Arrival, Name: "m", Req: req, Mode: 1, ClientSeq: seq}); err != nil {
			t.Fatal(err)
		}
		seq++
		if _, err := m.Apply(Event{Kind: Departure, Name: "m", ClientSeq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Apply(Event{Kind: Arrival, Name: "m", Req: req, Mode: 1, ClientSeq: 1}); err == nil ||
		!strings.Contains(err.Error(), "aged out") {
		t.Fatalf("aged-out ClientSeq: err = %v", err)
	}
}

// TestConcurrentApplySnapshot hammers a durable session from several
// goroutines while snapshots and reads run concurrently (run under
// -race in CI), then proves the persisted state still replays to the
// same fabric.
func TestConcurrentApplySnapshot(t *testing.T) {
	dev := device.VirtexFX70T()
	dir := t.TempDir()
	m, _ := newDurableManager(t, dir, Config{Device: dev, FragThreshold: -1, SnapshotEvery: 2})

	const workers = 4
	const perWorker = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = m.Snapshot()
				_ = m.Stats()
				_ = m.FrameDigest()
			}
		}
	}()
	var apply sync.WaitGroup
	for w := 0; w < workers; w++ {
		apply.Add(1)
		go func(w int) {
			defer apply.Done()
			for i := 0; i < perWorker; i++ {
				name := string(rune('a'+w)) + "-" + string(rune('0'+i))
				res, err := m.Apply(Event{Kind: Arrival, Name: name,
					Req: device.Requirements{device.ClassCLB: 2}, Mode: int64(w*perWorker + i + 1)})
				if err != nil {
					t.Errorf("apply %s: %v", name, err)
					return
				}
				_ = res
			}
		}(w)
	}
	apply.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	digest := m.FrameDigest()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	restored, _ := reload(t, dir, Config{Device: dev, FragThreshold: -1, SnapshotEvery: 2})
	if got := restored.FrameDigest(); got != digest {
		t.Fatalf("digest %08x after concurrent run replay, want %08x", got, digest)
	}
}

// TestDiscardRemovesFiles: Discard deletes the session's durable
// directory so it can never be resurrected by replay.
func TestDiscardRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	sess := filepath.Join(dir, "s1")
	m, _ := newDurableManager(t, sess, Config{FragThreshold: -1})
	if _, err := m.Apply(Event{Kind: Arrival, Name: "a", Req: device.Requirements{device.ClassCLB: 2}, Mode: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sess); !os.IsNotExist(err) {
		t.Fatalf("session dir still present after Discard: %v", err)
	}
}

// TestPurgeSyncsParent: Purge makes the removal durable by fsyncing the
// parent directory and returns that step's error, so a purge whose
// parent cannot be synced is not reported as done.
func TestPurgeSyncsParent(t *testing.T) {
	parent := filepath.Join(t.TempDir(), "sessions")
	store, err := OpenStore(filepath.Join(parent, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(parent); err != nil {
		t.Fatal(err)
	}
	if err := store.Purge(); err == nil {
		t.Fatal("Purge reported success without a parent directory to sync")
	}
}
