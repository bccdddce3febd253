package session

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/grid"
	"repro/internal/reconfig"
)

// On-disk layout of one session's durable state, under its own
// directory. The three files are created once, by OpenStore, which
// fsyncs the directory; afterwards the store only overwrites them in
// place (WriteAt + Sync) and never renames, unlinks, creates or
// truncates a file:
//
//	snapshot.wal    snapshot slot 0: magic, then one WAL frame holding a
//	                persistedState; stale bytes after it are ignored
//	snapshot.1.wal  snapshot slot 1, the same
//	events.wal      the log: one WAL frame per event applied since the
//	                newest snapshot, then the end marker (walEnd)
//
// Each snapshot carries a generation, one more than the previous one's,
// and each log record the generation of the snapshot it follows.
// WriteSnapshot overwrites the slot that does not hold the newest
// snapshot, fsyncs it, and only then restarts the log at its head, where
// new records overwrite the old. A torn snapshot write thus always
// leaves the other slot and its log intact.
//
// Recovery is snapshot ⊕ events: the valid slot with the highest
// generation is the base, and each log record of that generation folds
// its layout delta on top. Replay stops cleanly at the end marker or at
// a record of an older generation (a log restarted but not yet
// overwritten there); a record of a newer generation means the newest
// snapshot was lost, which is a hard error. Directories written before
// generations existed (one snapshot.wal, events.wal ending at end of
// file, no generation fields) read as generation 0.
//
// Rewriting in place is what keeps compaction cheap: on ext4 mounted
// with discard, a rename or unlink that frees blocks stalls for tens to
// hundreds of milliseconds. On a 2-vCPU VM an event that also wrote a
// ~35 KB snapshot took a median 118 ms with rename and unlink, and
// 0.21 ms in place.

// eventsFile is the log; slotFiles are the two snapshot slots.
const eventsFile = "events.wal"

var slotFiles = [2]string{"snapshot.wal", "snapshot.1.wal"}

// Meta identifies a persisted session and carries what the daemon needs
// to rebuild its Config after a restart (the engine is rebuilt by name).
type Meta struct {
	ID             string    `json:"id"`
	Device         string    `json:"device"`
	Engine         string    `json:"engine"`
	FragThreshold  float64   `json:"frag_threshold"`
	DefragCooldown int       `json:"defrag_cooldown"`
	SolveBudgetMS  int64     `json:"solve_budget_ms"`
	CreatedAt      time.Time `json:"created_at"`
}

// persistedModule is one live module's durable record: everything
// needed to regenerate and reload its exact frames at its exact area.
type persistedModule struct {
	Name     string              `json:"name"`
	Rect     grid.Rect           `json:"rect"`
	Mode     int64               `json:"mode"`
	Req      device.Requirements `json:"req"`
	Fallback bool                `json:"fallback,omitempty"`
}

// persistedState is the snapshot payload: the full durable state of a
// session at one event boundary.
type persistedState struct {
	// Gen is the snapshot's generation (0 before generations existed).
	Gen           int64             `json:"gen,omitempty"`
	Meta          Meta              `json:"meta"`
	LastDefrag    int               `json:"last_defrag,omitempty"`
	LastClientSeq int64             `json:"last_client_seq,omitempty"`
	Window        []EventResult     `json:"window,omitempty"`
	Stats         Stats             `json:"stats"`
	Reconfig      reconfig.Stats    `json:"reconfig"`
	Modules       []persistedModule `json:"modules,omitempty"`
}

// layoutOp is one event's effect on the live layout. Ops are diffs of
// the layout around the event, so they capture exactly what happened —
// including fallback migrations, defrag moves and transactional
// rollbacks — without replay having to re-run any (nondeterministic,
// time-budgeted) planning.
type layoutOp struct {
	// Op is "place", "move" or "remove".
	Op string `json:"op"`
	// Module carries the affected module; "move" uses Name and Rect,
	// "remove" only Name.
	Module persistedModule `json:"module"`
}

// walRecord is one events.wal frame: the applied event's recorded
// result, its layout delta, and the post-event counters (carried whole
// — they are a handful of ints — so replay never recomputes them).
type walRecord struct {
	// Gen is the generation of the snapshot this record follows.
	Gen        int64          `json:"gen,omitempty"`
	Result     EventResult    `json:"result"`
	Ops        []layoutOp     `json:"ops,omitempty"`
	LastDefrag int            `json:"last_defrag,omitempty"`
	Stats      Stats          `json:"stats"`
	Reconfig   reconfig.Stats `json:"reconfig"`
}

// storeFile is one of a store's files, accessed only by offset.
type storeFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
}

// storeFS opens the files of one store's directory. The store reaches
// the disk only through it, so a test can stand in a file system that
// records every write and builds the images a crash could leave.
type storeFS interface {
	// openFile opens name for reading and writing, creating it when
	// absent; created reports whether it did.
	openFile(name string) (f storeFile, created bool, err error)
	// syncDir makes the directory's entries durable.
	syncDir() error
}

// osFS is the store directory on the real file system.
type osFS struct {
	dir string
	// madeDir is set when OpenStore created dir, so its entry in the
	// parent directory must be made durable too.
	madeDir bool
}

func (o osFS) openFile(name string) (storeFile, bool, error) {
	path := filepath.Join(o.dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		return f, true, nil
	}
	if !os.IsExist(err) {
		return nil, false, err
	}
	if f, err = os.OpenFile(path, os.O_RDWR, 0); err != nil {
		return nil, false, err
	}
	return f, false, nil
}

func (o osFS) syncDir() error {
	dirs := []string{o.dir}
	if o.madeDir {
		dirs = append(dirs, filepath.Dir(o.dir))
	}
	for _, d := range dirs {
		if err := fsyncDir(d); err != nil {
			return err
		}
	}
	return nil
}

// fsyncDir makes the entries of directory d durable.
func fsyncDir(d string) error {
	f, err := os.Open(d)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Store owns one session's durable files. Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	slots  [2]storeFile
	log    storeFile
	closed bool
	// gen is the generation of the newest snapshot, which slots[newest]
	// holds; the next snapshot goes to the other slot.
	gen    int64
	newest int
	// off is the log's write offset: the next record overwrites the end
	// marker there. 0 right after a snapshot, so the first record also
	// rewrites the magic.
	off int64
	// err, once set, fails every later write: after a failed write or
	// fsync the files' durable contents are unknown, and a retried fsync
	// can report success over lost data.
	err error
	// buf and enc encode frames without a fresh buffer per event.
	buf bytes.Buffer
	enc *json.Encoder
}

// OpenStore opens a session's durable directory, creating the directory
// and its three files as needed; when it creates any, it fsyncs the
// directory, so no later event depends on a directory entry.
func OpenStore(dir string) (*Store, error) {
	_, err := os.Stat(dir)
	madeDir := os.IsNotExist(err)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("session: open store: %w", err)
	}
	return openStore(dir, osFS{dir: dir, madeDir: madeDir})
}

// openStore opens the store's files through fsys and finds the newest
// snapshot slot.
func openStore(dir string, fsys storeFS) (*Store, error) {
	s := &Store{dir: dir, newest: 1}
	s.enc = json.NewEncoder(&s.buf)
	created := false
	for i, name := range []string{slotFiles[0], slotFiles[1], eventsFile} {
		f, c, err := fsys.openFile(name)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("session: open store: %w", err)
		}
		created = created || c
		if i < len(s.slots) {
			s.slots[i] = f
		} else {
			s.log = f
		}
	}
	if created {
		if err := fsys.syncDir(); err != nil {
			s.Close()
			return nil, fmt.Errorf("session: open store: sync directory: %w", err)
		}
	}
	// Later snapshots continue from the newest valid one; a fresh store
	// writes slot 0 first.
	states, _ := s.readSlots()
	if i := newestSlot(states); i >= 0 {
		s.newest, s.gen = i, states[i].Gen
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// writable reports why the store cannot write, if it cannot. Callers
// hold s.mu.
func (s *Store) writable() error {
	if s.closed {
		return fmt.Errorf("session: store is closed")
	}
	return s.err
}

// frame encodes v as one WAL frame into s.buf, between prefix and
// suffix, and returns the buffer. Callers hold s.mu.
func (s *Store) frame(prefix string, v any, suffix []byte) ([]byte, error) {
	s.buf.Reset()
	s.buf.WriteString(prefix)
	var hdr [8]byte
	s.buf.Write(hdr[:])
	// Encode writes the JSON payload and a '\n', the frame terminator.
	if err := s.enc.Encode(v); err != nil {
		return nil, err
	}
	b := s.buf.Bytes()
	putWALHeader(b[len(prefix):], b[len(prefix)+8:len(b)-1])
	s.buf.Write(suffix)
	return s.buf.Bytes(), nil
}

// writeSynced writes b at off in f and fsyncs f; a failure fails the
// store for good. Callers hold s.mu.
func (s *Store) writeSynced(f storeFile, b []byte, off int64, what string) error {
	if _, err := f.WriteAt(b, off); err != nil {
		s.err = fmt.Errorf("session: %s: %w", what, err)
		return s.err
	}
	if err := f.Sync(); err != nil {
		s.err = fmt.Errorf("session: sync %s: %w", what, err)
		return s.err
	}
	return nil
}

// AppendEvent writes one record at the log's write offset, followed by
// the end marker, and syncs it to stable storage — it returns only once
// the record would survive a crash. It stamps rec with the newest
// snapshot's generation.
func (s *Store) AppendEvent(rec *walRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	rec.Gen = s.gen
	prefix := ""
	if s.off == 0 {
		prefix = walMagic
	}
	b, err := s.frame(prefix, rec, walEnd[:])
	if err != nil {
		return fmt.Errorf("session: encode WAL record: %w", err)
	}
	if err := s.writeSynced(s.log, b, s.off, "append WAL record"); err != nil {
		return err
	}
	s.off += int64(len(b) - len(walEnd))
	return nil
}

// WriteSnapshot stamps state with the next generation, writes it over
// the slot that does not hold the newest snapshot and fsyncs it; only
// then does the log restart at its head. A crash at any point leaves
// either the old snapshot with its records or the new one.
func (s *Store) WriteSnapshot(state *persistedState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	state.Gen = s.gen + 1
	b, err := s.frame(walMagic, state, nil)
	if err != nil {
		return fmt.Errorf("session: encode snapshot: %w", err)
	}
	slot := 1 - s.newest
	if err := s.writeSynced(s.slots[slot], b, 0, "write snapshot"); err != nil {
		return err
	}
	s.gen, s.newest = state.Gen, slot
	s.off = 0
	return nil
}

// LoadResult is what a store held on disk: the snapshot (nil when none
// was ever written), the clean prefix of event records appended after
// it, and — when the WAL tail was torn or corrupted — where decoding
// stopped. A torn tail is expected after a crash mid-append: the
// records before it are intact and the lost suffix was never
// acknowledged.
type LoadResult struct {
	State   *persistedState
	Records []*walRecord
	Torn    *CorruptError
}

// readAll reads f from offset 0 to its end.
func readAll(f storeFile) ([]byte, error) {
	return io.ReadAll(io.NewSectionReader(f, 0, math.MaxInt64))
}

// readSlot decodes a snapshot slot's first frame; stale bytes after it
// are ignored. An empty slot is (nil, nil).
func readSlot(f storeFile) (*persistedState, error) {
	data, err := readAll(f)
	if err != nil || len(data) == 0 {
		return nil, err
	}
	frames, corrupt := readWALFramesBytes(data)
	switch {
	case len(frames) > 0:
		// The first frame is the snapshot; stale bytes may follow it.
	case corrupt != nil:
		return nil, corrupt
	default:
		return nil, errors.New("holds no record")
	}
	state := &persistedState{}
	if err := json.Unmarshal(frames[0], state); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return state, nil
}

// readSlots decodes both snapshot slots; states[i] is nil when slot i
// is empty or invalid. err reports the first slot that could not be
// read or holds bytes but no valid snapshot. Callers hold s.mu or are
// the constructor.
func (s *Store) readSlots() (states [2]*persistedState, err error) {
	for i, f := range s.slots {
		state, serr := readSlot(f)
		if serr != nil {
			err = cmp.Or(err, fmt.Errorf("session: snapshot %s unreadable: %w", slotFiles[i], serr))
		}
		states[i] = state
	}
	return states, err
}

// newestSlot returns the index of the valid slot with the highest
// generation, or -1 when neither is valid.
func newestSlot(states [2]*persistedState) int {
	switch {
	case states[0] == nil && states[1] == nil:
		return -1
	case states[1] == nil || (states[0] != nil && states[0].Gen >= states[1].Gen):
		return 0
	}
	return 1
}

// Load reads the newest valid snapshot and the log records of its
// generation. A store that never wrote a snapshot loads as State nil
// with no records. It is a hard error when no slot holds a valid
// snapshot but one holds bytes (there is no base state to replay onto),
// and when the log holds a record newer than every valid snapshot (the
// newest snapshot was lost, and its acknowledged events with it).
func (s *Store) Load() (*LoadResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lr := &LoadResult{}
	states, slotErr := s.readSlots()
	gen := int64(-1)
	if i := newestSlot(states); i >= 0 {
		lr.State, gen = states[i], states[i].Gen
	} else if slotErr != nil {
		return nil, slotErr
	}
	data, err := readAll(s.log)
	if err != nil {
		return nil, fmt.Errorf("session: read events WAL: %w", err)
	}
	if len(data) == 0 {
		return lr, nil
	}
	frames, corrupt := readWALFramesBytes(data)
	for i, payload := range frames {
		rec := &walRecord{}
		if err := json.Unmarshal(payload, rec); err != nil {
			// A frame that checksums but does not decode is corruption
			// the CRC cannot see (it was written corrupt); stop here and
			// keep the prefix, like a torn tail.
			lr.Torn = &CorruptError{Record: i, Reason: fmt.Sprintf("record decodes as invalid JSON: %v", err)}
			return lr, nil
		}
		switch {
		case rec.Gen > gen:
			return nil, errors.Join(fmt.Errorf("session: WAL record %d has generation %d, newer than every valid snapshot (newest %d)",
				i, rec.Gen, gen), slotErr)
		case rec.Gen < gen:
			// A log restarted after the newest snapshot but not yet
			// overwritten here: the older records are already in it.
			return lr, nil
		}
		lr.Records = append(lr.Records, rec)
	}
	lr.Torn = corrupt
	return lr, nil
}

// Close closes the store's files. Further writes fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	for _, f := range []storeFile{s.slots[0], s.slots[1], s.log} {
		if f != nil {
			err = cmp.Or(err, f.Close())
		}
	}
	return err
}

// Purge closes the store and deletes its directory, then fsyncs the
// parent so the removal survives a crash: the session can never be
// resurrected by replay.
func (s *Store) Purge() error {
	s.Close()
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	return fsyncDir(filepath.Dir(s.dir))
}
