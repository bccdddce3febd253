// Package session is the online side of the reproduced floorplanner: a
// stateful placement service over a live device. Where internal/core
// solves one offline instance, a session.Manager ingests a stream of
// module arrivals and departures, maintains the device's free space as a
// set of maximal empty rectangles, places arrivals best-fit into that
// free space (falling back to a budgeted floorplanner solve when greedy
// placement fails), and — when free-space fragmentation crosses a
// threshold — plans and executes a no-break relocation schedule that
// compacts the live modules, every move flowing through the
// bitstream/reconfig substrate and charged realistic frame-write time.
package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/grid"
	"repro/internal/reconfig"
)

// Defaults for Config's zero values.
//
// Note the fragmentation baseline: devices with forbidden blocks (the
// FX70T's PowerPC) measure nonzero fragmentation even when empty,
// because the block splits the free space (the empty FX70T sits at
// ~0.41). Thresholds must be set above the device's baseline or every
// cooldown window triggers a futile defragmentation attempt.
const (
	DefaultFragThreshold  = 0.55
	DefaultDefragCooldown = 8
	DefaultSolveBudget    = 2 * time.Second
	// DefaultSnapshotEvery is how many WAL records accumulate before the
	// session compacts them into a snapshot.
	DefaultSnapshotEvery = 64
	// idempotencyWindow bounds how many recent client-sequenced results a
	// session retains for duplicate detection.
	idempotencyWindow = 128
)

// Config parameterizes a session.
type Config struct {
	// Device is the target FPGA (required).
	Device *device.Device
	// Engine is the floorplanner used as placement fallback when no free
	// rectangle fits an arrival. nil disables the fallback: such
	// arrivals are rejected outright.
	Engine core.Engine
	// FrameTime is the simulated configuration-port time per frame
	// (0 = reconfig.DefaultFrameTime).
	FrameTime time.Duration
	// FragThreshold triggers defragmentation when the post-event
	// fragmentation exceeds it (0 = DefaultFragThreshold; negative
	// disables defragmentation).
	FragThreshold float64
	// DefragCooldown is the minimum number of events between
	// defragmentation attempts, preventing thrash when compaction cannot
	// push fragmentation below the threshold (0 = DefaultDefragCooldown).
	DefragCooldown int
	// SolveBudget bounds each fallback floorplanner solve
	// (0 = DefaultSolveBudget).
	SolveBudget time.Duration
	// Store, when non-nil, makes the session durable: every applied
	// event is WAL-appended before its result is returned, and every
	// SnapshotEvery records the WAL is compacted into a snapshot.
	Store *Store
	// SnapshotEvery is the WAL-records-per-snapshot cadence
	// (0 = DefaultSnapshotEvery). Only meaningful with a Store.
	SnapshotEvery int
	// Meta identifies the session in its durable files (ignored without
	// a Store).
	Meta Meta
	// Faults, when non-nil, injects configuration-port faults into every
	// frame write the session performs (see reconfig.FaultPlan).
	Faults *reconfig.FaultPlan
}

func (c Config) withDefaults() (Config, error) {
	if c.Device == nil {
		return c, fmt.Errorf("session: config has no device")
	}
	if c.FrameTime <= 0 {
		c.FrameTime = reconfig.DefaultFrameTime
	}
	if c.FragThreshold == 0 {
		c.FragThreshold = DefaultFragThreshold
	}
	if c.DefragCooldown <= 0 {
		c.DefragCooldown = DefaultDefragCooldown
	}
	if c.SolveBudget <= 0 {
		c.SolveBudget = DefaultSolveBudget
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	return c, nil
}

// EventKind discriminates session events.
type EventKind string

const (
	// Arrival asks the session to place and configure a new module.
	Arrival EventKind = "arrival"
	// Departure retires a live module and frees its area.
	Departure EventKind = "departure"
)

// Event is one step of an online workload.
type Event struct {
	// Kind is Arrival or Departure.
	Kind EventKind `json:"kind"`
	// Name identifies the module; unique among live modules.
	Name string `json:"name"`
	// Req is the arriving module's resource requirement (arrivals only).
	Req device.Requirements `json:"req,omitempty"`
	// Mode seeds the module's bitstream content (arrivals only).
	Mode int64 `json:"mode,omitempty"`
	// ClientSeq, when positive, makes the event idempotent: the client
	// numbers its events per session, strictly increasing. A resubmission
	// of an already-applied ClientSeq (a retry after a lost ack) returns
	// the recorded result with Duplicate set instead of double-applying.
	ClientSeq int64 `json:"client_seq,omitempty"`
}

// EventResult reports what one event did to the session.
type EventResult struct {
	// Seq is the 1-based event sequence number.
	Seq int `json:"seq"`
	// Event echoes the applied event.
	Event Event `json:"event"`
	// Placed reports whether an arrival got an area (true for every
	// successful departure's module too, vacuously false otherwise).
	Placed bool `json:"placed"`
	// Fallback reports the arrival was placed by the budgeted
	// floorplanner solve rather than greedy free-space placement.
	Fallback bool `json:"fallback"`
	// Rejected reports an arrival the session could not place.
	Rejected bool `json:"rejected"`
	// Reason explains a rejection.
	Reason string `json:"reason,omitempty"`
	// Rect is the area assigned to an arrival (valid when Placed).
	Rect grid.Rect `json:"rect"`
	// Fragmentation is the free-space fragmentation after the event
	// (and after any defragmentation it triggered).
	Fragmentation float64 `json:"fragmentation"`
	// Occupancy is the fraction of usable tiles occupied after the event.
	Occupancy float64 `json:"occupancy"`
	// Defrag is non-nil when the event triggered a defragmentation
	// cycle (executed or abandoned — see its Executed field).
	Defrag *DefragReport `json:"defrag,omitempty"`
	// Duplicate reports that this result was recorded by an earlier
	// application of the same ClientSeq and is being replayed to a
	// retrying client — nothing was re-applied.
	Duplicate bool `json:"duplicate,omitempty"`
}

// DefragReport describes one defragmentation cycle.
type DefragReport struct {
	// AtEvent is the sequence number of the triggering event.
	AtEvent int `json:"at_event"`
	// Planned is the number of moves the compaction planner emitted.
	Planned int `json:"planned"`
	// Executed reports whether the schedule ran (a plan that does not
	// reduce fragmentation is abandoned).
	Executed bool `json:"executed"`
	// FragBefore and FragAfter bracket the cycle.
	FragBefore float64 `json:"frag_before"`
	FragAfter  float64 `json:"frag_after"`
	// Schedule accounts for the executed moves (nil when not executed).
	Schedule *reconfig.ScheduleReport `json:"schedule,omitempty"`
}

// Stats accumulates session activity.
type Stats struct {
	Events         int `json:"events"`
	Arrivals       int `json:"arrivals"`
	Departures     int `json:"departures"`
	Placed         int `json:"placed"`
	PlacedFallback int `json:"placed_fallback"`
	Rejected       int `json:"rejected"`
	DefragCycles   int `json:"defrag_cycles"`
	DefragMoves    int `json:"defrag_moves"`
	// CorruptedFrames sums readback mismatches across every executed
	// relocation schedule (0 on a correct run).
	CorruptedFrames int `json:"corrupted_frames"`
	// WALRecords counts events appended to the write-ahead log (0 for
	// non-durable sessions).
	WALRecords int `json:"wal_records,omitempty"`
	// Snapshots counts snapshot compactions written (0 for non-durable
	// sessions).
	Snapshots int `json:"snapshots,omitempty"`
}

// ModuleInfo describes one live module in a Snapshot.
type ModuleInfo struct {
	Name string    `json:"name"`
	Rect grid.Rect `json:"rect"`
	// Fallback records that the module's initial placement came from the
	// floorplanner fallback.
	Fallback bool `json:"fallback"`
}

// Snapshot is a point-in-time view of the session.
type Snapshot struct {
	Device        string         `json:"device"`
	Live          []ModuleInfo   `json:"live"`
	Fragmentation float64        `json:"fragmentation"`
	Occupancy     float64        `json:"occupancy"`
	FreeTiles     int            `json:"free_tiles"`
	Stats         Stats          `json:"stats"`
	Reconfig      reconfig.Stats `json:"reconfig"`
}

// module is the session's record of a live module.
type module struct {
	name     string
	req      device.Requirements
	mode     int64
	region   int // reconfig.Manager region index
	fallback bool
}

// Manager is a stateful online-placement session. It is safe for
// concurrent use; events are serialized internally.
type Manager struct {
	mu         sync.Mutex
	cfg        Config
	rcm        *reconfig.Manager
	free       *FreeSpace
	modules    map[string]*module
	stats      Stats
	lastDefrag int // event seq of the last defrag attempt, 0 if never

	// Durability (nil store = in-memory session).
	store         *Store
	sinceSnapshot int // WAL records since the last snapshot
	// Idempotency: highest ClientSeq applied, and a bounded window of
	// recent client-sequenced results for duplicate replay.
	lastClientSeq int64
	window        []EventResult
}

// New builds an empty session over cfg.Device. With a cfg.Store, an
// initial snapshot is written immediately, so a session that crashes
// before its first event still recovers (empty, with its Meta).
func New(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		rcm:     reconfig.NewDynamic(cfg.Device, cfg.FrameTime),
		free:    NewFreeSpace(cfg.Device),
		modules: map[string]*module{},
		store:   cfg.Store,
	}
	m.rcm.SetFaultPlan(cfg.Faults)
	if m.store != nil {
		if err := m.snapshotLocked(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Apply ingests one event and returns what it did. Errors are reserved
// for malformed events and internal invariant violations; an arrival the
// session cannot place is a non-error result with Rejected set.
//
// For durable sessions the result is acknowledged only after its WAL
// record is on stable storage; an append failure is an error and the
// event does not count as applied (the caller must retry — with a
// ClientSeq, safely).
func (m *Manager) Apply(ev Event) (*EventResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	if ev.ClientSeq > 0 && ev.ClientSeq <= m.lastClientSeq {
		for i := len(m.window) - 1; i >= 0; i-- {
			if m.window[i].Event.ClientSeq == ev.ClientSeq {
				dup := m.window[i]
				dup.Duplicate = true
				return &dup, nil
			}
		}
		return nil, fmt.Errorf("session: client seq %d was already applied but has aged out of the %d-result idempotency window",
			ev.ClientSeq, idempotencyWindow)
	}

	before := m.layoutLocked()
	m.stats.Events++
	res := &EventResult{Seq: m.stats.Events, Event: ev}
	var err error
	switch ev.Kind {
	case Arrival:
		err = m.applyArrival(ev, res)
	case Departure:
		err = m.applyDeparture(ev, res)
	default:
		err = fmt.Errorf("session: unknown event kind %q", ev.Kind)
	}
	if err != nil {
		return nil, err
	}

	if d := m.maybeDefrag(res.Seq); d != nil {
		res.Defrag = d
	}
	res.Fragmentation = m.free.Fragmentation()
	res.Occupancy = m.free.Occupancy()

	if ev.ClientSeq > 0 {
		m.lastClientSeq = ev.ClientSeq
		m.window = append(m.window, *res)
		if len(m.window) > idempotencyWindow {
			m.window = m.window[len(m.window)-idempotencyWindow:]
		}
	}
	if m.store != nil {
		m.stats.WALRecords++
		rec := &walRecord{
			Result:     *res,
			Ops:        diffLayout(before, m.layoutLocked()),
			LastDefrag: m.lastDefrag,
			Stats:      m.stats,
			Reconfig:   m.rcm.Stats(),
		}
		if err := m.store.AppendEvent(rec); err != nil {
			return nil, err
		}
		m.sinceSnapshot++
		if m.sinceSnapshot >= m.cfg.SnapshotEvery {
			// A failed compaction fails the store: this event's record is
			// already durable, and the next append reports the error, so
			// nothing past it is acknowledged.
			_ = m.snapshotLocked()
		}
	}
	return res, nil
}

// layoutLocked captures the live layout keyed by module name. Callers
// hold m.mu.
func (m *Manager) layoutLocked() map[string]persistedModule {
	out := make(map[string]persistedModule, len(m.modules))
	for name, mod := range m.modules {
		rect, _ := m.rcm.CurrentArea(mod.region)
		out[name] = persistedModule{
			Name: name, Rect: rect, Mode: mod.mode, Req: mod.req, Fallback: mod.fallback,
		}
	}
	return out
}

// diffLayout expresses after-vs-before as layout ops: removes, then
// moves, then places, each name-sorted for deterministic records.
func diffLayout(before, after map[string]persistedModule) []layoutOp {
	var ops []layoutOp
	for _, name := range sortedKeys(before) {
		if _, still := after[name]; !still {
			ops = append(ops, layoutOp{Op: "remove", Module: persistedModule{Name: name}})
		}
	}
	for _, name := range sortedKeys(after) {
		cur := after[name]
		prev, was := before[name]
		switch {
		case !was:
			ops = append(ops, layoutOp{Op: "place", Module: cur})
		case prev.Rect != cur.Rect:
			ops = append(ops, layoutOp{Op: "move", Module: persistedModule{Name: name, Rect: cur.Rect}})
		}
	}
	return ops
}

func sortedKeys(m map[string]persistedModule) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// snapshotLocked compacts the session's durable state: persists a full
// snapshot and restarts the WAL. Callers hold m.mu (or own m
// exclusively, as in New and Restore).
func (m *Manager) snapshotLocked() error {
	m.stats.Snapshots++
	state := &persistedState{
		Meta:          m.cfg.Meta,
		LastDefrag:    m.lastDefrag,
		LastClientSeq: m.lastClientSeq,
		Window:        append([]EventResult(nil), m.window...),
		Stats:         m.stats,
		Reconfig:      m.rcm.Stats(),
	}
	layout := m.layoutLocked()
	for _, name := range sortedKeys(layout) {
		state.Modules = append(state.Modules, layout[name])
	}
	if err := m.store.WriteSnapshot(state); err != nil {
		m.stats.Snapshots--
		return err
	}
	m.sinceSnapshot = 0
	return nil
}

// Close flushes a final snapshot (durable sessions) and closes the
// store. The manager must not be used afterwards.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		return nil
	}
	err := m.snapshotLocked()
	if cerr := m.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Discard closes the store and deletes the session's durable files, so
// a deleted session cannot be resurrected by replay. In-memory sessions
// discard trivially.
func (m *Manager) Discard() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		return nil
	}
	return m.store.Purge()
}

// FrameDigest hashes the full configuration memory under the session —
// the frame-for-frame state equality check recovery tests rely on.
func (m *Manager) FrameDigest() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rcm.FrameDigest()
}

func (m *Manager) applyArrival(ev Event, res *EventResult) error {
	m.stats.Arrivals++
	if ev.Name == "" {
		return fmt.Errorf("session: arrival has no name")
	}
	if _, live := m.modules[ev.Name]; live {
		return fmt.Errorf("session: module %q is already live", ev.Name)
	}
	if ev.Req.IsZero() {
		return fmt.Errorf("session: arrival %q requires no resources", ev.Name)
	}

	rect, ok := m.bestFit(ev.Req)
	if ok {
		if err := m.admit(ev, rect, false, res); err != nil {
			return err
		}
		return nil
	}

	rect, ok, reason := m.fallbackPlace(ev)
	if !ok {
		m.stats.Rejected++
		res.Rejected = true
		res.Reason = reason
		return nil
	}
	return m.admit(ev, rect, true, res)
}

// admit registers and configures an arrival at rect.
func (m *Manager) admit(ev Event, rect grid.Rect, fallback bool, res *EventResult) error {
	ri, err := m.rcm.AddRegion(ev.Name, rect)
	if err != nil {
		return fmt.Errorf("session: admit %q: %w", ev.Name, err)
	}
	if err := m.rcm.Configure(ri, ev.Mode, 0); err != nil {
		if errors.Is(err, reconfig.ErrFaultInjected) {
			// The retry budget ran out loading this module; the loader
			// already unloaded the partial task, so retire the region
			// and report a rejection — nothing is stranded and the
			// client can resubmit.
			_ = m.rcm.RemoveRegion(ri)
			m.stats.Rejected++
			res.Rejected = true
			res.Reason = fmt.Sprintf("reconfiguration failed: %v", err)
			return nil
		}
		return fmt.Errorf("session: admit %q: %w", ev.Name, err)
	}
	if err := m.free.Insert(rect); err != nil {
		return err
	}
	m.modules[ev.Name] = &module{
		name: ev.Name, req: ev.Req, mode: ev.Mode, region: ri, fallback: fallback,
	}
	m.stats.Placed++
	if fallback {
		m.stats.PlacedFallback++
	}
	res.Placed = true
	res.Fallback = fallback
	res.Rect = rect
	return nil
}

// bestFit picks the placement for an arrival greedily: among the
// width-minimal candidate rectangles that lie entirely on free tiles,
// minimize (wasted frames, best-fit slack) where slack is the smallest
// maximal-empty-rectangle the candidate fits in minus the candidate —
// i.e. prefer tight resource fits, and among those, fill small holes
// before carving up large ones.
func (m *Manager) bestFit(req device.Requirements) (grid.Rect, bool) {
	cands := core.CachedCandidates(m.cfg.Device, req)
	mers := m.free.MERs()
	best := grid.Rect{}
	bestWaste, bestSlack := 0, 0
	found := false
	for _, c := range cands {
		if found && c.Waste > bestWaste {
			break // candidates are sorted by waste; no better fit follows
		}
		if !m.free.Fits(c.Rect) {
			continue
		}
		slack := bestFitSlack(mers, c.Rect)
		if !found || slack < bestSlack {
			best, bestWaste, bestSlack, found = c.Rect, c.Waste, slack, true
		}
	}
	return best, found
}

// bestFitSlack returns the smallest containing MER's area minus the
// rectangle's own. Every rectangle on free tiles is contained in at
// least one MER.
func bestFitSlack(mers []grid.Rect, r grid.Rect) int {
	slack := -1
	for _, mer := range mers {
		if !mer.ContainsRect(r) {
			continue
		}
		if s := mer.Area() - r.Area(); slack < 0 || s < slack {
			slack = s
		}
	}
	return slack
}

func (m *Manager) applyDeparture(ev Event, res *EventResult) error {
	m.stats.Departures++
	mod, live := m.modules[ev.Name]
	if !live {
		// Not an error: in a replayed stream the module's arrival may
		// have been rejected, so there is nothing to retire.
		res.Rejected = true
		res.Reason = fmt.Sprintf("module %q is not live", ev.Name)
		return nil
	}
	rect, ok := m.rcm.CurrentArea(mod.region)
	if !ok {
		return fmt.Errorf("session: module %q has no live area", ev.Name)
	}
	if err := m.rcm.RemoveRegion(mod.region); err != nil {
		return fmt.Errorf("session: depart %q: %w", ev.Name, err)
	}
	m.free.Remove(rect)
	delete(m.modules, ev.Name)
	return nil
}

// Snapshot returns the current session state.
func (m *Manager) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		Device:        m.cfg.Device.Name(),
		Fragmentation: m.free.Fragmentation(),
		Occupancy:     m.free.Occupancy(),
		FreeTiles:     m.free.FreeTiles(),
		Stats:         m.stats,
		Reconfig:      m.rcm.Stats(),
	}
	for _, mod := range m.modules {
		rect, _ := m.rcm.CurrentArea(mod.region)
		snap.Live = append(snap.Live, ModuleInfo{Name: mod.name, Rect: rect, Fallback: mod.fallback})
	}
	sort.Slice(snap.Live, func(i, j int) bool { return snap.Live[i].Name < snap.Live[j].Name })
	return snap
}

// Stats returns the accumulated counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ReconfigStats returns the underlying reconfig manager's counters —
// the cheap accessor batch-delta accounting needs (Snapshot builds the
// whole live list).
func (m *Manager) ReconfigStats() reconfig.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rcm.Stats()
}

// Fragmentation returns the current free-space fragmentation.
func (m *Manager) Fragmentation() float64 { return m.free.Fragmentation() }
