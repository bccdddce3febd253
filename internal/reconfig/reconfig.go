// Package reconfig simulates the run-time side of a relocation-aware
// partially-reconfigurable system — the use case that motivates the
// paper's floorplanner.
//
// A Manager takes a floorplanned design (regions plus the free-compatible
// areas the floorplanner reserved) and operates it over simulated time:
// module modes are configured into region slots through the
// configuration-memory model of internal/bitstream, relocations move a
// running mode to a reserved compatible slot via the address-rewriting
// filter, and every operation is charged the configuration-port time of
// the frames it writes.
//
// The Manager quantifies the two benefits the paper's introduction
// claims for bitstream relocation:
//
//   - design re-use: one stored bitstream per module mode serves every
//     compatible slot, instead of one bitstream per (mode, slot) — see
//     StorageReport;
//   - rapid run-time change: moving a module is a partial
//     reconfiguration of just its frames, orders of magnitude below a
//     full-device reconfiguration — see Stats and FullDeviceReconfig.
package reconfig

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/grid"
)

// DefaultFrameTime is the simulated configuration-port time per frame
// (the order of magnitude of an ICAP write of one frame).
const DefaultFrameTime = 6 * time.Microsecond

// Slot is one location a region's bitstreams can live in: the region's
// own placement (index 0) or one of its free-compatible areas.
type Slot struct {
	Region int
	Index  int
	Area   grid.Rect
}

// Manager operates a floorplanned design at run time.
//
// A Manager comes in two flavors sharing all operations:
//
//   - New builds a static manager from a floorplanned (problem, solution)
//     pair: the region set and their slots are fixed up front;
//   - NewDynamic builds a manager over an empty device for the online
//     session workload: regions are registered as modules arrive
//     (AddRegion), gain relocation targets at run time (AddSlot) and are
//     retired as modules depart (RemoveRegion).
type Manager struct {
	dev       *device.Device
	problem   *core.Problem // nil for dynamic managers
	cm        *bitstream.ConfigMemory
	frameTime time.Duration

	names   []string // per region: module name
	tasks   []string // per region: config-memory task name (see taskName)
	removed []bool   // per region: retired by RemoveRegion
	slots   [][]Slot // per region: placement + FC areas
	current []int    // per region: occupied slot index, -1 if unloaded
	mode    []int64  // per region: loaded mode seed (valid when current >= 0)
	// live lists the loaded regions, in no particular order: region
	// indices are never reused, so the per-region slices grow with every
	// region ever added, and occupancy scans only this list.
	live  []int
	store map[storeKey]*bitstream.Bitstream

	// faults, when non-nil, injects configuration-port failures into
	// every frame write; loadFrames retries/repairs around them.
	faults *FaultPlan

	stats Stats
}

type storeKey struct {
	region int
	mode   int64
}

// Stats accumulates the manager's activity.
type Stats struct {
	// Configurations counts initial mode loads.
	Configurations int `json:"configurations"`
	// ModeSwitches counts reconfigurations of a region in place.
	ModeSwitches int `json:"mode_switches"`
	// Relocations counts moves between compatible slots.
	Relocations int `json:"relocations"`
	// FramesWritten is the total configuration frames written.
	FramesWritten int `json:"frames_written"`
	// BusyTime is the summed configuration-port time.
	BusyTime time.Duration `json:"busy_time"`
	// FaultsInjected counts frame-write attempts a FaultPlan failed or
	// corrupted.
	FaultsInjected int `json:"faults_injected,omitempty"`
	// Retries counts frame-write attempts repeated after a transient
	// failure or a detected corruption.
	Retries int `json:"retries,omitempty"`
	// CorruptionsRepaired counts corrupted writes caught by readback
	// verification and repaired by rewriting the frames.
	CorruptionsRepaired int `json:"corruptions_repaired,omitempty"`
	// Rollbacks counts moves undone by ExecuteSchedule's transactional
	// rollback after a mid-schedule hard failure.
	Rollbacks int `json:"rollbacks,omitempty"`
}

// New builds a manager from a validated problem/solution pair.
func New(p *core.Problem, sol *core.Solution, frameTime time.Duration) (*Manager, error) {
	if err := sol.Validate(p); err != nil {
		return nil, fmt.Errorf("reconfig: %w", err)
	}
	if frameTime <= 0 {
		frameTime = DefaultFrameTime
	}
	m := &Manager{
		dev:       p.Device,
		problem:   p,
		cm:        bitstream.NewConfigMemory(p.Device),
		frameTime: frameTime,
		names:     make([]string, len(p.Regions)),
		tasks:     make([]string, len(p.Regions)),
		removed:   make([]bool, len(p.Regions)),
		slots:     make([][]Slot, len(p.Regions)),
		current:   make([]int, len(p.Regions)),
		mode:      make([]int64, len(p.Regions)),
		store:     map[storeKey]*bitstream.Bitstream{},
	}
	for ri, r := range sol.Regions {
		m.names[ri] = p.Regions[ri].Name
		m.tasks[ri] = taskName(ri, m.names[ri])
		m.slots[ri] = []Slot{{Region: ri, Index: 0, Area: r}}
		m.current[ri] = -1
	}
	for _, fc := range sol.FC {
		if !fc.Placed {
			continue
		}
		ri := p.FCAreas[fc.Request].Region
		m.slots[ri] = append(m.slots[ri], Slot{
			Region: ri,
			Index:  len(m.slots[ri]),
			Area:   fc.Rect,
		})
	}
	return m, nil
}

// Slots returns the slots available to a region (home placement first).
func (m *Manager) Slots(region int) []Slot {
	return append([]Slot(nil), m.slots[region]...)
}

// CurrentSlot returns the slot a region currently occupies, or -1.
func (m *Manager) CurrentSlot(region int) int { return m.current[region] }

// Stats returns the accumulated activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// RestoreStats overwrites the activity counters — used by crash
// recovery to resume the counters a persisted session had accumulated,
// instead of restarting them at the replay's (much smaller) cost.
func (m *Manager) RestoreStats(s Stats) { m.stats = s }

// SetFaultPlan installs (or, with nil, removes) the injected-fault
// schedule applied to subsequent frame writes.
func (m *Manager) SetFaultPlan(p *FaultPlan) { m.faults = p }

// FrameDigest hashes the entire configuration memory (every loaded
// frame's address and payload). Two managers operating the same live
// design digest identically — the frame-for-frame equality check used
// by crash-recovery tests.
func (m *Manager) FrameDigest() uint32 { return m.cm.Digest() }

// taskName labels a region's configuration in the config memory.
func taskName(region int, name string) string {
	return fmt.Sprintf("region-%d:%s", region, name)
}

// bitstreamFor returns (building and caching on first use) the single
// stored bitstream of a region mode, generated for the region's home
// slot. Thanks to relocatability the same stored image serves every slot.
func (m *Manager) bitstreamFor(region int, mode int64) (*bitstream.Bitstream, error) {
	key := storeKey{region: region, mode: mode}
	if bs, ok := m.store[key]; ok {
		return bs, nil
	}
	bs, err := bitstream.Generate(m.dev, m.slots[region][0].Area, mode)
	if err != nil {
		return nil, err
	}
	m.store[key] = bs
	return bs, nil
}

// placedAt runs the relocation filter to retarget a stored image to
// area. The image was generated for its home area, so the home slot
// takes it as it is.
func (m *Manager) placedAt(bs *bitstream.Bitstream, area grid.Rect) (*bitstream.Bitstream, error) {
	if area == bs.Area {
		return bs, nil
	}
	return bitstream.Relocate(m.dev, bs, area)
}

// charge accounts for writing a bitstream through the configuration port.
func (m *Manager) charge(bs *bitstream.Bitstream) {
	m.stats.FramesWritten += bs.FrameCount()
	m.stats.BusyTime += time.Duration(bs.FrameCount()) * m.frameTime
}

// loadFrames writes a bitstream into configuration memory under the
// fault plan, retrying with capped exponential backoff. Each attempt
// draws one fault:
//
//   - pass: the write lands and is readback-verified (belt and braces —
//     a silently corrupted pass would otherwise survive);
//   - transient: the attempt fails; the next attempt draws afresh;
//   - corrupt: the write lands with flipped bits in one frame; readback
//     verification catches the mismatch and the retry rewrites;
//   - stuck: the port is dead for the rest of this operation — every
//     remaining attempt fails.
//
// When the attempt budget is exhausted the operation hard-fails with a
// KindFaulted OpError wrapping ErrFaultInjected; the frames the task had
// written in failed attempts are unloaded so no half-written
// configuration lingers. Substrate rejections (CRC, ownership, bounds)
// are not retried: they are deterministic model errors, not hardware
// flakes.
func (m *Manager) loadFrames(op string, region, slot int, bs *bitstream.Bitstream, task string) error {
	stuck := false
	for attempt := 1; ; attempt++ {
		fault := m.faults.draw()
		if stuck {
			fault = FaultStuck
		}
		switch fault {
		case FaultTransient, FaultStuck:
			m.stats.FaultsInjected++
			if fault == FaultStuck {
				stuck = true
			}
		case FaultCorrupt:
			m.stats.FaultsInjected++
			if err := m.cm.Load(bs, task); err != nil {
				return wrapErr(op, region, slot, err)
			}
			m.charge(bs)
			m.cm.CorruptFrame(bs.Frames[attempt%len(bs.Frames)].Addr, 0xA5)
			if m.verifyLoaded(bs) > 0 {
				m.stats.CorruptionsRepaired++
			}
		default: // FaultPass
			if err := m.cm.Load(bs, task); err != nil {
				return wrapErr(op, region, slot, err)
			}
			m.charge(bs)
			if m.verifyLoaded(bs) == 0 {
				return nil
			}
			// A pass whose readback still mismatches means stale frames
			// from an earlier corrupted attempt survived under another
			// owner — cannot happen with same-task overwrite, but verify
			// is cheap and the retry below is the right response anyway.
			m.stats.CorruptionsRepaired++
		}
		if attempt >= m.faults.maxAttempts() {
			m.cm.Unload(task)
			return &OpError{Op: op, Region: region, Slot: slot, Kind: KindFaulted,
				Detail: fmt.Sprintf("after %d attempts", attempt), Err: ErrFaultInjected}
		}
		m.stats.Retries++
		m.faults.backoff(attempt)
	}
}

// verifyLoaded reads the bitstream's frames back from configuration
// memory and counts mismatches against the expected payloads.
func (m *Manager) verifyLoaded(bs *bitstream.Bitstream) int {
	mismatched := 0
	for _, f := range bs.Frames {
		got, ok := m.cm.Frame(f.Addr)
		if !ok || got != f.Payload {
			mismatched++
		}
	}
	return mismatched
}

// Configure loads a module mode into one of the region's slots.
func (m *Manager) Configure(region int, mode int64, slot int) error {
	const op = "configure"
	if err := m.checkSlot(op, region, slot); err != nil {
		return err
	}
	if m.current[region] >= 0 {
		return slotErr(op, region, slot, KindAlreadyConfigured, "unload or switch modes first")
	}
	target := m.slots[region][slot].Area
	if other, taken := m.occupiedBy(target, region); taken {
		return slotErr(op, region, slot, KindOccupied,
			fmt.Sprintf("area %v overlaps live region %d (%s)", target, other, m.names[other]))
	}
	bs, err := m.bitstreamFor(region, mode)
	if err != nil {
		return wrapErr(op, region, slot, err)
	}
	placed, err := m.placedAt(bs, target)
	if err != nil {
		return wrapErr(op, region, slot, err)
	}
	if err := m.loadFrames(op, region, slot, placed, m.tasks[region]); err != nil {
		return err
	}
	m.current[region] = slot
	m.mode[region] = mode
	m.live = append(m.live, region)
	m.stats.Configurations++
	return nil
}

// SwitchMode reconfigures the region in place with a different mode (the
// SDR scenario: mutually exclusive implementations of one module).
func (m *Manager) SwitchMode(region int, mode int64) error {
	const op = "switch-mode"
	if err := m.checkRegion(op, region); err != nil {
		return err
	}
	slot := m.current[region]
	if slot < 0 {
		return opErr(op, region, KindNotConfigured, "")
	}
	bs, err := m.bitstreamFor(region, mode)
	if err != nil {
		return wrapErr(op, region, slot, err)
	}
	placed, err := m.placedAt(bs, m.slots[region][slot].Area)
	if err != nil {
		return wrapErr(op, region, slot, err)
	}
	m.cm.Unload(m.tasks[region])
	if err := m.loadFrames(op, region, slot, placed, m.tasks[region]); err != nil {
		// An in-place switch overwrites the region's own frames, so a
		// hard fault here has already torn the old mode down. Restore it
		// from the stored image so the region keeps running what it ran
		// before: the restore bypasses injection — the image is known
		// good, and modelling a second-order fault on the recovery write
		// adds nothing (the caller already gets the KindFaulted error).
		if old, berr := m.bitstreamFor(region, m.mode[region]); berr == nil {
			if restored, rerr := m.placedAt(old, m.slots[region][slot].Area); rerr == nil {
				_ = m.cm.Load(restored, m.tasks[region])
			}
		}
		return err
	}
	m.mode[region] = mode
	m.stats.ModeSwitches++
	return nil
}

// Relocate moves the region's running mode to another of its slots: the
// stored bitstream is retargeted by the filter and written to the new
// area, then the old area is released. This is the operation the
// floorplanner's free-compatible areas exist for.
func (m *Manager) Relocate(region, slot int) error {
	const op = "relocate"
	if err := m.checkSlot(op, region, slot); err != nil {
		return err
	}
	cur := m.current[region]
	if cur < 0 {
		return slotErr(op, region, slot, KindNotConfigured, "")
	}
	if cur == slot {
		return nil
	}
	source := m.slots[region][cur].Area
	target := m.slots[region][slot].Area
	if !m.dev.Compatible(m.slots[region][0].Area, target) {
		return slotErr(op, region, slot, KindIncompatible,
			fmt.Sprintf("area %v is not compatible with home area %v", target, m.slots[region][0].Area))
	}
	if other, taken := m.occupiedBy(target, region); taken {
		return slotErr(op, region, slot, KindOccupied,
			fmt.Sprintf("area %v overlaps live region %d (%s)", target, other, m.names[other]))
	}
	if target.Overlaps(source) {
		return slotErr(op, region, slot, KindOccupied,
			fmt.Sprintf("area %v overlaps the region's own live area %v (make-before-break needs a disjoint target)", target, source))
	}
	bs, err := m.bitstreamFor(region, m.mode[region])
	if err != nil {
		return wrapErr(op, region, slot, err)
	}
	moved, err := m.placedAt(bs, target)
	if err != nil {
		return wrapErr(op, region, slot, err)
	}
	// Configure the target first (it is reserved, so it must be free),
	// then release the source — make-before-break. Only this write goes
	// through the fault plan: if it hard-fails the source copy is still
	// live and the region is untouched. The handover then clears the
	// source and relabels the verified target frames as the region's,
	// without writing a frame.
	tmpTask := m.tasks[region] + ":moving"
	if err := m.loadFrames(op, region, slot, moved, tmpTask); err != nil {
		return err
	}
	m.cm.Handover(tmpTask, m.tasks[region])
	m.current[region] = slot
	m.stats.Relocations++
	return nil
}

// Unload releases a region's configuration.
func (m *Manager) Unload(region int) {
	if region < 0 || region >= len(m.slots) || m.removed[region] {
		return
	}
	if m.current[region] < 0 {
		return
	}
	m.cm.Unload(m.tasks[region])
	m.current[region] = -1
	for i, ri := range m.live {
		if ri == region {
			m.live[i] = m.live[len(m.live)-1]
			m.live = m.live[:len(m.live)-1]
			break
		}
	}
}

// checkRegion validates a region index against the live region set.
func (m *Manager) checkRegion(op string, region int) error {
	if region < 0 || region >= len(m.slots) || m.removed[region] {
		return opErr(op, region, KindUnknownRegion, "")
	}
	return nil
}

func (m *Manager) checkSlot(op string, region, slot int) error {
	if err := m.checkRegion(op, region); err != nil {
		return err
	}
	if slot < 0 || slot >= len(m.slots[region]) {
		return slotErr(op, region, slot, KindUnknownSlot,
			fmt.Sprintf("region has %d slots", len(m.slots[region])))
	}
	return nil
}

// occupiedBy reports whether area overlaps the current area of any live
// region other than exclude, naming the lowest such region index.
func (m *Manager) occupiedBy(area grid.Rect, exclude int) (region int, taken bool) {
	region = -1
	for _, ri := range m.live {
		if ri == exclude || (taken && ri > region) {
			continue
		}
		if m.slots[ri][m.current[ri]].Area.Overlaps(area) {
			region, taken = ri, true
		}
	}
	return region, taken
}

// FullDeviceReconfig returns the simulated time of reconfiguring the
// whole device — the baseline partial reconfiguration beats (the paper's
// "as FPGA gets larger, it takes longer to reconfigure the entire chip").
func (m *Manager) FullDeviceReconfig() time.Duration {
	return time.Duration(m.dev.TotalFrames()) * m.frameTime
}

// RegionReconfig returns the simulated time of reconfiguring one region.
func (m *Manager) RegionReconfig(region int) time.Duration {
	frames := m.dev.FramesInRect(m.slots[region][0].Area)
	return time.Duration(frames) * m.frameTime
}

// StorageEntry describes the bitstream storage needed for one region.
type StorageEntry struct {
	Region string
	Modes  int
	Slots  int
	// WithRelocation is the stored bytes using one relocatable image
	// per mode.
	WithRelocation int
	// WithoutRelocation is the stored bytes when every (mode, slot)
	// pair needs its own image (no relocation filter available).
	WithoutRelocation int
}

// StorageReport quantifies the design re-use benefit: stored bitstream
// bytes per region for a given number of modes, with and without
// relocation.
func (m *Manager) StorageReport(modesPerRegion int) ([]StorageEntry, error) {
	var out []StorageEntry
	for ri, slots := range m.slots {
		if m.removed[ri] {
			continue
		}
		bs, err := m.bitstreamFor(ri, 0)
		if err != nil {
			return nil, err
		}
		data, err := bs.Bytes()
		if err != nil {
			return nil, err
		}
		out = append(out, StorageEntry{
			Region:            m.names[ri],
			Modes:             modesPerRegion,
			Slots:             len(slots),
			WithRelocation:    modesPerRegion * len(data),
			WithoutRelocation: modesPerRegion * len(slots) * len(data),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out, nil
}
