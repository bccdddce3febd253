package reconfig

import (
	"fmt"
	"time"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/grid"
)

// NewDynamic builds a manager over an empty device for online workloads:
// no problem, no pre-reserved slots. Regions are registered as modules
// arrive (AddRegion), gain relocation targets at run time (AddSlot) and
// are retired as modules depart (RemoveRegion).
func NewDynamic(dev *device.Device, frameTime time.Duration) *Manager {
	if frameTime <= 0 {
		frameTime = DefaultFrameTime
	}
	return &Manager{
		dev:       dev,
		cm:        bitstream.NewConfigMemory(dev),
		frameTime: frameTime,
		store:     map[storeKey]*bitstream.Bitstream{},
	}
}

// AddRegion registers a new region with the given home area and returns
// its index. The area must be placeable on the device and must not
// overlap any live configuration. The region starts unloaded; Configure
// it into slot 0 to bring it up.
func (m *Manager) AddRegion(name string, home grid.Rect) (int, error) {
	const op = "add-region"
	ri := len(m.slots)
	if !m.dev.CanPlace(home) {
		return -1, opErr(op, ri, KindIllegalArea,
			fmt.Sprintf("area %v is outside the device or crosses a forbidden block", home))
	}
	if other, taken := m.occupiedBy(home, -1); taken {
		return -1, opErr(op, ri, KindOccupied,
			fmt.Sprintf("area %v overlaps live region %d (%s)", home, other, m.names[other]))
	}
	m.names = append(m.names, name)
	m.tasks = append(m.tasks, taskName(ri, name))
	m.removed = append(m.removed, false)
	m.slots = append(m.slots, []Slot{{Region: ri, Index: 0, Area: home}})
	m.current = append(m.current, -1)
	m.mode = append(m.mode, 0)
	return ri, nil
}

// AddSlot registers a relocation target for a region and returns its slot
// index. The area must be placeable and relocation-compatible with the
// region's home area; it need not be free — occupancy is checked when a
// move actually targets it. Adding an area the region already has is
// idempotent and returns the existing slot index.
func (m *Manager) AddSlot(region int, area grid.Rect) (int, error) {
	const op = "add-slot"
	if err := m.checkRegion(op, region); err != nil {
		return -1, err
	}
	for _, s := range m.slots[region] {
		if s.Area == area {
			return s.Index, nil
		}
	}
	if !m.dev.CanPlace(area) {
		return -1, opErr(op, region, KindIllegalArea,
			fmt.Sprintf("area %v is outside the device or crosses a forbidden block", area))
	}
	if !m.dev.Compatible(m.slots[region][0].Area, area) {
		return -1, opErr(op, region, KindIncompatible,
			fmt.Sprintf("area %v is not compatible with home area %v", area, m.slots[region][0].Area))
	}
	si := len(m.slots[region])
	m.slots[region] = append(m.slots[region], Slot{Region: region, Index: si, Area: area})
	return si, nil
}

// RemoveRegion unloads a region and retires its index: the area is
// released and every later operation on the index fails with
// KindUnknownRegion. Indices are never reused, so handles held by
// callers stay unambiguous.
func (m *Manager) RemoveRegion(region int) error {
	const op = "remove-region"
	if err := m.checkRegion(op, region); err != nil {
		return err
	}
	m.Unload(region)
	m.removed[region] = true
	for key := range m.store {
		if key.region == region {
			delete(m.store, key)
		}
	}
	return nil
}

// Removed reports whether a region index has been retired.
func (m *Manager) Removed(region int) bool {
	return region < 0 || region >= len(m.removed) || m.removed[region]
}

// CurrentArea returns the area a region currently occupies. ok is false
// when the region is unloaded or removed.
func (m *Manager) CurrentArea(region int) (grid.Rect, bool) {
	if region < 0 || region >= len(m.slots) || m.removed[region] || m.current[region] < 0 {
		return grid.Rect{}, false
	}
	return m.slots[region][m.current[region]].Area, true
}

// LiveAreas returns the current area of every loaded region, indexed by
// region. Unloaded and removed regions are absent.
func (m *Manager) LiveAreas() map[int]grid.Rect {
	out := make(map[int]grid.Rect, len(m.live))
	for _, ri := range m.live {
		out[ri] = m.slots[ri][m.current[ri]].Area
	}
	return out
}
