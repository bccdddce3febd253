package bitstream

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/grid"
)

// ConfigMemory simulates the device's configuration memory plane: frames
// are written through Load, which performs the checks the configuration
// interface (and a bitstream filter) would perform.
//
// The memory is dense, like the hardware it models: every frame of the
// device has one slot in a payload plane and one in an owner plane, at
// its offset in address order (column, then row, then minor). Each
// loaded task keeps the list of slots it owns, so every operation costs
// the frames it touches, never the frames loaded on the device: Load is
// O(bitstream frames), Unload, Handover and TaskEquivalent are O(task
// frames), Frame and CorruptFrame are O(1). Digest walks the plane once
// in address order.
type ConfigMemory struct {
	dev *device.Device
	// base holds, per tile in address order (tile c*height + r), the plane
	// offset of its minor 0; base[tiles] is the plane size, so tile t's
	// frames are base[t] .. base[t+1]-1.
	base    []int32
	height  int
	payload [][FrameBytes]byte
	// owner holds the owning task's handle per plane offset, 0 when the
	// frame is unconfigured.
	owner []int32
	// handles maps a loaded task to its handle, an index into tasks
	// (tasks[0] is unused). An unloaded task's handle goes to free for
	// reuse, so the task table never outgrows the tasks loaded at once.
	handles map[string]int32
	tasks   []taskFrames
	free    []int32
	loaded  int
}

// taskFrames is one loaded task: its name and the plane offsets it owns.
type taskFrames struct {
	name   string
	frames []int32
}

// NewConfigMemory returns an empty configuration memory for d.
func NewConfigMemory(d *device.Device) *ConfigMemory {
	w, h := d.Width(), d.Height()
	base := make([]int32, 0, w*h+1)
	n := int32(0)
	for c := 0; c < w; c++ {
		for r := 0; r < h; r++ {
			base = append(base, n)
			n += int32(d.TileAt(c, r).Frames)
		}
	}
	base = append(base, n)
	return &ConfigMemory{
		dev:     d,
		base:    base,
		height:  h,
		payload: make([][FrameBytes]byte, n),
		owner:   make([]int32, n),
		handles: make(map[string]int32),
		tasks:   make([]taskFrames, 1),
	}
}

// offset returns addr's plane offset; ok is false when the tile is off
// the device or the minor index is beyond its tile's frames.
func (cm *ConfigMemory) offset(addr FrameAddress) (int32, bool) {
	if addr.Column < 0 || addr.Column >= cm.dev.Width() || addr.Row < 0 || addr.Row >= cm.height || addr.Minor < 0 {
		return 0, false
	}
	tile := addr.Column*cm.height + addr.Row
	lo := cm.base[tile]
	if addr.Minor >= int(cm.base[tile+1]-lo) {
		return 0, false
	}
	return lo + int32(addr.Minor), true
}

// address inverts offset.
func (cm *ConfigMemory) address(off int32) FrameAddress {
	tile := sort.Search(len(cm.base)-1, func(t int) bool { return cm.base[t+1] > off })
	return FrameAddress{Column: tile / cm.height, Row: tile % cm.height, Minor: int(off - cm.base[tile])}
}

// Load writes a partial bitstream into configuration memory under the
// given task name. It rejects bitstreams with a stale CRC, frames outside
// the device or its stated area, frames addressed at forbidden tiles, and
// minor indices beyond the tile type's frame count. Tiles already owned
// by a different task are rejected too (the "must not overlap other
// tasks" rule of Definition .2).
func (cm *ConfigMemory) Load(bs *Bitstream, task string) error {
	if bs.DeviceName != cm.dev.Name() {
		return fmt.Errorf("bitstream: device mismatch: %q vs %q", bs.DeviceName, cm.dev.Name())
	}
	if !bs.CheckCRC() {
		return fmt.Errorf("bitstream: CRC mismatch (filter forgot to reseal?)")
	}
	bounds := cm.dev.Bounds()
	h := cm.handles[task]
	for i := range bs.Frames {
		addr := bs.Frames[i].Addr
		if !bounds.Contains(addr.Column, addr.Row) {
			return fmt.Errorf("bitstream: frame %v outside the device", addr)
		}
		if !bs.Area.Contains(addr.Column, addr.Row) {
			return fmt.Errorf("bitstream: frame %v outside the declared area %v", addr, bs.Area)
		}
		if cm.dev.InForbidden(addr.Column, addr.Row) {
			return fmt.Errorf("bitstream: frame %v targets a forbidden tile", addr)
		}
		off, ok := cm.offset(addr)
		if !ok {
			t := cm.dev.TileAt(addr.Column, addr.Row)
			return fmt.Errorf("bitstream: frame %v has minor index beyond %s's %d frames", addr, t.Name, t.Frames)
		}
		if o := cm.owner[off]; o != 0 && o != h {
			return fmt.Errorf("bitstream: frame %v already configured by task %q", addr, cm.tasks[o].name)
		}
	}
	if len(bs.Frames) == 0 {
		return nil
	}
	if h == 0 {
		h = cm.acquire(task)
	}
	t := &cm.tasks[h]
	before := len(t.frames)
	for i := range bs.Frames {
		f := &bs.Frames[i]
		off, _ := cm.offset(f.Addr)
		if cm.owner[off] == 0 {
			cm.owner[off] = h
			t.frames = append(t.frames, off)
		}
		cm.payload[off] = f.Payload
	}
	cm.loaded += len(t.frames) - before
	return nil
}

// acquire registers task under a free handle.
func (cm *ConfigMemory) acquire(task string) int32 {
	var h int32
	if n := len(cm.free); n > 0 {
		h = cm.free[n-1]
		cm.free = cm.free[:n-1]
	} else {
		h = int32(len(cm.tasks))
		cm.tasks = append(cm.tasks, taskFrames{})
	}
	cm.tasks[h].name = task
	cm.handles[task] = h
	return h
}

// Unload clears every frame owned by the task (the area becomes free for
// relocation targets again) and releases the task's handle.
func (cm *ConfigMemory) Unload(task string) {
	h, ok := cm.handles[task]
	if !ok {
		return
	}
	t := &cm.tasks[h]
	for _, off := range t.frames {
		cm.owner[off] = 0
	}
	cm.loaded -= len(t.frames)
	t.name, t.frames = "", t.frames[:0]
	delete(cm.handles, task)
	cm.free = append(cm.free, h)
}

// Handover ends a make-before-break relocation: the frames of task to
// (the old copy) are cleared, and the frames of task from (the new copy,
// written under a temporary name) become task to's. No frame is
// rewritten, so nothing is re-checked: from's frames passed Load's
// checks when they were written.
func (cm *ConfigMemory) Handover(from, to string) {
	cm.Unload(to)
	h, ok := cm.handles[from]
	if !ok {
		return
	}
	delete(cm.handles, from)
	cm.handles[to] = h
	cm.tasks[h].name = to
}

// Frame reads back one configured frame.
func (cm *ConfigMemory) Frame(addr FrameAddress) ([FrameBytes]byte, bool) {
	off, ok := cm.offset(addr)
	if !ok || cm.owner[off] == 0 {
		return [FrameBytes]byte{}, false
	}
	return cm.payload[off], true
}

// CorruptFrame flips the given bit mask into the first payload word of a
// loaded frame, reporting whether the frame existed. It models an upset
// during shift-in — the write "succeeded" but the stored content is
// wrong — and exists for fault injection; only readback can detect it.
func (cm *ConfigMemory) CorruptFrame(addr FrameAddress, mask byte) bool {
	off, ok := cm.offset(addr)
	if !ok || cm.owner[off] == 0 {
		return false
	}
	cm.payload[off][0] ^= mask
	return true
}

// Digest hashes every configured frame (address and payload, in address
// order) into one CRC-32. Two configuration memories holding the same
// design content at the same locations digest identically — the
// frame-for-frame equality check crash-recovery verification relies on.
func (cm *ConfigMemory) Digest() uint32 {
	w := newCRCWriter()
	for tile := 0; tile+1 < len(cm.base); tile++ {
		for off := cm.base[tile]; off < cm.base[tile+1]; off++ {
			if cm.owner[off] == 0 {
				continue
			}
			rec := w.next(6 + FrameBytes)
			binary.LittleEndian.PutUint16(rec[0:], uint16(tile/cm.height))
			binary.LittleEndian.PutUint16(rec[2:], uint16(tile%cm.height))
			binary.LittleEndian.PutUint16(rec[4:], uint16(off-cm.base[tile]))
			copy(rec[6:], cm.payload[off][:])
		}
	}
	return w.sum()
}

// LoadedFrames returns the number of configured frames.
func (cm *ConfigMemory) LoadedFrames() int { return cm.loaded }

// TaskEquivalent reports whether two tasks' configurations are
// functionally identical: same relative frame layout and payloads within
// their areas. A correct relocation always satisfies this.
func (cm *ConfigMemory) TaskEquivalent(taskA string, areaA grid.Rect, taskB string, areaB grid.Rect) bool {
	if !areaA.SameShape(areaB) {
		return false
	}
	ha, okA := cm.handles[taskA]
	hb, okB := cm.handles[taskB]
	if !okA || !okB || len(cm.tasks[ha].frames) != len(cm.tasks[hb].frames) {
		return false
	}
	// Equal counts plus an injective match of every B frame onto an A
	// frame at the same relative address is a bijection.
	for _, offB := range cm.tasks[hb].frames {
		addr := cm.address(offB)
		addr.Column += areaA.X - areaB.X
		addr.Row += areaA.Y - areaB.Y
		offA, ok := cm.offset(addr)
		if !ok || cm.owner[offA] != ha || cm.payload[offA] != cm.payload[offB] {
			return false
		}
	}
	return true
}
