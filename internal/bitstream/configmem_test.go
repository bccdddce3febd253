package bitstream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/grid"
)

// refMemory is the differential oracle for ConfigMemory: the obvious
// map-backed model, with every operation written for clarity, not speed.
// Load performs the same checks in the same order with the same text.
type refMemory struct {
	dev    *device.Device
	frames map[FrameAddress][FrameBytes]byte
	owner  map[FrameAddress]string
}

func newRefMemory(d *device.Device) *refMemory {
	return &refMemory{dev: d, frames: map[FrameAddress][FrameBytes]byte{}, owner: map[FrameAddress]string{}}
}

func (m *refMemory) Load(bs *Bitstream, task string) error {
	if bs.DeviceName != m.dev.Name() {
		return fmt.Errorf("bitstream: device mismatch: %q vs %q", bs.DeviceName, m.dev.Name())
	}
	if !bs.CheckCRC() {
		return fmt.Errorf("bitstream: CRC mismatch (filter forgot to reseal?)")
	}
	for _, f := range bs.Frames {
		if !m.dev.Bounds().Contains(f.Addr.Column, f.Addr.Row) {
			return fmt.Errorf("bitstream: frame %v outside the device", f.Addr)
		}
		if !bs.Area.Contains(f.Addr.Column, f.Addr.Row) {
			return fmt.Errorf("bitstream: frame %v outside the declared area %v", f.Addr, bs.Area)
		}
		if m.dev.InForbidden(f.Addr.Column, f.Addr.Row) {
			return fmt.Errorf("bitstream: frame %v targets a forbidden tile", f.Addr)
		}
		t := m.dev.TileAt(f.Addr.Column, f.Addr.Row)
		if f.Addr.Minor < 0 || f.Addr.Minor >= t.Frames {
			return fmt.Errorf("bitstream: frame %v has minor index beyond %s's %d frames", f.Addr, t.Name, t.Frames)
		}
		if owner, taken := m.owner[f.Addr]; taken && owner != task {
			return fmt.Errorf("bitstream: frame %v already configured by task %q", f.Addr, owner)
		}
	}
	for _, f := range bs.Frames {
		m.frames[f.Addr] = f.Payload
		m.owner[f.Addr] = task
	}
	return nil
}

func (m *refMemory) Unload(task string) {
	for addr, owner := range m.owner {
		if owner == task {
			delete(m.frames, addr)
			delete(m.owner, addr)
		}
	}
}

func (m *refMemory) Handover(from, to string) {
	m.Unload(to)
	for addr, owner := range m.owner {
		if owner == from {
			m.owner[addr] = to
		}
	}
}

func (m *refMemory) Frame(addr FrameAddress) ([FrameBytes]byte, bool) {
	p, ok := m.frames[addr]
	return p, ok
}

func (m *refMemory) CorruptFrame(addr FrameAddress, mask byte) bool {
	p, ok := m.frames[addr]
	if ok {
		p[0] ^= mask
		m.frames[addr] = p
	}
	return ok
}

// addrs returns the configured addresses in address order.
func (m *refMemory) addrs() []FrameAddress {
	out := make([]FrameAddress, 0, len(m.frames))
	for addr := range m.frames {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Minor < b.Minor
	})
	return out
}

func (m *refMemory) Digest() uint32 {
	h := crc32.NewIEEE()
	var buf [6]byte
	for _, addr := range m.addrs() {
		binary.LittleEndian.PutUint16(buf[0:], uint16(addr.Column))
		binary.LittleEndian.PutUint16(buf[2:], uint16(addr.Row))
		binary.LittleEndian.PutUint16(buf[4:], uint16(addr.Minor))
		h.Write(buf[:])
		p := m.frames[addr]
		h.Write(p[:])
	}
	return h.Sum32()
}

func (m *refMemory) LoadedFrames() int { return len(m.frames) }

func (m *refMemory) TaskEquivalent(taskA string, areaA grid.Rect, taskB string, areaB grid.Rect) bool {
	if !areaA.SameShape(areaB) {
		return false
	}
	rel := func(task string, area grid.Rect) map[FrameAddress][FrameBytes]byte {
		out := map[FrameAddress][FrameBytes]byte{}
		for addr, owner := range m.owner {
			if owner == task {
				out[FrameAddress{Column: addr.Column - area.X, Row: addr.Row - area.Y, Minor: addr.Minor}] = m.frames[addr]
			}
		}
		return out
	}
	a, b := rel(taskA, areaA), rel(taskB, areaB)
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for addr, p := range b {
		if q, ok := a[addr]; !ok || q != p {
			return false
		}
	}
	return true
}

// opStream decodes fuzz bytes into operation parameters; an exhausted
// stream reads zeros.
type opStream []byte

func (s *opStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

var fuzzTasks = []string{"a", "b", "c", "a:moving"}

// runConfigMemoryOps decodes data into a sequence of ConfigMemory
// operations on FX70T or K160T and checks every result against
// refMemory.
func runConfigMemoryOps(t *testing.T, devs []*device.Device, data []byte) {
	s := opStream(data)
	d := devs[s.next()%len(devs)]
	cm, ref := NewConfigMemory(d), newRefMemory(d)
	areas := map[string]grid.Rect{}
	randArea := func() grid.Rect {
		return grid.Rect{X: s.next() % d.Width(), Y: s.next() % d.Height(), W: 1 + s.next()%6, H: 1 + s.next()%3}
	}
	pickAddr := func() FrameAddress {
		if live := ref.addrs(); s.next()%4 != 0 && len(live) > 0 {
			return live[s.next()%len(live)]
		}
		return FrameAddress{Column: int(int8(s.next())), Row: int(int8(s.next())), Minor: int(int8(s.next()))}
	}
	for step := 0; step < 48 && len(s) > 0; step++ {
		op := s.next() % 8
		switch op {
		case 0: // Load, clean or through one of the ways a bitstream goes bad
			task := fuzzTasks[s.next()%len(fuzzTasks)]
			bs, err := Generate(d, randArea(), int64(s.next()))
			if err != nil {
				continue
			}
			switch s.next() % 6 {
			case 1: // the relocation filter, to a compatible area or not
				target := bs.Area
				target.X, target.Y = s.next()%d.Width(), s.next()%d.Height()
				if moved, err := Relocate(d, bs, target); err == nil {
					bs = moved
				}
			case 2: // a payload bit flipped after sealing
				bs.Frames[s.next()%len(bs.Frames)].Payload[s.next()%FrameBytes] ^= 1
			case 3: // one resealed frame moved, possibly off the area
				f := &bs.Frames[s.next()%len(bs.Frames)]
				f.Addr.Column += int(int8(s.next())) % 4
				f.Addr.Row += int(int8(s.next())) % 3
				f.Addr.Minor += int(int8(s.next())) % 40
				bs.Seal()
			case 4: // a naive relocation: every address moved, no filter
				dx, dy := int(int8(s.next()))%12, int(int8(s.next()))%4
				bs.Area.X += dx
				bs.Area.Y += dy
				for i := range bs.Frames {
					bs.Frames[i].Addr.Column += dx
					bs.Frames[i].Addr.Row += dy
				}
				bs.Seal()
			case 5: // built for another device
				bs.DeviceName += "-es"
				bs.Seal()
			}
			got, want := cm.Load(bs, task), ref.Load(bs, task)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d Load(%v, %q) = %v, want %v", step, bs.Area, task, got, want)
			}
			if want == nil {
				areas[task] = bs.Area
			}
		case 1:
			task := fuzzTasks[s.next()%len(fuzzTasks)]
			cm.Unload(task)
			ref.Unload(task)
		case 2:
			from, to := fuzzTasks[s.next()%len(fuzzTasks)], fuzzTasks[s.next()%len(fuzzTasks)]
			cm.Handover(from, to)
			ref.Handover(from, to)
			if area, ok := areas[from]; ok {
				areas[to] = area
			}
		case 3:
			addr, mask := pickAddr(), byte(1+s.next()%255)
			if got, want := cm.CorruptFrame(addr, mask), ref.CorruptFrame(addr, mask); got != want {
				t.Fatalf("step %d CorruptFrame(%v) = %v, want %v", step, addr, got, want)
			}
		case 4:
			addr := pickAddr()
			gp, gok := cm.Frame(addr)
			wp, wok := ref.Frame(addr)
			if gp != wp || gok != wok {
				t.Fatalf("step %d Frame(%v) = %v, want %v", step, addr, gok, wok)
			}
		case 5:
			if got, want := cm.Digest(), ref.Digest(); got != want {
				t.Fatalf("step %d Digest = %#08x, want %#08x", step, got, want)
			}
		case 6:
			a, b := fuzzTasks[s.next()%len(fuzzTasks)], fuzzTasks[s.next()%len(fuzzTasks)]
			areaA, areaB := areas[a], areas[b]
			if s.next()%4 == 0 {
				areaB = randArea()
			}
			if got, want := cm.TaskEquivalent(a, areaA, b, areaB), ref.TaskEquivalent(a, areaA, b, areaB); got != want {
				t.Fatalf("step %d TaskEquivalent(%q %v, %q %v) = %v, want %v", step, a, areaA, b, areaB, got, want)
			}
		case 7:
			if got, want := cm.LoadedFrames(), ref.LoadedFrames(); got != want {
				t.Fatalf("step %d LoadedFrames = %d, want %d", step, got, want)
			}
		}
	}
	if got, want := cm.LoadedFrames(), ref.LoadedFrames(); got != want {
		t.Fatalf("final LoadedFrames = %d, want %d", got, want)
	}
	if got, want := cm.Digest(), ref.Digest(); got != want {
		t.Fatalf("final Digest = %#08x, want %#08x", got, want)
	}
}

// FuzzConfigMemoryOps differentially tests ConfigMemory against
// refMemory over decoded operation sequences.
func FuzzConfigMemoryOps(f *testing.F) {
	devs := []*device.Device{device.VirtexFX70T(), device.Kintex7K160T()}
	for _, seed := range configMemorySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runConfigMemoryOps(t, devs, data) })
}

// configMemorySeeds are a few hand-written operation sequences plus
// seeded random ones, which between them reach every operation and every
// Load rejection; `go test` runs them without -fuzz.
func configMemorySeeds() [][]byte {
	seeds := [][]byte{
		// FX70T: load a, load b over it (rejected), load b at a
		// compatible area, equivalence, digest, corrupt, read back,
		// handovers (one from an absent task), a rejected load, unload.
		{0, 0, 0, 4, 0, 6, 4, 42, 0, 0, 1, 4, 0, 6, 4, 7, 0,
			0, 1, 4, 0, 6, 4, 42, 1, 24, 2,
			6, 0, 1, 7, 5, 3, 1, 0, 0x5a, 4, 1, 0, 5,
			2, 3, 0, 0, 3, 4, 0, 6, 4, 42, 1, 24, 2, 2, 3, 1, 5, 1, 1, 7, 5},
		// K160T: a tampered payload, a frame moved past its tile's
		// minors, reads, unloads (one of an absent task), a handover
		// and a shape mismatch.
		{1, 0, 2, 0, 0, 3, 2, 9, 2, 1, 5,
			0, 2, 10, 1, 3, 2, 9, 3, 1, 200, 0, 0,
			0, 1, 0, 0, 4, 1, 3, 4, 2, 1,
			0, 0, 5, 5, 2, 2, 3, 0, 7, 4, 0, 250, 3, 9, 5, 7,
			1, 3, 1, 2, 2, 0, 1, 6, 1, 2, 0, 1, 0, 9, 7, 5},
		// FX70T: an illegal area (skipped), reads and equivalence on an
		// empty memory, a 1x1 load.
		{0, 0, 0, 12, 1, 4, 2, 3, 4, 250, 1, 0, 1, 14, 3, 2, 2, 5, 0, 5, 7},
		// FX70T: same-shape tasks with different content are not
		// equivalent; a naive move onto the PowerPC block; a foreign
		// device.
		{0, 0, 0, 4, 0, 5, 2, 42, 0, 0, 1, 24, 0, 5, 2, 7, 0, 6, 0, 1, 1,
			0, 2, 10, 2, 2, 1, 3, 4, 5, 0, 0, 2, 30, 0, 1, 1, 3, 5, 7},
	}
	for i := int64(0); i < 32; i++ {
		seed := make([]byte, 200)
		rand.New(rand.NewSource(i)).Read(seed)
		seeds = append(seeds, seed)
	}
	return seeds
}

func TestConfigMemoryOpsSeeds(t *testing.T) {
	devs := []*device.Device{device.VirtexFX70T(), device.Kintex7K160T()}
	for i, seed := range configMemorySeeds() {
		t.Run(fmt.Sprint(i), func(t *testing.T) { runConfigMemoryOps(t, devs, seed) })
	}
}

// TestTaskTableBounded: the task table is sized by the tasks loaded at
// once, not by every task ever loaded.
func TestTaskTableBounded(t *testing.T) {
	d := fx()
	cm := NewConfigMemory(d)
	bs := mustGenerate(t, d, grid.Rect{X: 4, Y: 0, W: 3, H: 2}, 1)
	for i := 0; i < 1000; i++ {
		task := fmt.Sprintf("task-%d", i)
		mustLoad(t, cm, bs, task)
		cm.Unload(task)
	}
	if len(cm.tasks) > 2 || len(cm.handles) != 0 || cm.LoadedFrames() != 0 {
		t.Fatalf("after 1000 load/unload pairs: %d task slots, %d handles, %d frames loaded",
			len(cm.tasks), len(cm.handles), cm.LoadedFrames())
	}
}

// TestHandoverKeepsContent: after a make-before-break handover the moved
// copy belongs to the task, the source area is free, and a reload under
// the task name overwrites in place.
func TestHandoverKeepsContent(t *testing.T) {
	d := fx()
	cm := NewConfigMemory(d)
	src, dst := grid.Rect{X: 4, Y: 0, W: 6, H: 5}, grid.Rect{X: 24, Y: 2, W: 6, H: 5}
	bs := mustGenerate(t, d, src, 3)
	mustLoad(t, cm, bs, "t")
	moved, err := Relocate(d, bs, dst)
	if err != nil {
		t.Fatal(err)
	}
	mustLoad(t, cm, moved, "t:moving")
	cm.Handover("t:moving", "t")
	if cm.LoadedFrames() != moved.FrameCount() {
		t.Fatalf("loaded %d frames, want %d", cm.LoadedFrames(), moved.FrameCount())
	}
	if _, ok := cm.Frame(bs.Frames[0].Addr); ok {
		t.Fatal("source frame still configured after handover")
	}
	for _, f := range moved.Frames {
		if got, ok := cm.Frame(f.Addr); !ok || got != f.Payload {
			t.Fatalf("frame %v lost in handover", f.Addr)
		}
	}
	// The source is free for another task; the target is "t"'s.
	mustLoad(t, cm, mustGenerate(t, d, src, 4), "u")
	if err := cm.Load(mustGenerate(t, d, dst, 4), "u2"); err == nil {
		t.Fatal("handed-over frames accepted another task")
	}
	mustLoad(t, cm, moved, "t")
	cm.Unload("t")
	cm.Unload("u")
	if cm.LoadedFrames() != 0 {
		t.Fatalf("%d frames left after unloading everything", cm.LoadedFrames())
	}
}
