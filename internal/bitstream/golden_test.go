package bitstream

import (
	"testing"

	"repro/internal/device"
	"repro/internal/grid"
)

// The CRC and Digest goldens below were captured from the map-backed
// configuration memory this dense plane replaced. Crash recovery and the
// benchmark's recovery check compare digests across processes and
// versions, so a representation change must not move them.

func TestCRCGolden(t *testing.T) {
	for _, tc := range []struct {
		d    *device.Device
		area grid.Rect
		seed int64
		want uint32
	}{
		{fx(), grid.Rect{X: 4, Y: 0, W: 6, H: 5}, 42, 0xd75a6369},
		{device.Kintex7K160T(), grid.Rect{X: 0, Y: 0, W: 3, H: 2}, 7, 0xc0bc1026},
	} {
		bs, err := Generate(tc.d, tc.area, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if bs.CRC != tc.want {
			t.Errorf("%s %v seed %d: CRC %#08x, want %#08x", tc.d.Name(), tc.area, tc.seed, bs.CRC, tc.want)
		}
	}
}

// TestDigestGolden pins Digest along a fixed sequence: two loads, a
// make-before-break relocation with its ownership handover, an unload, a
// load into the freed area and one corrupted frame.
func TestDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		d                     *device.Device
		src, other, dst, late grid.Rect
		want                  [3]uint32
		loaded                int
	}{
		{fx(), grid.Rect{X: 4, Y: 0, W: 6, H: 5}, grid.Rect{X: 0, Y: 5, W: 3, H: 2},
			grid.Rect{X: 24, Y: 2, W: 6, H: 5}, grid.Rect{X: 0, Y: 5, W: 2, H: 2},
			[3]uint32{0x7fdbf9f7, 0xb6ece2b3, 0x89ff2971}, 1184},
		{device.Kintex7K160T(), grid.Rect{X: 0, Y: 0, W: 7, H: 3}, grid.Rect{X: 20, Y: 4, W: 4, H: 2},
			grid.Rect{X: 0, Y: 6, W: 7, H: 3}, grid.Rect{X: 20, Y: 4, W: 3, H: 1},
			[3]uint32{0x2cdee578, 0x46750d22, 0xd71288f2}, 816},
	} {
		t.Run(tc.d.Name(), func(t *testing.T) {
			cm := NewConfigMemory(tc.d)
			if got := cm.Digest(); got != 0 {
				t.Fatalf("empty memory digest %#08x, want 0", got)
			}
			bsA := mustGenerate(t, tc.d, tc.src, 42)
			bsB := mustGenerate(t, tc.d, tc.other, 9)
			mustLoad(t, cm, bsA, "a")
			mustLoad(t, cm, bsB, "b")
			var got [3]uint32
			got[0] = cm.Digest()
			moved, err := Relocate(tc.d, bsA, tc.dst)
			if err != nil {
				t.Fatal(err)
			}
			mustLoad(t, cm, moved, "a:moving")
			cm.Handover("a:moving", "a")
			got[1] = cm.Digest()
			cm.Unload("b")
			bsC := mustGenerate(t, tc.d, tc.late, 11)
			mustLoad(t, cm, bsC, "c")
			cm.CorruptFrame(bsC.Frames[3].Addr, 0x5a)
			got[2] = cm.Digest()
			if got != tc.want {
				t.Errorf("digests %#08x, want %#08x", got, tc.want)
			}
			if cm.LoadedFrames() != tc.loaded {
				t.Errorf("loaded %d frames, want %d", cm.LoadedFrames(), tc.loaded)
			}
		})
	}
}

func mustGenerate(t testing.TB, d *device.Device, area grid.Rect, seed int64) *Bitstream {
	t.Helper()
	bs, err := Generate(d, area, seed)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func mustLoad(t testing.TB, cm *ConfigMemory, bs *Bitstream, task string) {
	t.Helper()
	if err := cm.Load(bs, task); err != nil {
		t.Fatal(err)
	}
}
