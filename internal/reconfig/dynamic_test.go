package reconfig

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/grid"
)

func wantKind(t *testing.T, err error, kind ErrKind) {
	t.Helper()
	if err == nil {
		t.Fatalf("want %v error, got nil", kind)
	}
	got, ok := KindOf(err)
	if !ok {
		t.Fatalf("want %v error, got unclassified %v", kind, err)
	}
	if got != kind {
		t.Fatalf("want %v error, got %v: %v", kind, got, err)
	}
}

func TestDynamicLifecycle(t *testing.T) {
	d := device.VirtexFX70T()
	m := NewDynamic(d, DefaultFrameTime)

	// Register a region on a CLB-only band, give it a compatible slot.
	home := grid.Rect{X: 4, Y: 0, W: 3, H: 2}
	ri, err := m.AddRegion("mod-a", home)
	if err != nil {
		t.Fatal(err)
	}
	alt := grid.Rect{X: 4, Y: 4, W: 3, H: 2}
	si, err := m.AddSlot(ri, alt)
	if err != nil {
		t.Fatal(err)
	}
	if si != 1 {
		t.Fatalf("slot index = %d, want 1", si)
	}
	// Re-adding the same area is idempotent.
	if again, err := m.AddSlot(ri, alt); err != nil || again != si {
		t.Fatalf("duplicate AddSlot = (%d, %v), want (%d, nil)", again, err, si)
	}

	if err := m.Configure(ri, 7, 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.CurrentArea(ri); !ok || got != home {
		t.Fatalf("CurrentArea = (%v, %v), want (%v, true)", got, ok, home)
	}
	if err := m.Relocate(ri, si); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.CurrentArea(ri); got != alt {
		t.Fatalf("after relocate CurrentArea = %v, want %v", got, alt)
	}
	if frames, corrupted := m.VerifyRegion(ri); frames == 0 || corrupted != 0 {
		t.Fatalf("verify = (%d, %d), want (>0, 0)", frames, corrupted)
	}

	if err := m.RemoveRegion(ri); err != nil {
		t.Fatal(err)
	}
	if !m.Removed(ri) {
		t.Fatal("region not marked removed")
	}
	wantKind(t, m.Configure(ri, 7, 0), KindUnknownRegion)
	if _, ok := m.CurrentArea(ri); ok {
		t.Fatal("removed region still reports a live area")
	}

	// The freed area can host a new region immediately.
	if _, err := m.AddRegion("mod-b", alt); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicAddErrors(t *testing.T) {
	d := device.VirtexFX70T()
	m := NewDynamic(d, DefaultFrameTime)

	// Crossing the PowerPC block is illegal.
	_, err := m.AddRegion("bad", grid.Rect{X: 13, Y: 2, W: 4, H: 2})
	wantKind(t, err, KindIllegalArea)

	ri, err := m.AddRegion("a", grid.Rect{X: 4, Y: 0, W: 3, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(ri, 1, 0); err != nil {
		t.Fatal(err)
	}
	// A second region overlapping a live one is rejected...
	_, err = m.AddRegion("b", grid.Rect{X: 5, Y: 1, W: 3, H: 2})
	wantKind(t, err, KindOccupied)
	// ...but an overlapping region is fine while the first is unloaded.
	m.Unload(ri)
	if _, err := m.AddRegion("b", grid.Rect{X: 5, Y: 1, W: 3, H: 2}); err != nil {
		t.Fatal(err)
	}

	// Column 3 is BRAM on FX70T, so a slot shifted one column is not
	// layout-compatible with a CLB-only home.
	_, err = m.AddSlot(ri, grid.Rect{X: 1, Y: 0, W: 3, H: 2})
	wantKind(t, err, KindIncompatible)

	wantKind(t, m.Relocate(ri, 0), KindNotConfigured)
	_, err = m.AddSlot(99, grid.Rect{X: 4, Y: 4, W: 3, H: 2})
	wantKind(t, err, KindUnknownRegion)
}

func TestRelocateOccupiedClassification(t *testing.T) {
	d := device.VirtexFX70T()
	m := NewDynamic(d, DefaultFrameTime)

	ri, err := m.AddRegion("a", grid.Rect{X: 4, Y: 0, W: 3, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	target := grid.Rect{X: 4, Y: 4, W: 3, H: 2}
	si, err := m.AddSlot(ri, target)
	if err != nil {
		t.Fatal(err)
	}
	// A second region sits on the target.
	rj, err := m.AddRegion("b", target)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(ri, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(rj, 2, 0); err != nil {
		t.Fatal(err)
	}
	wantKind(t, m.Relocate(ri, si), KindOccupied)

	// A target overlapping the mover's own live area is also occupied:
	// make-before-break cannot write over itself.
	overlap := grid.Rect{X: 4, Y: 1, W: 3, H: 2}
	so, err := m.AddSlot(ri, overlap)
	if err != nil {
		t.Fatal(err)
	}
	wantKind(t, m.Relocate(ri, so), KindOccupied)

	// Configure into an occupied slot is classified the same way.
	m.Unload(ri)
	wantKind(t, m.Configure(ri, 1, si), KindOccupied)

	var oe *OpError
	err = m.Configure(ri, 1, si)
	if !errors.As(err, &oe) || oe.Op != "configure" || oe.Region != ri || oe.Slot != si {
		t.Fatalf("OpError fields = %+v", oe)
	}
}

func TestExecuteSchedule(t *testing.T) {
	d := device.VirtexFX70T()
	m := NewDynamic(d, DefaultFrameTime)

	// Two regions on one CLB band; compact both leftward, in left-to-right
	// order so each target is free when its move runs.
	ra, err := m.AddRegion("a", grid.Rect{X: 9, Y: 0, W: 3, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := m.AddRegion("b", grid.Rect{X: 17, Y: 0, W: 3, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := m.AddSlot(ra, grid.Rect{X: 4, Y: 0, W: 3, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := m.AddSlot(rb, grid.Rect{X: 9, Y: 0, W: 3, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(ra, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(rb, 2, 0); err != nil {
		t.Fatal(err)
	}

	rep, err := m.ExecuteSchedule([]Move{{ra, sa}, {rb, sb}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 2 {
		t.Fatalf("executed = %d, want 2", rep.Executed)
	}
	if rep.CorruptedFrames != 0 || rep.FramesVerified != rep.FramesWritten {
		t.Fatalf("report = %+v, want verified == written and 0 corrupted", rep)
	}
	if rep.BusyTime <= 0 {
		t.Fatalf("busy time = %v", rep.BusyTime)
	}

	// Reversed order breaks: b's target is still under a. The report
	// covers the moves that ran before the failure.
	m2 := NewDynamic(d, DefaultFrameTime)
	ra2, _ := m2.AddRegion("a", grid.Rect{X: 9, Y: 0, W: 3, H: 2})
	rb2, _ := m2.AddRegion("b", grid.Rect{X: 17, Y: 0, W: 3, H: 2})
	sa2, _ := m2.AddSlot(ra2, grid.Rect{X: 4, Y: 0, W: 3, H: 2})
	sb2, _ := m2.AddSlot(rb2, grid.Rect{X: 9, Y: 0, W: 3, H: 2})
	if err := m2.Configure(ra2, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m2.Configure(rb2, 2, 0); err != nil {
		t.Fatal(err)
	}
	rep2, err := m2.ExecuteSchedule([]Move{{rb2, sb2}, {ra2, sa2}})
	wantKind(t, err, KindOccupied)
	if rep2.Executed != 0 {
		t.Fatalf("executed = %d, want 0", rep2.Executed)
	}
}

// TestVerifyRegionCatchesCorruption: readback after a relocation reads
// the moved copy, so an upset in it shows, and the vacated source area
// holds no frames.
func TestVerifyRegionCatchesCorruption(t *testing.T) {
	d := device.VirtexFX70T()
	m := NewDynamic(d, DefaultFrameTime)
	home, alt := grid.Rect{X: 4, Y: 0, W: 3, H: 2}, grid.Rect{X: 4, Y: 4, W: 3, H: 2}
	ri, err := m.AddRegion("mod-a", home)
	if err != nil {
		t.Fatal(err)
	}
	si, err := m.AddSlot(ri, alt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(ri, 7, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Relocate(ri, si); err != nil {
		t.Fatal(err)
	}
	want := d.FramesInRect(alt)
	if got := m.cm.LoadedFrames(); got != want {
		t.Fatalf("loaded %d frames after relocate, want the moved copy's %d", got, want)
	}
	if _, ok := m.cm.Frame(bitstream.FrameAddress{Column: home.X, Row: home.Y}); ok {
		t.Fatal("source area still configured after relocate")
	}
	// Upset every frame of the moved copy in turn; readback must see
	// each one, and flipping it back must verify clean again.
	alt.Tiles(func(c, r int) {
		for minor := 0; minor < d.TileAt(c, r).Frames; minor++ {
			addr := bitstream.FrameAddress{Column: c, Row: r, Minor: minor}
			if !m.cm.CorruptFrame(addr, 0x01) {
				t.Fatalf("moved copy lacks frame %v", addr)
			}
			if frames, corrupted := m.VerifyRegion(ri); frames != want || corrupted != 1 {
				t.Fatalf("upset at %v: verify = (%d, %d), want (%d, 1)", addr, frames, corrupted, want)
			}
			m.cm.CorruptFrame(addr, 0x01)
		}
	})
	if frames, corrupted := m.VerifyRegion(ri); frames != want || corrupted != 0 {
		t.Fatalf("verify = (%d, %d), want (%d, 0)", frames, corrupted, want)
	}
}

// TestOccupancyScansLiveRegions: occupancy answers from the live set,
// which shrinks on unload, and still names the lowest overlapping
// region index whatever order regions were loaded in.
func TestOccupancyScansLiveRegions(t *testing.T) {
	d := device.VirtexFX70T()
	m := NewDynamic(d, DefaultFrameTime)
	for i := 0; i < 200; i++ {
		ri, err := m.AddRegion("churn", grid.Rect{X: 4, Y: 0, W: 3, H: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Configure(ri, int64(i), 0); err != nil {
			t.Fatal(err)
		}
		if err := m.RemoveRegion(ri); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.live) != 0 || m.cm.LoadedFrames() != 0 {
		t.Fatalf("after churn: %d live regions, %d frames loaded", len(m.live), m.cm.LoadedFrames())
	}
	lo, err := m.AddRegion("lo", grid.Rect{X: 4, Y: 0, W: 3, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := m.AddRegion("hi", grid.Rect{X: 9, Y: 0, W: 3, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Load hi first, so the live list holds hi before lo.
	for _, ri := range []int{hi, lo} {
		if err := m.Configure(ri, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, err = m.AddRegion("both", grid.Rect{X: 5, Y: 0, W: 6, H: 1})
	wantKind(t, err, KindOccupied)
	var oe *OpError
	if !errors.As(err, &oe) || !strings.Contains(oe.Detail, fmt.Sprintf("live region %d (lo)", lo)) {
		t.Fatalf("overlap reported as %v, want region %d (lo)", err, lo)
	}
	if live := m.LiveAreas(); len(live) != 2 {
		t.Fatalf("LiveAreas = %v, want 2 regions", live)
	}
}
