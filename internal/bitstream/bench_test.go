package bitstream

import (
	"fmt"
	"testing"

	"repro/internal/grid"
)

// BenchmarkConfigMemory times the configuration-memory operations a
// session performs, on an FX70T whose top half (rows 0-3) is configured
// by one task per column: loading and unloading a 6x3 module, and a
// make-before-break relocation of it between two compatible areas of
// the free bottom half (the target copy's load plus the handover).
func BenchmarkConfigMemory(b *testing.B) {
	d := fx()
	cm := NewConfigMemory(d)
	for c := 0; c < d.Width(); c++ {
		area := grid.Rect{X: c, Y: 0, W: 1, H: 4}
		if !d.CanPlace(area) {
			area.H = 2
		}
		mustLoad(b, cm, mustGenerate(b, d, area, int64(c)), fmt.Sprintf("fill-%d", c))
	}
	src, dst := grid.Rect{X: 4, Y: 4, W: 6, H: 3}, grid.Rect{X: 24, Y: 4, W: 6, H: 3}
	bs := mustGenerate(b, d, src, 1)
	moved, err := Relocate(d, bs, dst)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%d of %d frames loaded; module of %d frames", cm.LoadedFrames(), d.TotalFrames(), bs.FrameCount())

	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mustLoad(b, cm, bs, "m")
			b.StopTimer()
			cm.Unload("m")
			b.StartTimer()
		}
	})
	b.Run("unload", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mustLoad(b, cm, bs, "m")
			b.StartTimer()
			cm.Unload("m")
		}
	})
	b.Run("relocate", func(b *testing.B) {
		mustLoad(b, cm, bs, "m")
		at := []*Bitstream{bs, moved}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustLoad(b, cm, at[(i+1)%2], "m:moving")
			cm.Handover("m:moving", "m")
		}
		b.StopTimer()
		cm.Unload("m")
	})
}
