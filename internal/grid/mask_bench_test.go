package grid

import (
	"math/rand"
	"testing"
)

// BenchmarkMaskOverlapsRect times the placement engines' hot overlap
// test on the tile grids of the modeled devices: the Virtex-5 FX70T
// (41x8, one word per row) and the Kintex-7 160T (70x12, where a row
// spans two words). The mask holds a few placed rectangles and the
// probes are region-sized rects anywhere on the grid.
func BenchmarkMaskOverlapsRect(b *testing.B) {
	for _, g := range []struct {
		name string
		w, h int
	}{{"FX70T-41x8", 41, 8}, {"K160T-70x12", 70, 12}} {
		b.Run(g.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			randRect := func() Rect {
				w, h := 1+rng.Intn(12), 1+rng.Intn(4)
				return Rect{X: rng.Intn(g.w - w + 1), Y: rng.Intn(g.h - h + 1), W: w, H: h}
			}
			m := NewMask(g.w, g.h)
			for i := 0; i < 4; i++ {
				m.SetRect(randRect())
			}
			probes := make([]Rect, 256)
			for i := range probes {
				probes[i] = randRect()
			}
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.OverlapsRect(probes[i&255]) {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}
