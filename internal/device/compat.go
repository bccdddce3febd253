package device

import (
	"sync"

	"repro/internal/grid"
)

// Compatible reports whether two areas of the device are compatible in the
// sense of Section II of the paper: same shape, same size, and the same
// relative positioning of tiles of the same type. A bitstream configured
// for area a can (in the model) be relocated to area b iff they are
// compatible, because every frame lands on a tile of the identical type.
//
// Areas that extend outside the device are never compatible.
func (d *Device) Compatible(a, b grid.Rect) bool {
	if !a.SameShape(b) {
		return false
	}
	bounds := d.Bounds()
	if !bounds.ContainsRect(a) || !bounds.ContainsRect(b) {
		return false
	}
	for dc := 0; dc < a.W; dc++ {
		for dr := 0; dr < a.H; dr++ {
			if d.TypeAt(a.X+dc, a.Y+dr) != d.TypeAt(b.X+dc, b.Y+dr) {
				return false
			}
		}
	}
	return true
}

// CompatiblePlacements enumerates every legal placement compatible with
// src: same shape, pairwise-identical tile types, inside the device, and
// clear of forbidden areas. src itself is included when legal. Results are
// ordered by (x, y); an src that is empty or leaves the device has none.
//
// Compatibility is a fixed property of the device, so the answer is
// memoized per compatibility class: the first query of a class enumerates
// it once and every member rectangle then answers from the same list. The
// returned slice is shared between callers and MUST be treated as
// read-only.
func (d *Device) CompatiblePlacements(src grid.Rect) []grid.Rect {
	if src.Empty() || !d.Bounds().ContainsRect(src) {
		return nil
	}
	return d.places.get(d, src)
}

// placementIndex memoizes CompatiblePlacements. Compatibility is an
// equivalence relation on in-bounds rectangles (same shape, same tile type
// at every offset), so one enumeration answers every member of a class:
// the table maps src and each member to the list it enumerated. It grows
// only with the classes actually queried and holds at most one entry per
// in-bounds rectangle (~31k on FX70T).
type placementIndex struct {
	mu      sync.Mutex
	classes map[grid.Rect][]grid.Rect
}

func (ix *placementIndex) get(d *Device, src grid.Rect) []grid.Rect {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if list, ok := ix.classes[src]; ok {
		return list
	}
	if ix.classes == nil {
		ix.classes = make(map[grid.Rect][]grid.Rect)
	}
	list := d.enumerateCompatible(src)
	ix.classes[src] = list
	for _, m := range list {
		ix.classes[m] = list
	}
	return list
}

// enumerateCompatible lists the legal placements compatible with the
// in-bounds rectangle src, ordered by (x, y).
func (d *Device) enumerateCompatible(src grid.Rect) []grid.Rect {
	var out []grid.Rect
	for x := 0; x+src.W <= d.w; x++ {
		for y := 0; y+src.H <= d.h; y++ {
			cand := grid.Rect{X: x, Y: y, W: src.W, H: src.H}
			if d.Compatible(src, cand) && !d.OverlapsForbidden(cand) {
				out = append(out, cand)
			}
		}
	}
	return out
}
