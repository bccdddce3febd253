package core

import (
	"sort"

	"repro/internal/device"
	"repro/internal/grid"
)

// Candidate is one legal placement rectangle for a region, precomputed
// with its waste.
type Candidate struct {
	Rect grid.Rect
	// Waste is the configuration frames covered beyond the region's
	// requirements.
	Waste int
}

// EnumerateCandidates lists the width-minimal legal placements of a region
// with requirements req on device d: for every top-left corner (x, y) and
// height h, the narrowest rectangle that covers the required resources and
// does not cross a forbidden area.
//
// Restricting the search to width-minimal rectangles is lossless for the
// paper's lexicographic objective (relocation misses, then wasted frames,
// then wire length): every tile type has a positive frame count, so any
// wider rectangle strictly increases waste, and shrinking a region can
// only enlarge the placement freedom of its free-compatible areas (a
// sub-rectangle of a compatible pair remains compatible).
//
// Candidates are returned sorted by increasing waste, ties broken by
// (y, x, h) for determinism.
func EnumerateCandidates(d *device.Device, req device.Requirements) []Candidate {
	W, H := d.Width(), d.Height()
	classes := classesOf(d)
	need := make([]int, len(classes))
	for i, cl := range classes {
		need[i] = req[cl]
	}
	classIdx := make(map[device.Class]int, len(classes))
	for i, cl := range classes {
		classIdx[cl] = i
	}
	// Per tile type its class index, and per class its per-tile frames
	// (the last type of a class wins, as in device.WastedFrames), so a
	// window's waste follows from its class counts.
	typeClass := make([]int, d.NumTypes())
	frames := make([]int, len(classes))
	for id, t := range d.Types() {
		typeClass[id] = classIdx[t.Class]
		frames[classIdx[t.Class]] = t.Frames
	}

	var out []Candidate
	colCount := make([][]int, W) // per column: class tile counts for the current (y, h)
	for c := range colCount {
		colCount[c] = make([]int, len(classes))
	}
	have := make([]int, len(classes))

	for y := 0; y < H; y++ {
		// Reset incremental column counts for this starting row.
		for c := 0; c < W; c++ {
			for k := range colCount[c] {
				colCount[c][k] = 0
			}
		}
		for h := 1; y+h <= H; h++ {
			row := y + h - 1
			for c := 0; c < W; c++ {
				colCount[c][typeClass[d.TypeAt(c, row)]]++
			}
			// Two-pointer sweep: for each x, the minimal right edge is
			// monotone non-decreasing.
			for k := range have {
				have[k] = 0
			}
			right := 0 // exclusive
			for x := 0; x < W; x++ {
				if right < x {
					right = x
					for k := range have {
						have[k] = 0
					}
				}
				for !satisfied(have, need) && right < W {
					for k, v := range colCount[right] {
						have[k] += v
					}
					right++
				}
				if !satisfied(have, need) {
					break // no wider window from this x can help
				}
				r := grid.Rect{X: x, Y: y, W: right - x, H: h}
				if d.CanPlace(r) {
					waste := 0
					for k, n := range have {
						if extra := n - need[k]; n > 0 && extra > 0 {
							waste += extra * frames[k]
						}
					}
					out = append(out, Candidate{Rect: r, Waste: waste})
				}
				// Slide the left edge out before the next x.
				for k, v := range colCount[x] {
					have[k] -= v
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Waste != b.Waste {
			return a.Waste < b.Waste
		}
		if a.Rect.Y != b.Rect.Y {
			return a.Rect.Y < b.Rect.Y
		}
		if a.Rect.X != b.Rect.X {
			return a.Rect.X < b.Rect.X
		}
		return a.Rect.H < b.Rect.H
	})
	return out
}

func satisfied(have, need []int) bool {
	for k, n := range need {
		if have[k] < n {
			return false
		}
	}
	return true
}

// classesOf returns the device's resource classes in deterministic order.
func classesOf(d *device.Device) []device.Class {
	seen := map[device.Class]bool{}
	var out []device.Class
	for _, t := range d.Types() {
		if !seen[t.Class] {
			seen[t.Class] = true
			out = append(out, t.Class)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MinWaste returns the smallest waste over all candidates, or -1 when the
// region cannot be placed at all.
func MinWaste(cands []Candidate) int {
	if len(cands) == 0 {
		return -1
	}
	return cands[0].Waste // sorted ascending
}

// EnumerateAllCandidates lists EVERY legal placement of the requirements,
// not only the width-minimal ones, sorted like EnumerateCandidates.
//
// It is needed for regions that must share a tile-type signature with
// other regions (multi-region free-compatible areas, the paper's general
// s_{c,n}): there the width-minimal restriction loses solutions, because
// widening a region may be the only way to align its signature with a
// partner's. For ordinary regions prefer EnumerateCandidates — same
// optima, far fewer candidates.
func EnumerateAllCandidates(d *device.Device, req device.Requirements) []Candidate {
	var out []Candidate
	for x := 0; x < d.Width(); x++ {
		for y := 0; y < d.Height(); y++ {
			for h := 1; y+h <= d.Height(); h++ {
				for w := 1; x+w <= d.Width(); w++ {
					r := grid.Rect{X: x, Y: y, W: w, H: h}
					if !d.CanPlace(r) {
						break // wider rects stay blocked
					}
					if !d.Satisfies(r, req) {
						continue
					}
					out = append(out, Candidate{Rect: r, Waste: d.WastedFrames(r, req)})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Waste != b.Waste {
			return a.Waste < b.Waste
		}
		if a.Rect.Y != b.Rect.Y {
			return a.Rect.Y < b.Rect.Y
		}
		if a.Rect.X != b.Rect.X {
			return a.Rect.X < b.Rect.X
		}
		if a.Rect.H != b.Rect.H {
			return a.Rect.H < b.Rect.H
		}
		return a.Rect.W < b.Rect.W
	})
	return out
}
