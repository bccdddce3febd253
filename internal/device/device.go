package device

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/grid"
)

// Device is a tile-level FPGA model: a W x H grid of typed tiles plus a set
// of forbidden areas that reconfigurable regions must not cross (hard
// processors, configuration columns, ...).
//
// Rows are numbered 0..H-1 top to bottom, columns 0..W-1 left to right.
// In the paper rows correspond to clock regions: a tile is one column wide
// and one clock region tall.
//
// A Device is immutable once constructed: all fields are unexported, no
// method mutates them, and accessors that expose internal slices document
// them as read-only. Callers must not modify those slices — parts of the
// system (notably core's candidate cache and the compatible-placement
// index) key derived data on Device pointer identity and depend on this
// immutability.
type Device struct {
	name      string
	w, h      int
	types     []TileType
	cells     []TypeID // row-major: cells[r*w+c]
	forbidden []grid.Rect

	// Resource classes in sorted order, each tile type's index into
	// them, and each class's per-tile frames (the last type of the class
	// wins, as in FramesForRequirements' table).
	classes     []Class
	typeClass   []int
	classFrames []int

	// places memoizes CompatiblePlacements. It is a pointer so that
	// copying a Device value (UnmarshalJSON does) copies no lock.
	places *placementIndex
}

// Dimension caps: real devices are a few hundred tiles on a side, so
// these are generous while keeping w*h far from integer overflow and
// keeping a malformed wire payload from forcing a huge allocation.
const (
	// maxDim bounds device width and height.
	maxDim = 1 << 16
	// maxTiles bounds the total cell count.
	maxTiles = 1 << 26
)

// checkDims validates device dimensions before any w*h arithmetic or
// allocation (both New and NewColumnar route through it).
func checkDims(w, h int) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("device: non-positive dimensions %dx%d", w, h)
	}
	if w > maxDim || h > maxDim {
		return fmt.Errorf("device: dimensions %dx%d exceed the %d-tile side cap", w, h, maxDim)
	}
	// Division, not w*h: on 32-bit platforms two maxDim sides overflow the
	// product to 0 and would slip past the cap (w is positive here).
	if h > maxTiles/w {
		return fmt.Errorf("device: %dx%d tiles exceeds the %d-tile cap", w, h, maxTiles)
	}
	return nil
}

// New builds a device from an explicit cell grid. cells must have w*h
// entries in row-major order, each a valid index into types. Forbidden
// areas must lie inside the grid.
func New(name string, w, h int, types []TileType, cells []TypeID, forbidden []grid.Rect) (*Device, error) {
	if err := checkDims(w, h); err != nil {
		return nil, err
	}
	if len(cells) != w*h {
		return nil, fmt.Errorf("device: got %d cells, want %d", len(cells), w*h)
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("device: no tile types")
	}
	seen := map[string]bool{}
	for _, t := range types {
		if t.Frames <= 0 {
			return nil, fmt.Errorf("device: tile type %q has non-positive frame count %d", t.Name, t.Frames)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("device: duplicate tile type name %q", t.Name)
		}
		seen[t.Name] = true
	}
	for i, id := range cells {
		if int(id) < 0 || int(id) >= len(types) {
			return nil, fmt.Errorf("device: cell %d has invalid type id %d", i, id)
		}
	}
	bounds := grid.Rect{X: 0, Y: 0, W: w, H: h}
	for _, f := range forbidden {
		if f.Empty() {
			return nil, fmt.Errorf("device: empty forbidden area %v", f)
		}
		if !bounds.ContainsRect(f) {
			return nil, fmt.Errorf("device: forbidden area %v outside %dx%d grid", f, w, h)
		}
	}
	d := &Device{
		name:      name,
		w:         w,
		h:         h,
		types:     append([]TileType(nil), types...),
		cells:     append([]TypeID(nil), cells...),
		forbidden: append([]grid.Rect(nil), forbidden...),
		classes:   make([]Class, 0, len(types)),
		places:    &placementIndex{},
	}
	for _, t := range types {
		if !slices.Contains(d.classes, t.Class) {
			d.classes = append(d.classes, t.Class)
		}
	}
	slices.Sort(d.classes)
	ints := make([]int, len(types)+len(d.classes))
	d.typeClass, d.classFrames = ints[:len(types):len(types)], ints[len(types):]
	for id, t := range types {
		k := slices.Index(d.classes, t.Class)
		d.typeClass[id] = k
		d.classFrames[k] = t.Frames
	}
	return d, nil
}

// NewColumnar builds a device whose tile type is uniform within each
// column, the layout targeted by the paper's simplified model (Section
// III.A). colTypes gives the tile type of each column, left to right.
func NewColumnar(name string, colTypes []TypeID, h int, types []TileType, forbidden []grid.Rect) (*Device, error) {
	w := len(colTypes)
	if err := checkDims(w, h); err != nil {
		return nil, err
	}
	cells := make([]TypeID, w*h)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			cells[r*w+c] = colTypes[c]
		}
	}
	return New(name, w, h, types, cells, forbidden)
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Width returns the number of tile columns.
func (d *Device) Width() int { return d.w }

// Height returns the number of tile rows.
func (d *Device) Height() int { return d.h }

// Bounds returns the full device rectangle.
func (d *Device) Bounds() grid.Rect { return grid.Rect{X: 0, Y: 0, W: d.w, H: d.h} }

// Types returns the device's tile types. The returned slice must not be
// modified.
func (d *Device) Types() []TileType { return d.types }

// NumTypes returns the number of distinct tile types.
func (d *Device) NumTypes() int { return len(d.types) }

// Type returns the tile type with the given id.
func (d *Device) Type(id TypeID) TileType { return d.types[id] }

// TypeAt returns the type id of the tile at column c, row r.
func (d *Device) TypeAt(c, r int) TypeID { return d.cells[r*d.w+c] }

// TileAt returns the full tile type at column c, row r.
func (d *Device) TileAt(c, r int) TileType { return d.types[d.cells[r*d.w+c]] }

// Forbidden returns the device's forbidden areas. The returned slice must
// not be modified.
func (d *Device) Forbidden() []grid.Rect { return d.forbidden }

// InForbidden reports whether tile (c, r) belongs to a forbidden area.
func (d *Device) InForbidden(c, r int) bool {
	for _, f := range d.forbidden {
		if f.Contains(c, r) {
			return true
		}
	}
	return false
}

// OverlapsForbidden reports whether rect overlaps any forbidden area.
func (d *Device) OverlapsForbidden(rect grid.Rect) bool {
	return grid.AnyOverlap(rect, d.forbidden)
}

// CanPlace reports whether rect is a legal area for a reconfigurable region
// or free-compatible area: inside the device and clear of forbidden areas.
func (d *Device) CanPlace(rect grid.Rect) bool {
	return !rect.Empty() && d.Bounds().ContainsRect(rect) && !d.OverlapsForbidden(rect)
}

// CountTiles tallies the tiles covered by rect per tile type. Tiles outside
// the device are not counted.
func (d *Device) CountTiles(rect grid.Rect) Counts {
	counts := make(Counts, len(d.types))
	clipped, ok := rect.Intersect(d.Bounds())
	if !ok {
		return counts
	}
	clipped.Tiles(func(c, r int) {
		counts[d.TypeAt(c, r)]++
	})
	return counts
}

// CountClasses tallies the tiles covered by rect per resource class.
func (d *Device) CountClasses(rect grid.Rect) Requirements {
	var buf [8]int
	out := Requirements{}
	for k, n := range d.tallyClasses(rect, buf[:0]) {
		if n > 0 {
			out[d.classes[k]] = n
		}
	}
	return out
}

// tallyClasses counts the tiles covered by rect per class index, reusing
// buf's storage when it is large enough. Tiles outside the device are not
// counted.
func (d *Device) tallyClasses(rect grid.Rect, buf []int) []int {
	var have []int
	if cap(buf) >= len(d.classes) {
		have = buf[:len(d.classes)]
		clear(have)
	} else {
		have = make([]int, len(d.classes))
	}
	clipped, ok := rect.Intersect(d.Bounds())
	if !ok {
		return have
	}
	for r := clipped.Y; r < clipped.Y+clipped.H; r++ {
		for _, id := range d.cells[r*d.w+clipped.X : r*d.w+clipped.X+clipped.W] {
			have[d.typeClass[id]]++
		}
	}
	return have
}

// FramesInRect returns the number of configuration frames covered by rect.
// This is the "size of the configuration data" cost of allocating rect.
func (d *Device) FramesInRect(rect grid.Rect) int {
	frames := 0
	clipped, ok := rect.Intersect(d.Bounds())
	if !ok {
		return 0
	}
	for r := clipped.Y; r < clipped.Y+clipped.H; r++ {
		for _, id := range d.cells[r*d.w+clipped.X : r*d.w+clipped.X+clipped.W] {
			frames += d.types[id].Frames
		}
	}
	return frames
}

// FramesForRequirements returns the minimum number of frames needed to hold
// the given class requirements on this device (Table I, last column): for
// each class, the per-tile frame count of that class times the tile count.
// It returns an error if a class maps to tile types with differing frame
// counts, or to no tile type at all.
func (d *Device) FramesForRequirements(rq Requirements) (int, error) {
	classFrames := map[Class]int{}
	for _, t := range d.types {
		if f, ok := classFrames[t.Class]; ok && f != t.Frames {
			return 0, fmt.Errorf("device: class %s has tile types with different frame counts (%d vs %d)", t.Class, f, t.Frames)
		}
		classFrames[t.Class] = t.Frames
	}
	total := 0
	classes := make([]Class, 0, len(rq))
	for cl := range rq {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, cl := range classes {
		n := rq[cl]
		if n == 0 {
			continue
		}
		f, ok := classFrames[cl]
		if !ok {
			return 0, fmt.Errorf("device: no tile type provides class %s", cl)
		}
		total += n * f
	}
	return total, nil
}

// Satisfies reports whether the tiles covered by rect meet the class
// requirements rq (coverage may exceed the requirements; the excess is
// waste).
func (d *Device) Satisfies(rect grid.Rect, rq Requirements) bool {
	var buf [8]int
	have := d.tallyClasses(rect, buf[:0])
	for cl, need := range rq {
		if need <= 0 {
			continue
		}
		k, ok := slices.BinarySearch(d.classes, cl)
		if !ok || have[k] < need {
			return false
		}
	}
	return true
}

// WastedFrames returns the configuration frames covered by rect in excess
// of the class requirements rq. Excess tiles of a class waste that class's
// per-tile frames; rect must satisfy rq for the result to be meaningful.
func (d *Device) WastedFrames(rect grid.Rect, rq Requirements) int {
	var buf [8]int
	waste := 0
	for k, n := range d.tallyClasses(rect, buf[:0]) {
		if extra := n - rq[d.classes[k]]; n > 0 && extra > 0 {
			waste += extra * d.classFrames[k]
		}
	}
	return waste
}

// TotalFrames returns the configuration frames of the whole device,
// including tiles under forbidden areas.
func (d *Device) TotalFrames() int {
	return d.FramesInRect(d.Bounds())
}

// IsColumnar reports whether every column has a uniform tile type, the
// precondition (after forbidden-tile replacement, which this model encodes
// directly) for the paper's columnar partitioning.
func (d *Device) IsColumnar() bool {
	for c := 0; c < d.w; c++ {
		t := d.TypeAt(c, 0)
		for r := 1; r < d.h; r++ {
			if d.TypeAt(c, r) != t {
				return false
			}
		}
	}
	return true
}

// ColumnType returns the tile type of column c. It panics if the column is
// not uniform; check IsColumnar first for untrusted devices.
func (d *Device) ColumnType(c int) TypeID {
	t := d.TypeAt(c, 0)
	for r := 1; r < d.h; r++ {
		if d.TypeAt(c, r) != t {
			panic(fmt.Sprintf("device: column %d is not uniform", c))
		}
	}
	return t
}

// ClassOf returns the resource class of the given tile type id.
func (d *Device) ClassOf(id TypeID) Class { return d.types[id].Class }

// TypeIDByName looks up a tile type id by name.
func (d *Device) TypeIDByName(name string) (TypeID, bool) {
	for i, t := range d.types {
		if t.Name == name {
			return TypeID(i), true
		}
	}
	return 0, false
}
