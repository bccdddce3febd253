package device

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/grid"
)

// irregularDevice is a non-columnar device with forbidden blocks: a
// columnar fabric with a few tiles swapped per row, so some classes span
// several positions and others are single rectangles, plus a second CLB
// tile type that differs from the first in configuration and frames.
func irregularDevice(t testing.TB) *Device {
	t.Helper()
	types := append(V5Types(), TileType{Name: "CLB2", Class: ClassCLB, Frames: 40, Config: 1})
	const w, h = 17, 6
	rng := rand.New(rand.NewSource(5))
	cells := make([]TypeID, w*h)
	for c := 0; c < w; c++ {
		col := V5CLB
		switch c % 6 {
		case 2:
			col = V5BRAM
		case 4:
			col = V5DSP
		}
		for r := 0; r < h; r++ {
			cells[r*w+c] = col
		}
	}
	for i := 0; i < 9; i++ {
		cells[rng.Intn(w*h)] = TypeID(3)
	}
	d, err := New("irregular", w, h, types, cells, []grid.Rect{{X: 7, Y: 1, W: 2, H: 2}, {X: 13, Y: 4, W: 3, H: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.IsColumnar() {
		t.Fatal("irregular device came out columnar")
	}
	return d
}

// placementDevices builds fresh copies of the devices the placement tests
// run over, so each test starts from an empty index.
func placementDevices(t testing.TB) map[string]*Device {
	return map[string]*Device{
		"fx70t":     VirtexFX70T(),
		"k160t":     Kintex7K160T(),
		"irregular": irregularDevice(t),
	}
}

// everyRect lists every in-bounds rectangle of the device, legal or
// overlapping a forbidden area, and for each shape the rectangles one
// tile past each edge, plus empty ones.
func everyRect(d *Device) []grid.Rect {
	W, H := d.Width(), d.Height()
	var out []grid.Rect
	for w := 1; w <= W; w++ {
		for h := 1; h <= H; h++ {
			for x := 0; x+w <= W; x++ {
				for y := 0; y+h <= H; y++ {
					out = append(out, grid.Rect{X: x, Y: y, W: w, H: h})
				}
			}
			out = append(out,
				grid.Rect{X: -1, Y: 0, W: w, H: h},
				grid.Rect{X: 0, Y: -1, W: w, H: h},
				grid.Rect{X: W - w + 1, Y: 0, W: w, H: h},
				grid.Rect{X: 0, Y: H - h + 1, W: w, H: h})
		}
	}
	return append(out,
		grid.Rect{X: 0, Y: 0, W: W + 1, H: H},
		grid.Rect{X: 0, Y: 0, W: 0, H: 1},
		grid.Rect{X: 1, Y: 1, W: 2, H: 0},
		grid.Rect{X: 1, Y: 1, W: -1, H: 2})
}

// patternClasses is an index-free reference for CompatiblePlacements
// that does not call Compatible: it groups every in-bounds rectangle by
// shape and tile-type pattern and maps each to its group's legal members,
// in (x, y) order. Rectangles that are empty or leave the device are
// absent, so their reference is nil.
func patternClasses(d *Device) map[grid.Rect][]grid.Rect {
	out := map[grid.Rect][]grid.Rect{}
	var buf []byte
	for w := 1; w <= d.Width(); w++ {
		for h := 1; h <= d.Height(); h++ {
			groups := map[string][]grid.Rect{}
			keys := map[grid.Rect]string{}
			for x := 0; x+w <= d.Width(); x++ {
				for y := 0; y+h <= d.Height(); y++ {
					r := grid.Rect{X: x, Y: y, W: w, H: h}
					buf = buf[:0]
					for dc := 0; dc < w; dc++ {
						for dr := 0; dr < h; dr++ {
							buf = append(buf, byte(d.TypeAt(x+dc, y+dr)))
						}
					}
					keys[r] = string(buf)
					if !d.OverlapsForbidden(r) {
						groups[keys[r]] = append(groups[keys[r]], r)
					}
				}
			}
			for r, k := range keys {
				out[r] = groups[k]
			}
		}
	}
	return out
}

// TestCompatiblePlacementsMatchesUncached checks the memoized answer for
// every rectangle against the index-free reference. Each class is first
// reached through its last member, so src's answer usually comes from a
// list another rectangle filled.
func TestCompatiblePlacementsMatchesUncached(t *testing.T) {
	for name, d := range placementDevices(t) {
		ref := patternClasses(d)
		for _, src := range everyRect(d) {
			want := ref[src]
			if len(want) > 0 {
				d.CompatiblePlacements(want[len(want)-1]) // checked as src in turn
			}
			if got := d.CompatiblePlacements(src); !slices.Equal(got, want) {
				t.Fatalf("%s: CompatiblePlacements(%v) = %v, want %v", name, src, got, want)
			}
		}
	}
}

// TestCompatiblePlacementsSharedPerClass pins the memory claim: members
// of a class answer with the same backing list.
func TestCompatiblePlacementsSharedPerClass(t *testing.T) {
	d := VirtexFX70T()
	src := grid.Rect{X: 4, Y: 0, W: 6, H: 2}
	list := d.CompatiblePlacements(src)
	if len(list) < 2 {
		t.Fatalf("want a class with several members, got %v", list)
	}
	for _, m := range list {
		if got := d.CompatiblePlacements(m); &got[0] != &list[0] {
			t.Fatalf("member %v answers with its own list", m)
		}
	}
}

// TestCompatiblePlacementsConcurrent queries one fresh device from
// several goroutines; run it under -race.
func TestCompatiblePlacementsConcurrent(t *testing.T) {
	d := irregularDevice(t)
	ref := patternClasses(d)
	rects := everyRect(d)
	const workers = 4
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range rects {
				src := rects[(i*(g+1))%len(rects)]
				if got := d.CompatiblePlacements(src); !slices.Equal(got, ref[src]) {
					errs <- src.String()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for src := range errs {
		t.Errorf("concurrent CompatiblePlacements(%s) differs from the uncached list", src)
	}
}

// The class tallies below are the formulas CountClasses, Satisfies and
// WastedFrames used before they were made map-free; the tests hold the
// new code to them.

func oldCountClasses(d *Device, rect grid.Rect) Requirements {
	out := Requirements{}
	for id, n := range d.CountTiles(rect) {
		if n > 0 {
			out[d.types[id].Class] += n
		}
	}
	return out
}

func oldSatisfies(d *Device, rect grid.Rect, rq Requirements) bool {
	have := oldCountClasses(d, rect)
	for cl, need := range rq {
		if have[cl] < need {
			return false
		}
	}
	return true
}

func oldWastedFrames(d *Device, rect grid.Rect, rq Requirements) int {
	classFrames := map[Class]int{}
	for _, t := range d.types {
		classFrames[t.Class] = t.Frames
	}
	waste := 0
	for cl, n := range oldCountClasses(d, rect) {
		if extra := n - rq[cl]; extra > 0 {
			waste += extra * classFrames[cl]
		}
	}
	return waste
}

func oldFramesInRect(d *Device, rect grid.Rect) int {
	frames := 0
	for id, n := range d.CountTiles(rect) {
		frames += n * d.types[id].Frames
	}
	return frames
}

func TestClassTalliesMatchOldFormulas(t *testing.T) {
	reqs := []Requirements{
		{},
		{ClassCLB: 3},
		{ClassCLB: 4, ClassBRAM: 1},
		{ClassCLB: 2, ClassBRAM: 1, ClassDSP: 1},
		{ClassDSP: 2, ClassIO: 1},
		{ClassCLB: -2, ClassBRAM: 0},
	}
	for name, d := range placementDevices(t) {
		for _, r := range everyRect(d) {
			if r.W > 10 {
				continue // wider rectangles add no new class mix; keep -race fast
			}
			if got, want := d.CountClasses(r), oldCountClasses(d, r); len(got) != len(want) || !subset(got, want) {
				t.Fatalf("%s: CountClasses(%v) = %v, want %v", name, r, got, want)
			}
			if got, want := d.FramesInRect(r), oldFramesInRect(d, r); got != want {
				t.Fatalf("%s: FramesInRect(%v) = %d, want %d", name, r, got, want)
			}
			for _, rq := range reqs {
				if got, want := d.Satisfies(r, rq), oldSatisfies(d, r, rq); got != want {
					t.Fatalf("%s: Satisfies(%v, %v) = %v, want %v", name, r, rq, got, want)
				}
				if got, want := d.WastedFrames(r, rq), oldWastedFrames(d, r, rq); got != want {
					t.Fatalf("%s: WastedFrames(%v, %v) = %d, want %d", name, r, rq, got, want)
				}
			}
		}
	}
}

func subset(a, b Requirements) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestClassTalliesDoNotAllocate(t *testing.T) {
	d := VirtexFX70T()
	r := grid.Rect{X: 2, Y: 1, W: 9, H: 3}
	rq := Requirements{ClassCLB: 10, ClassBRAM: 1}
	if n := testing.AllocsPerRun(100, func() {
		d.WastedFrames(r, rq)
		d.Satisfies(r, rq)
		d.FramesInRect(r)
	}); n != 0 {
		t.Fatalf("WastedFrames/Satisfies/FramesInRect allocate %.0f times per call", n)
	}
}

// internRun makes each run's device names unique, so tests that expect a
// device to become canonical do not meet one an earlier run (-count)
// left in the table.
var internRun atomic.Int64

func internName(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, internRun.Add(1))
}

func TestInternSharesEqualContent(t *testing.T) {
	a := Intern(Kintex7K160T())
	b := Intern(Kintex7K160T())
	if a != b {
		t.Fatal("two equal devices interned to different pointers")
	}
	if Intern(a) != a {
		t.Fatal("interning the canonical device changed it")
	}
	if Intern(nil) != nil {
		t.Fatal("Intern(nil) is not nil")
	}
}

// TestInternDistinguishesEveryField interns variants that differ from a
// base device in one field each; none may share the base's pointer.
func TestInternDistinguishesEveryField(t *testing.T) {
	types := V5Types()
	cells := []TypeID{0, 1, 2, 0, 0, 1, 2, 0}
	forbidden := []grid.Rect{{X: 1, Y: 1, W: 1, H: 1}}
	mk := func(name string, w, h int, types []TileType, cells []TypeID, forbidden []grid.Rect) *Device {
		d, err := New(name, w, h, types, cells, forbidden)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	name := internName("intern-base")
	base := Intern(mk(name, 4, 2, types, cells, forbidden))
	if Intern(mk(name, 4, 2, types, cells, forbidden)) != base {
		t.Fatal("an equal copy did not intern to the base")
	}
	withType := func(i int, f func(*TileType)) []TileType {
		out := V5Types()
		f(&out[i])
		return out
	}
	swapped := slices.Clone(cells)
	swapped[5], swapped[6] = swapped[6], swapped[5]
	variants := map[string]*Device{
		"name":         mk(name+"x", 4, 2, types, cells, forbidden),
		"dims":         mk(name, 2, 4, types, cells, forbidden),
		"type name":    mk(name, 4, 2, withType(0, func(t *TileType) { t.Name = "CLBX" }), cells, forbidden),
		"type class":   mk(name, 4, 2, withType(2, func(t *TileType) { t.Class = ClassIO }), cells, forbidden),
		"type frames":  mk(name, 4, 2, withType(1, func(t *TileType) { t.Frames = 31 }), cells, forbidden),
		"type config":  mk(name, 4, 2, withType(1, func(t *TileType) { t.Config = 2 }), cells, forbidden),
		"extra type":   mk(name, 4, 2, append(V5Types(), TileType{Name: "IO", Class: ClassIO, Frames: 1}), cells, forbidden),
		"cells":        mk(name, 4, 2, types, swapped, forbidden),
		"forbidden":    mk(name, 4, 2, types, cells, []grid.Rect{{X: 2, Y: 1, W: 1, H: 1}}),
		"no forbidden": mk(name, 4, 2, types, cells, nil),
	}
	for field, v := range variants {
		if got := Intern(v); got == base || got != v {
			t.Errorf("a device differing in %s did not intern to itself", field)
		}
	}
}

func TestInternEvictsOldestBeyondCap(t *testing.T) {
	name := internName("intern-evict")
	mk := func(i int) *Device {
		d, err := NewColumnar(name, []TypeID{V5CLB, V5BRAM}, 1+i, V5Types(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	first := Intern(mk(0))
	for i := 1; i < internCap; i++ {
		Intern(mk(i))
	}
	if Intern(mk(0)) != first {
		t.Fatal("the first device was evicted before the table reached its cap")
	}
	for i := internCap; i < 2*internCap; i++ {
		Intern(mk(i))
	}
	if n := len(internTable.order); n > internCap {
		t.Fatalf("intern table holds %d devices, cap %d", n, internCap)
	}
	again := mk(0)
	if Intern(again) != again {
		t.Fatal("the oldest device was not evicted beyond the cap")
	}
	last := mk(2*internCap - 1)
	if Intern(last) == last {
		t.Fatal("the newest device was evicted")
	}
}
