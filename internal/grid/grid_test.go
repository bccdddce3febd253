package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(2, 3, 4, 5)
	if r.Area() != 20 {
		t.Fatalf("area = %d", r.Area())
	}
	if r.X2() != 6 || r.Y2() != 8 {
		t.Fatalf("edges = %d, %d", r.X2(), r.Y2())
	}
	if !r.Contains(2, 3) || !r.Contains(5, 7) {
		t.Fatal("corner containment")
	}
	if r.Contains(6, 3) || r.Contains(2, 8) {
		t.Fatal("exclusive edge containment")
	}
	if r.HalfPerimeter() != 9 {
		t.Fatalf("half perimeter = %d", r.HalfPerimeter())
	}
}

func TestNewRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero width")
		}
	}()
	NewRect(0, 0, 0, 3)
}

func TestOverlapSymmetric(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 3, H: 3}
	b := Rect{X: 2, Y: 2, W: 3, H: 3}
	c := Rect{X: 3, Y: 0, W: 2, H: 2}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("a and b must overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Fatal("a and c must not overlap (touching edges)")
	}
}

func TestIntersect(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 5, H: 5}
	b := Rect{X: 3, Y: 2, W: 5, H: 5}
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected intersection")
	}
	want := Rect{X: 3, Y: 2, W: 2, H: 3}
	if got != want {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if _, ok := a.Intersect(Rect{X: 5, Y: 0, W: 1, H: 1}); ok {
		t.Fatal("touching rectangles must not intersect")
	}
}

func TestUnionContainsBoth(t *testing.T) {
	f := func(ax, ay, bx, by int8, w1, h1, w2, h2 uint8) bool {
		a := Rect{X: int(ax), Y: int(ay), W: int(w1%10) + 1, H: int(h1%10) + 1}
		b := Rect{X: int(bx), Y: int(by), W: int(w2%10) + 1, H: int(h2%10) + 1}
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectionProperties(t *testing.T) {
	f := func(ax, ay, bx, by int8, w1, h1, w2, h2 uint8) bool {
		a := Rect{X: int(ax % 20), Y: int(ay % 20), W: int(w1%10) + 1, H: int(h1%10) + 1}
		b := Rect{X: int(bx % 20), Y: int(by % 20), W: int(w2%10) + 1, H: int(h2%10) + 1}
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		if ok1 != ok2 || i1 != i2 {
			return false // intersection must be symmetric
		}
		if ok1 != a.Overlaps(b) {
			return false // Overlaps and Intersect must agree
		}
		if ok1 && (!a.ContainsRect(i1) || !b.ContainsRect(i1)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTranslate(t *testing.T) {
	r := Rect{X: 1, Y: 2, W: 3, H: 4}
	got := r.Translate(-1, 5)
	want := Rect{X: 0, Y: 7, W: 3, H: 4}
	if got != want {
		t.Fatalf("translate = %v, want %v", got, want)
	}
}

func TestCenters(t *testing.T) {
	r := Rect{X: 0, Y: 0, W: 3, H: 4}
	if r.CenterX2() != 3 || r.CenterY2() != 4 {
		t.Fatalf("centers = %d, %d", r.CenterX2(), r.CenterY2())
	}
}

func TestDisjoint(t *testing.T) {
	rs := []Rect{{0, 0, 2, 2}, {2, 0, 2, 2}, {0, 2, 4, 1}}
	if !Disjoint(rs) {
		t.Fatal("rects should be disjoint")
	}
	rs = append(rs, Rect{1, 1, 2, 2})
	if Disjoint(rs) {
		t.Fatal("overlap not detected")
	}
}

func TestIntervalOverlap(t *testing.T) {
	a := Interval{Lo: 2, Hi: 7}
	if a.Len() != 5 {
		t.Fatalf("len = %d", a.Len())
	}
	if got := a.Overlap(Interval{Lo: 5, Hi: 10}); got != 2 {
		t.Fatalf("overlap = %d", got)
	}
	if got := a.Overlap(Interval{Lo: 7, Hi: 9}); got != 0 {
		t.Fatalf("touching overlap = %d", got)
	}
}

func TestTilesVisitsAll(t *testing.T) {
	r := Rect{X: 1, Y: 1, W: 3, H: 2}
	seen := map[[2]int]bool{}
	r.Tiles(func(c, row int) { seen[[2]int{c, row}] = true })
	if len(seen) != 6 {
		t.Fatalf("visited %d tiles, want 6", len(seen))
	}
	for pos := range seen {
		if !r.Contains(pos[0], pos[1]) {
			t.Fatalf("visited tile %v outside rect", pos)
		}
	}
}

// maskTestWidths are the grid widths the mask tests draw from: random
// widths up to 70 plus the widths around the 64-bit word boundaries,
// where a row's last word is full, nearly empty or nearly full.
func maskTestWidths(rng *rand.Rand) int {
	boundary := []int{63, 64, 65, 127, 128, 129}
	if rng.Intn(2) == 0 {
		return boundary[rng.Intn(len(boundary))]
	}
	return 1 + rng.Intn(70)
}

// randomRectAround draws a rect that may lie inside the w x h grid,
// straddle any of its edges (negative X/Y included) or miss it entirely.
func randomRectAround(rng *rand.Rand, w, h int) Rect {
	return Rect{
		X: rng.Intn(w+20) - 10, Y: rng.Intn(h+6) - 3,
		W: 1 + rng.Intn(w+10), H: 1 + rng.Intn(h+3),
	}
}

// TestMaskMatchesRects drives a mask with interleaved SetRect, ClearRect
// and OverlapsRect calls on rects that may reach outside the grid, and
// checks every result and every tile against a plain bool grid.
func TestMaskMatchesRects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		w := maskTestWidths(rng)
		h := 1 + rng.Intn(12)
		m := NewMask(w, h)
		ref := make([][]bool, w)
		for c := range ref {
			ref[c] = make([]bool, h)
		}
		for op := 0; op < 12; op++ {
			r := randomRectAround(rng, w, h)
			switch rng.Intn(3) {
			case 0:
				want := false
				for c := max(r.X, 0); c < min(r.X2(), w); c++ {
					for row := max(r.Y, 0); row < min(r.Y2(), h); row++ {
						want = want || ref[c][row]
					}
				}
				if got := m.OverlapsRect(r); got != want {
					t.Fatalf("trial %d (%dx%d): OverlapsRect(%v) = %v, want %v", trial, w, h, r, got, want)
				}
			case 1:
				m.SetRect(r)
				r.Tiles(func(c, row int) {
					if c >= 0 && c < w && row >= 0 && row < h {
						ref[c][row] = true
					}
				})
			case 2:
				m.ClearRect(r)
				r.Tiles(func(c, row int) {
					if c >= 0 && c < w && row >= 0 && row < h {
						ref[c][row] = false
					}
				})
			}
		}
		count := 0
		for c := 0; c < w; c++ {
			for row := 0; row < h; row++ {
				if ref[c][row] {
					count++
				}
				if got := m.Get(c, row); got != ref[c][row] {
					t.Fatalf("trial %d (%dx%d): Get(%d,%d) = %v, want %v", trial, w, h, c, row, got, ref[c][row])
				}
			}
		}
		if m.Count() != count {
			t.Fatalf("trial %d (%dx%d): count = %d, want %d", trial, w, h, m.Count(), count)
		}
		if m.Any() != (count > 0) {
			t.Fatalf("trial %d (%dx%d): Any = %v with %d set tiles", trial, w, h, m.Any(), count)
		}
	}
}

func TestMaskSetClearRoundTrip(t *testing.T) {
	m := NewMask(41, 8)
	r := Rect{X: 5, Y: 2, W: 30, H: 4}
	m.SetRect(r)
	if !m.Any() {
		t.Fatal("mask should be non-empty")
	}
	m.ClearRect(r)
	if m.Any() {
		t.Fatal("mask should be empty after clearing the same rect")
	}
}

func TestMaskClone(t *testing.T) {
	m := NewMask(10, 10)
	m.Set(3, 3)
	cp := m.Clone()
	cp.Set(4, 4)
	if m.Get(4, 4) {
		t.Fatal("clone shares storage with original")
	}
	if !cp.Get(3, 3) {
		t.Fatal("clone lost original bits")
	}
}

func TestMaskReset(t *testing.T) {
	m := NewMask(10, 4)
	m.SetRect(Rect{0, 0, 10, 4})
	m.Reset()
	if m.Count() != 0 {
		t.Fatal("reset did not clear")
	}
}
