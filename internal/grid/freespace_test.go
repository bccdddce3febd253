package grid

import (
	"math/rand"
	"testing"
)

// bruteMaximalClearRects enumerates maximal clear rectangles the obvious
// way: every clear rectangle that is not strictly contained in another
// clear rectangle. Exponential in spirit but fine at test-grid scale; it
// is the correctness oracle for the sweep.
func bruteMaximalClearRects(m *Mask) []Rect {
	var clear []Rect
	for x := 0; x < m.W(); x++ {
		for y := 0; y < m.H(); y++ {
			for w := 1; x+w <= m.W(); w++ {
				for h := 1; y+h <= m.H(); h++ {
					r := Rect{X: x, Y: y, W: w, H: h}
					if !m.OverlapsRect(r) {
						clear = append(clear, r)
					}
				}
			}
		}
	}
	var out []Rect
	for i, r := range clear {
		maximal := true
		for j, o := range clear {
			if i != j && o.ContainsRect(r) && o != r {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, r)
		}
	}
	return out
}

func rectSet(rs []Rect) map[Rect]bool {
	s := make(map[Rect]bool, len(rs))
	for _, r := range rs {
		s[r] = true
	}
	return s
}

func TestMaximalClearRectsEmptyMask(t *testing.T) {
	m := NewMask(7, 4)
	got := m.MaximalClearRects()
	if len(got) != 1 || got[0] != (Rect{X: 0, Y: 0, W: 7, H: 4}) {
		t.Fatalf("empty mask: got %v, want the full grid", got)
	}
}

func TestMaximalClearRectsFullMask(t *testing.T) {
	m := NewMask(3, 3)
	m.SetRect(Rect{X: 0, Y: 0, W: 3, H: 3})
	if got := m.MaximalClearRects(); len(got) != 0 {
		t.Fatalf("full mask: got %v, want none", got)
	}
}

func TestMaximalClearRectsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		w := 1 + rng.Intn(8)
		h := 1 + rng.Intn(6)
		if trial%10 == 0 {
			// Word-boundary widths (see maskTestWidths), kept short so
			// the brute-force oracle stays cheap.
			w = []int{63, 64, 65, 127, 128, 129}[trial/10%6]
			h = 1 + rng.Intn(2)
		}
		m := NewMask(w, h)
		for i := rng.Intn(6); i > 0; i-- {
			rw := 1 + rng.Intn(w)
			rh := 1 + rng.Intn(h)
			m.SetRect(Rect{X: rng.Intn(w - rw + 1), Y: rng.Intn(h - rh + 1), W: rw, H: rh})
		}
		got := rectSet(m.MaximalClearRects())
		want := rectSet(bruteMaximalClearRects(m))
		if len(got) != len(want) {
			t.Fatalf("trial %d (%dx%d): got %d MERs, want %d\ngot:  %v\nwant: %v",
				trial, w, h, len(got), len(want), got, want)
		}
		for r := range want {
			if !got[r] {
				t.Fatalf("trial %d: missing MER %v", trial, r)
			}
		}
	}
}

func TestMaximalClearRectsCoverEveryClearTile(t *testing.T) {
	m := NewMask(10, 8)
	m.SetRect(Rect{X: 2, Y: 1, W: 3, H: 4})
	m.SetRect(Rect{X: 7, Y: 5, W: 2, H: 2})
	mers := m.MaximalClearRects()
	for x := 0; x < 10; x++ {
		for y := 0; y < 8; y++ {
			if m.Get(x, y) {
				continue
			}
			covered := false
			for _, r := range mers {
				if r.Contains(x, y) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("clear tile (%d,%d) not covered by any MER", x, y)
			}
		}
	}
}
