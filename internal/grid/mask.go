package grid

import "math/bits"

// Mask is a dense occupancy bitmap over a W x H tile grid. It is the
// workhorse of the combinatorial placement engines: overlap tests against
// the set of already-placed rectangles reduce to word-wise AND.
//
// Bits are stored row-major with every row starting on a word boundary:
// a row takes stride = ceil(W/64) words, and tile (c, r) is bit c&63 of
// word r*stride + c>>6. The bits past column W-1 in a row's last word are
// never set. Aligned rows give a rectangle the same column-span bits in
// every row it covers, so rect operations compute those bits once per
// word column and then step down the rows by stride.
type Mask struct {
	w, h   int
	stride int // words per row
	words  []uint64
}

// NewMask returns an empty mask for a w x h grid.
func NewMask(w, h int) *Mask {
	if w <= 0 || h <= 0 {
		panic("grid: non-positive mask dimensions")
	}
	stride := (w + 63) >> 6
	return &Mask{w: w, h: h, stride: stride, words: make([]uint64, stride*h)}
}

// Clone returns a deep copy of the mask.
func (m *Mask) Clone() *Mask {
	cp := &Mask{w: m.w, h: m.h, stride: m.stride, words: make([]uint64, len(m.words))}
	copy(cp.words, m.words)
	return cp
}

// W returns the grid width.
func (m *Mask) W() int { return m.w }

// H returns the grid height.
func (m *Mask) H() int { return m.h }

func (m *Mask) bit(c, r int) (word int, bit uint64) {
	return r*m.stride + c>>6, 1 << uint(c&63)
}

// Get reports whether tile (c, r) is set.
func (m *Mask) Get(c, r int) bool {
	w, b := m.bit(c, r)
	return m.words[w]&b != 0
}

// Set marks tile (c, r).
func (m *Mask) Set(c, r int) {
	w, b := m.bit(c, r)
	m.words[w] |= b
}

// Clear unmarks tile (c, r).
func (m *Mask) Clear(c, r int) {
	w, b := m.bit(c, r)
	m.words[w] &^= b
}

// span is a rect clipped to a mask: its columns [x0, x1) and the
// half-open range [start, end) of the words of its rows.
type span struct{ x0, x1, start, end int }

// span clips rect to the grid; ok is false when nothing of rect lies
// inside it.
func (m *Mask) span(rect Rect) (s span, ok bool) {
	x0, x1 := max(rect.X, 0), min(rect.X+rect.W, m.w)
	y0, y1 := max(rect.Y, 0), min(rect.Y+rect.H, m.h)
	return span{x0, x1, y0 * m.stride, y1 * m.stride}, x0 < x1 && y0 < y1
}

// bits returns the covered column bits of word column wc.
func (s *span) bits(wc int) uint64 {
	b := ^uint64(0)
	if wc == s.x0>>6 {
		b <<= uint(s.x0 & 63)
	}
	if wc == (s.x1-1)>>6 {
		b &= ^uint64(0) >> uint(63-(s.x1-1)&63)
	}
	return b
}

// SetRect marks every tile covered by rect. Tiles outside the grid are
// ignored.
func (m *Mask) SetRect(rect Rect) {
	s, ok := m.span(rect)
	if !ok {
		return
	}
	for wc, last := s.x0>>6, (s.x1-1)>>6; wc <= last; wc++ {
		b := s.bits(wc)
		for i := s.start + wc; i < s.end; i += m.stride {
			m.words[i] |= b
		}
	}
}

// ClearRect unmarks every tile covered by rect. Tiles outside the grid
// are ignored.
func (m *Mask) ClearRect(rect Rect) {
	s, ok := m.span(rect)
	if !ok {
		return
	}
	for wc, last := s.x0>>6, (s.x1-1)>>6; wc <= last; wc++ {
		b := s.bits(wc)
		for i := s.start + wc; i < s.end; i += m.stride {
			m.words[i] &^= b
		}
	}
}

// OverlapsRect reports whether any tile covered by rect is set. Tiles
// outside the grid count as clear.
func (m *Mask) OverlapsRect(rect Rect) bool {
	s, ok := m.span(rect)
	if !ok {
		return false
	}
	for wc, last := s.x0>>6, (s.x1-1)>>6; wc <= last; wc++ {
		b := s.bits(wc)
		for i := s.start + wc; i < s.end; i += m.stride {
			if m.words[i]&b != 0 {
				return true
			}
		}
	}
	return false
}

// Count returns the number of set tiles.
func (m *Mask) Count() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether at least one tile is set.
func (m *Mask) Any() bool {
	for _, w := range m.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears the whole mask.
func (m *Mask) Reset() {
	for i := range m.words {
		m.words[i] = 0
	}
}
