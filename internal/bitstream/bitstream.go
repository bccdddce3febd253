// Package bitstream provides a synthetic partial-bitstream substrate that
// makes the floorplanner's relocation story executable end to end.
//
// The paper assumes an external relocation filter (REPLICA [2,3] or BiRF
// [4,5]): moving a task between two compatible areas is "simply" a matter
// of changing the frame addresses in the partial bitstream and recomputing
// the CRC before feeding it to the configuration interface. This package
// implements exactly that pipeline against the tile-level device model:
//
//   - Generate builds a partial bitstream for an area: one frame per
//     (tile, minor index) with position-independent payloads,
//   - Relocate is the software filter: it verifies area compatibility,
//     rewrites every frame address by the (dx, dy) offset, and recomputes
//     the CRC — payloads are untouched,
//   - ConfigMemory simulates the configuration interface: it rejects
//     frames whose address does not match the expected tile type, so a
//     relocation to a non-compatible area fails exactly the way real
//     hardware would corrupt it.
package bitstream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/device"
	"repro/internal/grid"
)

// FrameBytes is the payload size of one configuration frame. (On Virtex-5
// a frame is 41 32-bit words; the exact figure is irrelevant to the
// relocation logic, so the model uses a round number.)
const FrameBytes = 64

// Magic identifies encoded bitstreams.
var Magic = [4]byte{'P', 'B', 'I', 'T'}

// FrameAddress locates one configuration frame on the device: the tile it
// configures plus the minor frame index within that tile (0 <= Minor <
// frames-per-tile of the tile's type).
type FrameAddress struct {
	Column int
	Row    int
	Minor  int
}

func (a FrameAddress) String() string {
	return fmt.Sprintf("FAR(c=%d,r=%d,m=%d)", a.Column, a.Row, a.Minor)
}

// Frame is one addressed configuration frame.
type Frame struct {
	Addr    FrameAddress
	Payload [FrameBytes]byte
}

// Bitstream is a partial bitstream for a rectangular area of a device.
type Bitstream struct {
	// DeviceName records the target device.
	DeviceName string
	// Area is the rectangle the bitstream configures.
	Area grid.Rect
	// Frames lists the configuration frames in address order
	// (column-major, then row, then minor).
	Frames []Frame
	// CRC is the CRC-32 (IEEE) over the header and all frames, as
	// maintained by Seal.
	CRC uint32
}

// payload derives the position-independent content of a frame: it depends
// on the tile's offset *within the area*, its type, the minor index and
// the design seed — but never on the absolute device position. This is
// the property real relocatable designs must have (identical
// configuration data across compatible areas, Definition .1).
func payload(seed int64, relC, relR int, t device.TypeID, minor int) [FrameBytes]byte {
	var out [FrameBytes]byte
	var ctr [16]byte
	binary.LittleEndian.PutUint64(ctr[0:], uint64(seed))
	binary.LittleEndian.PutUint16(ctr[8:], uint16(relC))
	binary.LittleEndian.PutUint16(ctr[10:], uint16(relR))
	binary.LittleEndian.PutUint16(ctr[12:], uint16(t))
	binary.LittleEndian.PutUint16(ctr[14:], uint16(minor))
	// Simple xorshift-style expansion of the counter block.
	state := crcBytes(0, ctr[:])
	for i := 0; i < FrameBytes; i += 4 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		binary.LittleEndian.PutUint32(out[i:], state)
	}
	return out
}

// Generate builds the partial bitstream of a design occupying area on
// device d. seed distinguishes different designs for the same area. The
// area must be a legal placement (inside the device, off forbidden
// areas).
func Generate(d *device.Device, area grid.Rect, seed int64) (*Bitstream, error) {
	if !d.CanPlace(area) {
		return nil, fmt.Errorf("bitstream: area %v is not a legal placement on %s", area, d.Name())
	}
	bs := &Bitstream{DeviceName: d.Name(), Area: area, Frames: make([]Frame, 0, d.FramesInRect(area))}
	area.Tiles(func(c, r int) {
		t := d.TypeAt(c, r)
		frames := d.Type(t).Frames
		for minor := 0; minor < frames; minor++ {
			bs.Frames = append(bs.Frames, Frame{
				Addr:    FrameAddress{Column: c, Row: r, Minor: minor},
				Payload: payload(seed, c-area.X, r-area.Y, t, minor),
			})
		}
	})
	bs.Seal()
	return bs, nil
}

// Seal recomputes the bitstream CRC (what a relocation filter must do
// after rewriting addresses).
func (bs *Bitstream) Seal() {
	bs.CRC = bs.checksum()
}

// CheckCRC reports whether the stored CRC matches the content.
func (bs *Bitstream) CheckCRC() bool {
	return bs.CRC == bs.checksum()
}

// checksum is the CRC-32 (IEEE) of the device name, then the area
// (X, Y, W, H) and every frame's address (column, row, minor) as
// little-endian 64-bit integers, each frame's followed by its payload.
func (bs *Bitstream) checksum() uint32 {
	w := newCRCWriter()
	// In buffer-sized pieces: a decoded name may be up to 64 KiB.
	for name := bs.DeviceName; len(name) > 0; {
		name = name[copy(w.next(min(len(name), crcBatchBytes)), name):]
	}
	hdr := w.next(32)
	putInt(hdr[0:], bs.Area.X)
	putInt(hdr[8:], bs.Area.Y)
	putInt(hdr[16:], bs.Area.W)
	putInt(hdr[24:], bs.Area.H)
	for i := range bs.Frames {
		f := &bs.Frames[i]
		rec := w.next(24 + FrameBytes)
		putInt(rec[0:], f.Addr.Column)
		putInt(rec[8:], f.Addr.Row)
		putInt(rec[16:], f.Addr.Minor)
		copy(rec[24:], f.Payload[:])
	}
	return w.sum()
}

func putInt(b []byte, v int) { binary.LittleEndian.PutUint64(b, uint64(int64(v))) }

// crcBatchBytes is the size of a crcWriter's buffer: 16 bitstream frame
// records per crc32.Update call.
const crcBatchBytes = 16 * (24 + FrameBytes)

// crcPool recycles crcWriter buffers. A stack buffer would not help: the
// slice handed to crc32.Update escapes through its indirect call, so
// every checksum would allocate one.
var crcPool = sync.Pool{New: func() any { return new([crcBatchBytes]byte) }}

// crcWriter computes a CRC-32 (IEEE) over records laid out in a pooled
// buffer, folding a whole batch of them per crc32.Update call.
type crcWriter struct {
	crc uint32
	buf *[crcBatchBytes]byte
	n   int
}

func newCRCWriter() crcWriter {
	return crcWriter{buf: crcPool.Get().(*[crcBatchBytes]byte)}
}

// next returns the following size bytes of the stream for the caller to
// fill (size <= crcBatchBytes), folding the buffered records first when
// they would not fit.
func (w *crcWriter) next(size int) []byte {
	if w.n+size > crcBatchBytes {
		w.flush()
	}
	b := w.buf[w.n : w.n+size]
	w.n += size
	return b
}

func (w *crcWriter) flush() {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[:w.n])
	w.n = 0
}

// sum folds what is buffered, returns the buffer to the pool and
// returns the CRC. The writer must not be used afterwards.
func (w *crcWriter) sum() uint32 {
	w.flush()
	crcPool.Put(w.buf)
	w.buf = nil
	return w.crc
}

// crcBytes folds p into crc byte by byte through crc32.IEEETable: for
// short inputs this keeps p on the caller's stack.
func crcBytes(crc uint32, p []byte) uint32 {
	crc = ^crc
	for _, b := range p {
		crc = crc32.IEEETable[byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

// FrameCount returns the number of frames, which for a generated
// bitstream equals device.FramesInRect of its area.
func (bs *Bitstream) FrameCount() int { return len(bs.Frames) }

// Relocate applies the software relocation filter: it returns a copy of
// the bitstream retargeted to the compatible area target on device d.
// Frame payloads are preserved bit-exactly; only addresses move by the
// area offset, and the CRC is recomputed. It fails if the areas are not
// compatible (Section II) or the target is not a legal placement.
func Relocate(d *device.Device, bs *Bitstream, target grid.Rect) (*Bitstream, error) {
	if bs.DeviceName != d.Name() {
		return nil, fmt.Errorf("bitstream: built for %q, relocating on %q", bs.DeviceName, d.Name())
	}
	if !d.CanPlace(target) {
		return nil, fmt.Errorf("bitstream: target %v is not a legal placement", target)
	}
	if !d.Compatible(bs.Area, target) {
		return nil, fmt.Errorf("bitstream: area %v is not compatible with target %v", bs.Area, target)
	}
	dx := target.X - bs.Area.X
	dy := target.Y - bs.Area.Y
	out := &Bitstream{
		DeviceName: bs.DeviceName,
		Area:       target,
		Frames:     make([]Frame, len(bs.Frames)),
	}
	for i, f := range bs.Frames {
		f.Addr.Column += dx
		f.Addr.Row += dy
		out.Frames[i] = f
	}
	out.Seal()
	return out, nil
}
