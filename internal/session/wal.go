package session

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// WAL framing: a magic line, then one frame per record —
//
//	uint32 LE payload length
//	uint32 LE CRC-32 (IEEE) of the payload
//	payload (JSON)
//	'\n' (keeps the file greppable; not part of the checksum)
//
// The length prefix makes records skippable without parsing JSON; the
// checksum catches torn tails and bit flips. Readers return the longest
// clean prefix plus a structured *CorruptError for whatever follows —
// never a panic, never a silently diverged record.
//
// A reused log ends its live records with walEnd, an 8-byte header of
// length 0 and checksum 0xffffffff. No legal frame has that header (the
// CRC of an empty payload is 0), so readers stop there cleanly and never
// read the stale records of earlier generations that lie beyond it.

// walMagic heads every WAL and snapshot file.
const walMagic = "FLOORWAL1\n"

// walEnd is the end marker: a frame header no legal frame can carry.
var walEnd = [8]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}

// maxWALRecord bounds a single record's payload. Anything larger is a
// corrupt length prefix, not a real record — the cap keeps a flipped
// length bit from driving a giant allocation.
const maxWALRecord = 16 << 20

// CorruptError reports where and why WAL decoding stopped. Records
// before Offset decoded cleanly.
type CorruptError struct {
	// Offset is the file offset of the first undecodable byte.
	Offset int64
	// Record is the index of the record that failed (0-based).
	Record int
	// Reason says what was wrong.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("session: corrupt WAL record %d at offset %d: %s", e.Record, e.Offset, e.Reason)
}

// putWALHeader fills hdr (8 bytes) with payload's length and checksum.
func putWALHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
}

// writeWALFrame frames one payload onto w.
func writeWALFrame(w io.Writer, payload []byte) error {
	frame := make([]byte, 8, 8+len(payload)+1)
	putWALHeader(frame, payload)
	frame = append(append(frame, payload...), '\n')
	_, err := w.Write(frame)
	return err
}

// readWALFramesBytes decodes the records of a whole WAL image held in
// memory (magic included), up to its end or its end marker. It returns
// the clean prefix (payloads alias data); corrupt is non-nil when
// decoding stopped early (torn tail, bit flip, bad magic) and says
// where.
func readWALFramesBytes(data []byte) (records [][]byte, corrupt *CorruptError) {
	if !bytes.HasPrefix(data, []byte(walMagic)) {
		return nil, &CorruptError{Offset: 0, Record: 0, Reason: fmt.Sprintf("bad magic %q", data[:min(len(data), len(walMagic))])}
	}
	off := int64(len(walMagic))
	for i := 0; ; i++ {
		rest := data[off:]
		if len(rest) == 0 {
			return records, nil
		}
		if len(rest) < 8 {
			return records, &CorruptError{Offset: off, Record: i, Reason: fmt.Sprintf("torn header (%d of 8 bytes)", len(rest))}
		}
		if bytes.Equal(rest[:8], walEnd[:]) {
			return records, nil
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxWALRecord {
			return records, &CorruptError{Offset: off, Record: i, Reason: fmt.Sprintf("record length %d exceeds cap %d", length, maxWALRecord)}
		}
		if n := len(rest) - 8; n < int(length) {
			return records, &CorruptError{Offset: off, Record: i, Reason: fmt.Sprintf("torn payload (%d of %d bytes)", n, length)}
		}
		payload := rest[8 : 8+length]
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return records, &CorruptError{Offset: off, Record: i, Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", sum, got)}
		}
		if len(rest) == 8+int(length) || rest[8+length] != '\n' {
			return records, &CorruptError{Offset: off, Record: i, Reason: "missing record terminator"}
		}
		records = append(records, payload)
		off += 8 + int64(length) + 1
	}
}
