package session

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
)

// encodeWAL frames the payloads into a complete WAL image.
func encodeWAL(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(walMagic)
	for _, p := range payloads {
		if err := writeWALFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestWALRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte(`{"a":1}`),
		[]byte(``), // empty payloads are legal frames
		[]byte(strings.Repeat(`{"pad":true}`, 500)),
	}
	records, corrupt := readWALFramesBytes(encodeWAL(t, payloads...))
	if corrupt != nil {
		t.Fatalf("clean image reported corrupt: %v", corrupt)
	}
	if len(records) != len(payloads) {
		t.Fatalf("%d records, want %d", len(records), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(records[i], p) {
			t.Fatalf("record %d = %q, want %q", i, records[i], p)
		}
	}
}

func TestWALTornTail(t *testing.T) {
	image := encodeWAL(t, []byte(`{"a":1}`), []byte(`{"b":2}`))
	// Cut into the second record's payload: the first must survive.
	cut := len(walMagic) + 8 + len(`{"a":1}`) + 1 + 8 + 3
	records, corrupt := readWALFramesBytes(image[:cut])
	if len(records) != 1 || !bytes.Equal(records[0], []byte(`{"a":1}`)) {
		t.Fatalf("prefix = %q", records)
	}
	if corrupt == nil || corrupt.Record != 1 || !strings.Contains(corrupt.Reason, "torn") {
		t.Fatalf("corrupt = %+v, want torn record 1", corrupt)
	}

	// Cut mid-header.
	records, corrupt = readWALFramesBytes(image[:len(walMagic)+3])
	if len(records) != 0 || corrupt == nil || !strings.Contains(corrupt.Reason, "torn header") {
		t.Fatalf("mid-header cut: records %q, corrupt %+v", records, corrupt)
	}
}

func TestWALBitFlip(t *testing.T) {
	image := encodeWAL(t, []byte(`{"a":1}`), []byte(`{"b":2}`))
	// Flip one payload byte of the second record.
	flipped := bytes.Clone(image)
	flipped[len(walMagic)+8+len(`{"a":1}`)+1+8+2] ^= 0x40
	records, corrupt := readWALFramesBytes(flipped)
	if len(records) != 1 {
		t.Fatalf("%d records survived a flipped byte, want 1", len(records))
	}
	if corrupt == nil || corrupt.Record != 1 || !strings.Contains(corrupt.Reason, "checksum") {
		t.Fatalf("corrupt = %+v, want checksum mismatch on record 1", corrupt)
	}
}

func TestWALBadMagic(t *testing.T) {
	records, corrupt := readWALFramesBytes([]byte("NOTAWAL00\n"))
	if len(records) != 0 || corrupt == nil || !strings.Contains(corrupt.Reason, "magic") {
		t.Fatalf("records %q, corrupt %+v", records, corrupt)
	}
}

// FuzzWALReplay feeds arbitrary bytes through the WAL decoder and, as a
// session's events.wal behind a generation-2 snapshot, through
// Store.Load: truncated, bit-flipped and duplicated records, end markers
// and stale generations must always yield a clean prefix plus a
// structured corruption error — never a panic, never a record that
// fails to re-encode byte-identically, and never a loaded record of
// another generation.
func FuzzWALReplay(f *testing.F) {
	valid := func(payloads ...[]byte) []byte {
		var buf bytes.Buffer
		buf.WriteString(walMagic)
		for _, p := range payloads {
			_ = writeWALFrame(&buf, p)
		}
		return buf.Bytes()
	}
	rec := []byte(`{"result":{"seq":1,"placed":true},"ops":[{"op":"place","module":{"name":"a"}}]}`)
	f.Add([]byte{})
	f.Add([]byte(walMagic))
	f.Add(valid(rec))
	f.Add(valid(rec, rec))                      // duplicated record
	f.Add(valid(rec)[:len(walMagic)+12])        // torn payload
	f.Add(append(valid(rec), 0xde, 0xad, 0xbe)) // garbage tail
	flipped := valid(rec, []byte(`{"result":{"seq":2}}`))
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	gen2 := []byte(`{"gen":2,"result":{"seq":9,"placed":true}}`)
	gen1 := []byte(`{"gen":1,"result":{"seq":3}}`)
	ended := append(valid(gen2), walEnd[:]...)
	f.Add(ended)                                  // end marker
	f.Add(append(bytes.Clone(ended), gen1...))    // stale bytes past the marker
	f.Add(valid(gen2, gen1))                      // stale generation, no marker
	f.Add(valid(gen1, gen2))                      // restarted log not yet overwritten
	f.Add(valid([]byte(`{"gen":3,"result":{}}`))) // newer than the snapshot
	f.Add(append(valid(gen2), walEnd[:5]...))     // torn end marker

	f.Fuzz(func(t *testing.T, data []byte) {
		records, corrupt := readWALFramesBytes(data)
		if corrupt == nil && len(data) > 0 {
			// A clean decode must round-trip byte-identically, up to the
			// end marker when it stopped at one.
			var buf bytes.Buffer
			buf.WriteString(walMagic)
			for _, r := range records {
				if err := writeWALFrame(&buf, r); err != nil {
					t.Fatal(err)
				}
			}
			rest, ok := bytes.CutPrefix(data, buf.Bytes())
			if !ok || (len(rest) > 0 && !bytes.HasPrefix(rest, walEnd[:])) {
				t.Fatalf("clean decode did not round-trip: %d in, %d out", len(data), buf.Len())
			}
		}
		if corrupt != nil && corrupt.Reason == "" {
			t.Fatal("corruption reported without a reason")
		}
		// Every clean record must be safe to hand to the JSON decoder
		// (errors fine, panics not).
		for _, payload := range records {
			var rec walRecord
			_ = json.Unmarshal(payload, &rec)
		}

		var snap bytes.Buffer
		snap.WriteString(walMagic)
		if err := writeWALFrame(&snap, []byte(`{"gen":2,"meta":{"id":"fuzz"}}`)); err != nil {
			t.Fatal(err)
		}
		store, err := openStore("fuzz", newMemFS(map[string][]byte{slotFiles[0]: snap.Bytes(), eventsFile: data}))
		if err != nil {
			t.Fatal(err)
		}
		lr, err := store.Load()
		if err != nil {
			return // a record newer than every snapshot is a hard error
		}
		if len(lr.Records) > len(records) {
			t.Fatalf("Load kept %d records, the decoder only %d", len(lr.Records), len(records))
		}
		for i, r := range lr.Records {
			if r.Gen != 2 {
				t.Fatalf("loaded record %d has generation %d behind a generation-2 snapshot", i, r.Gen)
			}
		}
		if lr.Torn != nil && lr.Torn.Reason == "" {
			t.Fatal("tear reported without a reason")
		}
	})
}

// TestWALLengthCap: a flipped length bit must not drive a giant
// allocation — the cap rejects it as corruption.
func TestWALLengthCap(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(walMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxWALRecord+1)
	buf.Write(hdr[:])
	records, corrupt := readWALFramesBytes(buf.Bytes())
	if len(records) != 0 || corrupt == nil || !strings.Contains(corrupt.Reason, "cap") {
		t.Fatalf("records %q, corrupt %+v", records, corrupt)
	}
}
