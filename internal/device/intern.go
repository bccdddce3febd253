package device

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
	"sync"
)

// internCap bounds the canonical-device table. A long-lived service sees a
// handful of device models; beyond the cap the oldest entry is evicted,
// after which its model gets a new canonical device on its next sighting.
const internCap = 64

// internTable holds the canonical devices, oldest first, indexed by a
// content fingerprint. Every fingerprint match is confirmed by full
// content equality, so a look-alike device never shares state.
var internTable = struct {
	mu    sync.Mutex
	seed  maphash.Seed
	byFP  map[uint64][]*Device
	order []internEntry
}{seed: maphash.MakeSeed(), byFP: make(map[uint64][]*Device)}

type internEntry struct {
	fp  uint64
	dev *Device
}

// Intern returns the canonical device equal in content to d: same name,
// dimensions, tile types, cells and forbidden areas. The first device of
// each model becomes its canonical one. Data memoized per device pointer —
// the compatible-placement index here and core's candidate cache — is
// shared by every caller holding the canonical device, which is how a
// service that decodes the same model per request does per-model work
// once. Intern(nil) is nil.
func Intern(d *Device) *Device {
	if d == nil {
		return nil
	}
	t := &internTable
	fp := d.fingerprint(t.seed)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.byFP[fp] {
		if c == d || c.sameContent(d) {
			return c
		}
	}
	t.byFP[fp] = append(t.byFP[fp], d)
	t.order = append(t.order, internEntry{fp: fp, dev: d})
	if len(t.order) > internCap {
		old := t.order[0]
		t.order = t.order[1:]
		bucket := slices.DeleteFunc(t.byFP[old.fp], func(c *Device) bool { return c == old.dev })
		if len(bucket) == 0 {
			delete(t.byFP, old.fp)
		} else {
			t.byFP[old.fp] = bucket
		}
	}
	return d
}

// fingerprint hashes the device's content; equal devices hash equal.
func (d *Device) fingerprint(seed maphash.Seed) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	var b [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	h.WriteString(d.name)
	word(d.w)
	word(d.h)
	word(len(d.types))
	for _, t := range d.types {
		word(len(t.Name))
		h.WriteString(t.Name)
		word(len(t.Class))
		h.WriteString(string(t.Class))
		word(t.Frames)
		word(t.Config)
	}
	for _, id := range d.cells {
		word(int(id))
	}
	for _, f := range d.forbidden {
		word(f.X)
		word(f.Y)
		word(f.W)
		word(f.H)
	}
	return h.Sum64()
}

// sameContent reports whether d and o describe the same device model.
func (d *Device) sameContent(o *Device) bool {
	return d.name == o.name && d.w == o.w && d.h == o.h &&
		slices.Equal(d.types, o.types) &&
		slices.Equal(d.cells, o.cells) &&
		slices.Equal(d.forbidden, o.forbidden)
}
