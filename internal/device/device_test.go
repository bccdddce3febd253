package device

import (
	"encoding/json"
	"testing"

	"repro/internal/grid"
)

func TestNewValidation(t *testing.T) {
	types := V5Types()
	if _, err := New("bad", 0, 3, types, nil, nil); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := New("bad", 2, 2, types, []TypeID{0, 0, 0}, nil); err == nil {
		t.Fatal("wrong cell count accepted")
	}
	if _, err := New("bad", 2, 2, types, []TypeID{0, 0, 0, 9}, nil); err == nil {
		t.Fatal("invalid type id accepted")
	}
	if _, err := New("bad", 2, 2, types, []TypeID{0, 0, 0, 0},
		[]grid.Rect{{X: 1, Y: 1, W: 5, H: 5}}); err == nil {
		t.Fatal("out-of-bounds forbidden area accepted")
	}
	dup := []TileType{{Name: "a", Class: ClassCLB, Frames: 1}, {Name: "a", Class: ClassCLB, Frames: 2}}
	if _, err := New("bad", 1, 1, dup, []TypeID{0}, nil); err == nil {
		t.Fatal("duplicate type name accepted")
	}
	zero := []TileType{{Name: "z", Class: ClassCLB, Frames: 0}}
	if _, err := New("bad", 1, 1, zero, []TypeID{0}, nil); err == nil {
		t.Fatal("zero frame count accepted")
	}
}

func TestFX70TShape(t *testing.T) {
	d := VirtexFX70T()
	if d.Width() != 41 || d.Height() != 8 {
		t.Fatalf("dimensions = %dx%d", d.Width(), d.Height())
	}
	if !d.IsColumnar() {
		t.Fatal("FX70T model must be columnar")
	}
	counts := d.CountClasses(d.Bounds())
	if counts[ClassCLB] != 35*8 {
		t.Fatalf("CLB tiles = %d, want %d", counts[ClassCLB], 35*8)
	}
	if counts[ClassBRAM] != 4*8 {
		t.Fatalf("BRAM tiles = %d, want %d", counts[ClassBRAM], 4*8)
	}
	if counts[ClassDSP] != 2*8 {
		t.Fatalf("DSP tiles = %d, want %d", counts[ClassDSP], 2*8)
	}
	if len(d.Forbidden()) != 1 {
		t.Fatalf("forbidden areas = %d, want 1 (PowerPC)", len(d.Forbidden()))
	}
}

// TestTableIFrameCounts reproduces the "# Frames" column of Table I: the
// per-region minimal frame counts follow from the 36/30/28 frames-per-tile
// figures.
func TestTableIFrameCounts(t *testing.T) {
	d := VirtexFX70T()
	cases := []struct {
		name           string
		clb, bram, dsp int
		wantFrames     int
	}{
		{"Matched Filter", 25, 0, 5, 1040},
		{"Carrier Recovery", 7, 0, 1, 280},
		{"Demodulator", 5, 2, 0, 240},
		{"Signal Decoder", 12, 1, 0, 462},
		{"Video Decoder", 55, 2, 5, 2180},
	}
	total := 0
	for _, c := range cases {
		rq := Requirements{ClassCLB: c.clb, ClassBRAM: c.bram, ClassDSP: c.dsp}
		got, err := d.FramesForRequirements(rq)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.wantFrames {
			t.Fatalf("%s: frames = %d, want %d", c.name, got, c.wantFrames)
		}
		total += got
	}
	if total != 4202 {
		t.Fatalf("total frames = %d, want 4202 (Table I)", total)
	}
}

func TestCountTilesAndFrames(t *testing.T) {
	d := VirtexFX70T()
	// Columns 4..9 include the DSP column 8; rows 0..4.
	r := grid.Rect{X: 4, Y: 0, W: 6, H: 5}
	counts := d.CountClasses(r)
	if counts[ClassCLB] != 25 || counts[ClassDSP] != 5 || counts[ClassBRAM] != 0 {
		t.Fatalf("counts = %v", counts)
	}
	if got := d.FramesInRect(r); got != 25*36+5*28 {
		t.Fatalf("frames = %d", got)
	}
}

func TestWastedFrames(t *testing.T) {
	d := VirtexFX70T()
	r := grid.Rect{X: 4, Y: 0, W: 6, H: 5} // 25 CLB + 5 DSP exactly
	rq := Requirements{ClassCLB: 25, ClassDSP: 5}
	if !d.Satisfies(r, rq) {
		t.Fatal("rect should satisfy requirements")
	}
	if w := d.WastedFrames(r, rq); w != 0 {
		t.Fatalf("waste = %d, want 0", w)
	}
	bigger := grid.Rect{X: 4, Y: 0, W: 6, H: 6}
	if w := d.WastedFrames(bigger, rq); w != 5*36+28 {
		t.Fatalf("waste = %d, want %d", w, 5*36+28)
	}
	small := grid.Rect{X: 4, Y: 0, W: 2, H: 2}
	if d.Satisfies(small, rq) {
		t.Fatal("undersized rect must not satisfy requirements")
	}
}

func TestForbiddenQueries(t *testing.T) {
	d := VirtexFX70T()
	ppc := d.Forbidden()[0]
	if !d.InForbidden(ppc.X, ppc.Y) {
		t.Fatal("PPC corner should be forbidden")
	}
	if d.InForbidden(0, 0) {
		t.Fatal("(0,0) should be free")
	}
	if d.CanPlace(grid.Rect{X: ppc.X - 1, Y: ppc.Y, W: 3, H: 1}) {
		t.Fatal("rect crossing PPC should be rejected")
	}
	if !d.CanPlace(grid.Rect{X: 0, Y: 0, W: 5, H: 2}) {
		t.Fatal("free rect rejected")
	}
	if d.CanPlace(grid.Rect{X: 39, Y: 6, W: 5, H: 5}) {
		t.Fatal("out-of-bounds rect accepted")
	}
}

// TestFigure1Compatibility reproduces the compatibility example of
// Figure 1: A and B compatible, A and C not.
func TestFigure1Compatibility(t *testing.T) {
	d := Figure1Device()
	// Columns: B B G B B G B G B B (B=blue/0, G=green/1).
	a := grid.Rect{X: 1, Y: 0, W: 2, H: 3} // cols 1-2: blue, green
	b := grid.Rect{X: 4, Y: 3, W: 2, H: 3} // cols 4-5: blue, green
	c := grid.Rect{X: 7, Y: 0, W: 2, H: 3} // cols 7-8: green, blue (mirrored)
	if !d.Compatible(a, b) {
		t.Fatal("A and B must be compatible")
	}
	if d.Compatible(a, c) {
		t.Fatal("A and C must not be compatible (tile order differs)")
	}
	if d.Compatible(a, grid.Rect{X: 1, Y: 0, W: 2, H: 4}) {
		t.Fatal("different shapes must not be compatible")
	}
}

func TestCompatibleIsEquivalenceLike(t *testing.T) {
	d := VirtexFX70T()
	a := grid.Rect{X: 2, Y: 1, W: 4, H: 3}
	if !d.Compatible(a, a) {
		t.Fatal("compatibility must be reflexive")
	}
	for _, b := range d.CompatiblePlacements(a) {
		if !d.Compatible(b, a) {
			t.Fatalf("compatibility must be symmetric (%v vs %v)", a, b)
		}
	}
}

func TestCompatiblePlacementsRespectForbidden(t *testing.T) {
	d := VirtexFX70T()
	src := grid.Rect{X: 14, Y: 0, W: 4, H: 2} // same columns as the PPC block
	for _, p := range d.CompatiblePlacements(src) {
		if d.OverlapsForbidden(p) {
			t.Fatalf("placement %v overlaps forbidden area", p)
		}
		if !d.Compatible(src, p) {
			t.Fatalf("placement %v not compatible with source", p)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := VirtexFX70T()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var dec Device
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Name() != orig.Name() || dec.Width() != orig.Width() || dec.Height() != orig.Height() {
		t.Fatalf("round trip changed identity: %s %dx%d", dec.Name(), dec.Width(), dec.Height())
	}
	for c := 0; c < orig.Width(); c++ {
		for r := 0; r < orig.Height(); r++ {
			if dec.TypeAt(c, r) != orig.TypeAt(c, r) {
				t.Fatalf("cell (%d,%d) changed", c, r)
			}
		}
	}
	if len(dec.Forbidden()) != len(orig.Forbidden()) {
		t.Fatal("forbidden areas lost")
	}
}

func TestJSONGeneralGrid(t *testing.T) {
	types := []TileType{
		{Name: "a", Class: ClassCLB, Frames: 1},
		{Name: "b", Class: ClassBRAM, Frames: 2},
	}
	orig, err := New("mix", 2, 2, types, []TypeID{0, 1, 1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if orig.IsColumnar() {
		t.Fatal("device should not be columnar")
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var dec Device
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.TypeAt(0, 1) != 1 || dec.TypeAt(1, 1) != 0 {
		t.Fatal("general grid cells lost in round trip")
	}
}

func TestGenerate(t *testing.T) {
	d := MustGenerate(GeneratorConfig{
		Width: 60, Height: 10, BRAMEvery: 8, DSPEvery: 15,
		ForbiddenBlocks: 2, Seed: 9,
	})
	if !d.IsColumnar() {
		t.Fatal("generated device must be columnar")
	}
	counts := d.CountClasses(d.Bounds())
	if counts[ClassBRAM] == 0 || counts[ClassDSP] == 0 {
		t.Fatalf("generator produced no BRAM/DSP columns: %v", counts)
	}
	if _, err := Generate(GeneratorConfig{Width: 0, Height: 5}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestFramesForRequirementsErrors(t *testing.T) {
	d := VirtexFX70T()
	if _, err := d.FramesForRequirements(Requirements{ClassIO: 3}); err == nil {
		t.Fatal("unknown class accepted")
	}
	types := []TileType{
		{Name: "clb-a", Class: ClassCLB, Frames: 10},
		{Name: "clb-b", Class: ClassCLB, Frames: 20},
	}
	mixed, err := New("mixed", 2, 1, types, []TypeID{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mixed.FramesForRequirements(Requirements{ClassCLB: 1}); err == nil {
		t.Fatal("ambiguous class frame count accepted")
	}
}

func TestColumnType(t *testing.T) {
	d := VirtexFX70T()
	if d.ColumnType(8) != V5DSP {
		t.Fatalf("column 8 should be DSP")
	}
	if d.ColumnType(3) != V5BRAM {
		t.Fatalf("column 3 should be BRAM")
	}
	if d.ColumnType(0) != V5CLB {
		t.Fatalf("column 0 should be CLB")
	}
}

func TestTypeIDByName(t *testing.T) {
	d := VirtexFX70T()
	id, ok := d.TypeIDByName("DSP")
	if !ok || id != V5DSP {
		t.Fatalf("lookup DSP = %d, %v", id, ok)
	}
	if _, ok := d.TypeIDByName("nope"); ok {
		t.Fatal("unknown name found")
	}
}

func TestCountsHelpers(t *testing.T) {
	a := Counts{1, 2, 3}
	b := Counts{4, 0, 1}
	a.Add(b)
	if !a.Equal(Counts{5, 2, 4}) {
		t.Fatalf("add = %v", a)
	}
	if a.Total() != 11 {
		t.Fatalf("total = %d", a.Total())
	}
	if a.Equal(Counts{5, 2}) {
		t.Fatal("length mismatch must not be equal")
	}
}

func TestRequirementsHelpers(t *testing.T) {
	rq := Requirements{ClassCLB: 2}
	cp := rq.Clone()
	cp[ClassCLB] = 7
	if rq[ClassCLB] != 2 {
		t.Fatal("clone aliases original")
	}
	if rq.IsZero() {
		t.Fatal("non-zero requirements reported zero")
	}
	if !(Requirements{ClassCLB: 0}).IsZero() {
		t.Fatal("zero requirements not detected")
	}
}

func TestKintex7K160T(t *testing.T) {
	d := Kintex7K160T()
	if !d.IsColumnar() {
		t.Fatal("K160T model must be columnar")
	}
	counts := d.CountClasses(d.Bounds())
	if counts[ClassBRAM] == 0 || counts[ClassDSP] == 0 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[ClassCLB]+counts[ClassBRAM]+counts[ClassDSP] != 70*12 {
		t.Fatalf("tile total = %v", counts)
	}
	if len(d.Forbidden()) != 0 {
		t.Fatal("7-series model should have no forbidden areas")
	}
	// Frames follow the 7-series figures.
	id, _ := d.TypeIDByName("BRAM")
	if d.Type(id).Frames != V7BRAMFrames {
		t.Fatalf("BRAM frames = %d", d.Type(id).Frames)
	}
}

func TestDeviceByName(t *testing.T) {
	for name, want := range map[string]string{
		"fx70t": "xc5vfx70t", "Virtex5": "xc5vfx70t", "xc5vfx70t": "xc5vfx70t",
		"k160t": "xc7k160t", "KINTEX7": "xc7k160t", "xc7k160t": "xc7k160t",
	} {
		d, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Name() != want {
			t.Fatalf("%s resolved to %s, want %s", name, d.Name(), want)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown device accepted")
	}
}
