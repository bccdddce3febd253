package device

import (
	"fmt"
	"strings"

	"repro/internal/grid"
)

// Frames per tile type on Virtex-5, as given in Section VI of the paper:
// a CLB tile takes 36 configuration frames, a BRAM tile 30, a DSP tile 28.
const (
	V5CLBFrames  = 36
	V5BRAMFrames = 30
	V5DSPFrames  = 28
)

// Tile type ids used by the Virtex-5 style builders, indices into the
// slice returned by V5Types.
const (
	V5CLB TypeID = iota
	V5BRAM
	V5DSP
)

// V5Types returns the three Virtex-5 tile types used by the paper's
// evaluation (CLB, BRAM, DSP with 36/30/28 frames).
func V5Types() []TileType {
	return []TileType{
		{Name: "CLB", Class: ClassCLB, Frames: V5CLBFrames},
		{Name: "BRAM", Class: ClassBRAM, Frames: V5BRAMFrames},
		{Name: "DSP", Class: ClassDSP, Frames: V5DSPFrames},
	}
}

// VirtexFX70T returns the tile-level model of the Xilinx Virtex-5 FX70T
// used as the target device in Section VI.
//
// The model is reconstructed from public FX70T figures at tile granularity
// (a tile is one column wide and one clock region tall):
//
//   - 8 tile rows (8 clock regions of 20 CLBs each: 160 CLB rows),
//   - 35 CLB columns (5,600 CLBs = 11,200 slices),
//   - 4 BRAM columns (4 x 8 = 32 BRAM tiles),
//   - 2 DSP columns (2 x 8 x 8 = 128 DSP48E slices),
//   - one PowerPC 440 hard block near the center, modeled as a 4x4-tile
//     forbidden area that reconfigurable regions and free-compatible areas
//     must not cross (the "model simplification" of Section III.A).
//
// The left-to-right column mix interleaves BRAM and DSP columns among the
// CLB fabric the way the FX70T die does; exact column indices are a
// documented approximation (see DESIGN.md) — the floorplanner only ever
// observes the device through this tile model.
func VirtexFX70T() *Device {
	const (
		width  = 41
		height = 8
	)
	colTypes := make([]TypeID, width)
	for c := range colTypes {
		colTypes[c] = V5CLB
	}
	for _, c := range [...]int{3, 13, 23, 33} {
		colTypes[c] = V5BRAM
	}
	for _, c := range [...]int{8, 28} {
		colTypes[c] = V5DSP
	}
	ppc := grid.Rect{X: 14, Y: 2, W: 4, H: 4}
	d, err := NewColumnar("xc5vfx70t", colTypes, height, V5Types(), []grid.Rect{ppc})
	if err != nil {
		panic("device: VirtexFX70T construction: " + err.Error())
	}
	return d
}

// Frames per tile type on 7-series devices: a CLB tile takes 36 frames, a
// BRAM or DSP tile 28.
const (
	V7CLBFrames  = 36
	V7BRAMFrames = 28
	V7DSPFrames  = 28
)

// V7Types returns 7-series tile types.
func V7Types() []TileType {
	return []TileType{
		{Name: "CLB", Class: ClassCLB, Frames: V7CLBFrames},
		{Name: "BRAM", Class: ClassBRAM, Frames: V7BRAMFrames},
		{Name: "DSP", Class: ClassDSP, Frames: V7DSPFrames},
	}
}

// Kintex7K160T returns a tile-level model of a Kintex-7 160T-class
// device — the "more recent devices are compliant with the columnar
// description" claim of Section III made concrete. The fabric is fully
// columnar (7-series hard blocks sit outside the CLB grid), larger than
// the FX70T, with a denser BRAM/DSP column mix:
//
//   - 12 tile rows (clock regions),
//   - 70 columns: BRAM every 8th column (8 total), DSP every 11th
//     (6 total), CLB elsewhere.
func Kintex7K160T() *Device {
	const (
		width  = 70
		height = 12
	)
	// V7Types orders CLB/BRAM/DSP exactly like V5Types, so the shared
	// V5CLB/V5BRAM/V5DSP ids index it correctly.
	colTypes := make([]TypeID, width)
	for c := range colTypes {
		switch {
		case c%11 == 5:
			colTypes[c] = V5DSP
		case c%8 == 3:
			colTypes[c] = V5BRAM
		default:
			colTypes[c] = V5CLB
		}
	}
	d, err := NewColumnar("xc7k160t", colTypes, height, V7Types(), nil)
	if err != nil {
		panic("device: Kintex7K160T construction: " + err.Error())
	}
	return d
}

// ByName returns a fresh model of the named run-time device: "fx70t"
// (also "virtex5", "xc5vfx70t") or "k160t" (also "kintex7", "xc7k160t"),
// case-insensitively.
func ByName(name string) (*Device, error) {
	switch strings.ToLower(name) {
	case "fx70t", "virtex5", "xc5vfx70t":
		return VirtexFX70T(), nil
	case "k160t", "kintex7", "xc7k160t":
		return Kintex7K160T(), nil
	default:
		return nil, fmt.Errorf("unknown device %q (want fx70t or k160t)", name)
	}
}

// Figure1Device returns the small two-type device of Figure 1, used to
// illustrate compatible (A, B) and non-compatible (A, C) areas. Columns
// alternate between the "blue" and "green" tile types.
func Figure1Device() *Device {
	types := []TileType{
		{Name: "blue", Class: ClassCLB, Frames: 4},
		{Name: "green", Class: ClassBRAM, Frames: 2},
	}
	colTypes := []TypeID{0, 0, 1, 0, 0, 1, 0, 1, 0, 0}
	d, err := NewColumnar("figure1", colTypes, 6, types, nil)
	if err != nil {
		panic("device: Figure1Device construction: " + err.Error())
	}
	return d
}

// Figure2Device returns a device in the spirit of Figure 2: a columnar
// fabric with two hard processors (gray blocks) that become forbidden
// areas f1 and f2 after the revised partitioning procedure.
func Figure2Device() *Device {
	types := []TileType{
		{Name: "blue", Class: ClassCLB, Frames: 4},
		{Name: "green", Class: ClassBRAM, Frames: 2},
		{Name: "orange", Class: ClassDSP, Frames: 3},
	}
	colTypes := []TypeID{0, 0, 1, 0, 2, 0, 0, 1, 0, 0, 0, 2}
	forbidden := []grid.Rect{
		{X: 1, Y: 1, W: 2, H: 2},
		{X: 8, Y: 4, W: 3, H: 2},
	}
	d, err := NewColumnar("figure2", colTypes, 7, types, forbidden)
	if err != nil {
		panic("device: Figure2Device construction: " + err.Error())
	}
	return d
}
