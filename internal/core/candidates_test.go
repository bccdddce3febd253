package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/grid"
)

// bruteMinWaste finds the minimum waste over ALL legal rectangles (not
// only width-minimal ones) by complete enumeration.
func bruteMinWaste(d *device.Device, req device.Requirements) int {
	best := -1
	for x := 0; x < d.Width(); x++ {
		for y := 0; y < d.Height(); y++ {
			for w := 1; x+w <= d.Width(); w++ {
				for h := 1; y+h <= d.Height(); h++ {
					r := grid.Rect{X: x, Y: y, W: w, H: h}
					if !d.CanPlace(r) || !d.Satisfies(r, req) {
						continue
					}
					if waste := d.WastedFrames(r, req); best < 0 || waste < best {
						best = waste
					}
				}
			}
		}
	}
	return best
}

// TestQuickCandidatesReachBruteForceMinimum: the width-minimal candidate
// set always contains a rectangle achieving the global minimum waste —
// the losslessness property the exact engine relies on.
func TestQuickCandidatesReachBruteForceMinimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := device.MustGenerate(device.GeneratorConfig{
			Width: 6 + rng.Intn(8), Height: 2 + rng.Intn(4),
			BRAMEvery: 4, DSPEvery: 6,
			ForbiddenBlocks: rng.Intn(2),
			Seed:            seed,
		})
		req := device.Requirements{device.ClassCLB: 1 + rng.Intn(6)}
		if rng.Intn(2) == 0 {
			req[device.ClassBRAM] = 1 + rng.Intn(2)
		}
		want := bruteMinWaste(d, req)
		got := MinWaste(EnumerateCandidates(d, req))
		if got != want {
			t.Logf("seed %d: candidates min %d, brute force %d", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCandidatesAllLegal: every enumerated candidate is a legal,
// satisfying, width-minimal placement.
func TestQuickCandidatesAllLegal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := device.MustGenerate(device.GeneratorConfig{
			Width: 8 + rng.Intn(10), Height: 3 + rng.Intn(4),
			BRAMEvery: 5, DSPEvery: 7,
			ForbiddenBlocks: rng.Intn(3),
			Seed:            seed,
		})
		req := device.Requirements{device.ClassCLB: 2 + rng.Intn(8)}
		if rng.Intn(2) == 0 {
			req[device.ClassDSP] = 1
		}
		for _, c := range EnumerateCandidates(d, req) {
			if !d.CanPlace(c.Rect) || !d.Satisfies(c.Rect, req) {
				return false
			}
			if c.Rect.W > 1 {
				narrower := grid.Rect{X: c.Rect.X, Y: c.Rect.Y, W: c.Rect.W - 1, H: c.Rect.H}
				if d.Satisfies(narrower, req) {
					return false // not width-minimal for its anchor
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// oldWastedFrames is the waste formula candidates were scored with before
// the sweep took waste from its window counts: per-call maps of class
// tallies and per-class frames (the last tile type of a class wins).
func oldWastedFrames(d *device.Device, rect grid.Rect, rq device.Requirements) int {
	classFrames := map[device.Class]int{}
	for _, t := range d.Types() {
		classFrames[t.Class] = t.Frames
	}
	have := device.Requirements{}
	for id, n := range d.CountTiles(rect) {
		if n > 0 {
			have[d.ClassOf(device.TypeID(id))] += n
		}
	}
	waste := 0
	for cl, n := range have {
		if extra := n - rq[cl]; extra > 0 {
			waste += extra * classFrames[cl]
		}
	}
	return waste
}

// TestCandidateWasteMatchesOldFormula holds both enumerations' waste to
// the old formula, candidate by candidate, so the lists (sorted by waste)
// are unchanged. The two-CLB device gives one class two frame counts.
func TestCandidateWasteMatchesOldFormula(t *testing.T) {
	twoCLB, err := device.NewColumnar("two-clb",
		[]device.TypeID{0, 3, 0, 1, 3, 3, 2, 0, 3, 1, 0, 0},
		4,
		append(device.V5Types(), device.TileType{Name: "CLB2", Class: device.ClassCLB, Frames: 40, Config: 1}),
		[]grid.Rect{{X: 5, Y: 1, W: 2, H: 2}})
	if err != nil {
		t.Fatal(err)
	}
	devices := []struct {
		name string
		d    *device.Device
		all  bool // also check EnumerateAllCandidates
	}{
		{"fx70t", device.VirtexFX70T(), true},
		{"k160t", device.Kintex7K160T(), false},
		{"generated", device.MustGenerate(device.GeneratorConfig{
			Width: 24, Height: 5, BRAMEvery: 5, DSPEvery: 7, ForbiddenBlocks: 2, Seed: 3,
		}), true},
		{"two-clb", twoCLB, true},
	}
	reqs := []device.Requirements{
		{device.ClassCLB: 1},
		{device.ClassCLB: 7, device.ClassBRAM: 1},
		{device.ClassCLB: 12, device.ClassBRAM: 2, device.ClassDSP: 1},
		{device.ClassDSP: 2, device.ClassBRAM: 0},
		{device.ClassCLB: 3, device.ClassIO: 0},
	}
	for _, tc := range devices {
		checked := 0
		for _, req := range reqs {
			lists := [][]Candidate{EnumerateCandidates(tc.d, req)}
			if tc.all {
				lists = append(lists, EnumerateAllCandidates(tc.d, req))
			}
			for _, cands := range lists {
				for _, c := range cands {
					if want := oldWastedFrames(tc.d, c.Rect, req); c.Waste != want {
						t.Fatalf("%s %v: candidate %v waste %d, old formula %d", tc.name, req, c.Rect, c.Waste, want)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no candidates checked", tc.name)
		}
	}
}
