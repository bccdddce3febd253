package exact

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sdr"
)

// multiRegionFCProblem ties one constraint-mode area to two regions
// (AlsoCompatible) and adds a metric-mode area for the first region, so
// the search exercises multi-region slot filtering and both FC modes.
func multiRegionFCProblem() *core.Problem {
	return &core.Problem{
		Device: multiDevice(),
		Regions: []core.Region{
			{Name: "A", Req: device.Requirements{device.ClassCLB: 2, device.ClassDSP: 1}},
			{Name: "B", Req: device.Requirements{device.ClassCLB: 2, device.ClassDSP: 1}},
			{Name: "C", Req: device.Requirements{device.ClassCLB: 3}},
		},
		Nets: []core.Net{{A: 0, B: 1, Weight: 1}, {A: 1, B: 2, Weight: 1}},
		FCAreas: []core.FCRequest{
			{Region: 0, AlsoCompatible: []int{1}, Mode: core.RelocConstraint},
			{Region: 0, Mode: core.RelocMetric, Weight: 1},
		},
		Objective: core.DefaultObjective(),
	}
}

// metricFCProblem is SDR2 with every free-compatible area in metric
// mode.
func metricFCProblem() *core.Problem {
	p := *sdr.SDR2()
	p.FCAreas = append([]core.FCRequest(nil), p.FCAreas...)
	for i := range p.FCAreas {
		p.FCAreas[i].Mode = core.RelocMetric
	}
	return &p
}

// TestParallelMatchesSequential verifies the parallel exact engine
// reaches the same lexicographic optimum as the sequential one, on the
// paper's designs and on designs with multi-region and metric-mode FC
// areas, whose slot tables each worker builds for itself.
func TestParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *core.Problem
	}{
		{"SDR", sdr.Problem()}, {"SDR2", sdr.SDR2()}, {"SDR3", sdr.SDR3()},
		{"multi-region FC", multiRegionFCProblem()}, {"metric FC", metricFCProblem()},
	} {
		seq, err := (&Engine{}).Solve(context.Background(), tc.p, core.SolveOptions{TimeLimit: 60 * time.Second})
		if err != nil {
			t.Fatalf("%s seq: %v", tc.name, err)
		}
		par, err := (&Engine{}).Solve(context.Background(), tc.p, core.SolveOptions{TimeLimit: 60 * time.Second, Workers: 4})
		if err != nil {
			t.Fatalf("%s par: %v", tc.name, err)
		}
		if err := par.Validate(tc.p); err != nil {
			t.Fatalf("%s par invalid: %v", tc.name, err)
		}
		ms, mp := seq.Metrics(tc.p), par.Metrics(tc.p)
		if !seq.Proven || !par.Proven {
			t.Fatalf("%s: proven seq=%v par=%v", tc.name, seq.Proven, par.Proven)
		}
		if ms.WastedFrames != mp.WastedFrames || ms.RelocationMiss != mp.RelocationMiss {
			t.Fatalf("%s: seq waste %d/miss %g, par waste %d/miss %g",
				tc.name, ms.WastedFrames, ms.RelocationMiss, mp.WastedFrames, mp.RelocationMiss)
		}
		if ms.WireLength != mp.WireLength {
			t.Fatalf("%s: seq wl %g != par wl %g", tc.name, ms.WireLength, mp.WireLength)
		}
	}
}

// TestParallelInfeasible: parallel workers agree on infeasibility.
func TestParallelInfeasible(t *testing.T) {
	base := sdr.Problem()
	p := base.WithFCConstraints([]int{base.RegionIndex(sdr.MatchedFilter)}, 1)
	_, err := (&Engine{}).Solve(context.Background(), p, core.SolveOptions{Workers: 4, TimeLimit: 60 * time.Second})
	if err != core.ErrInfeasible {
		t.Fatalf("err = %v, want infeasible", err)
	}
}
