package milp_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/milp"
	"repro/internal/model"
	"repro/internal/sdr"
)

// BenchmarkMILPNodes solves the O-model of a generated two-region design
// on a 10x2 device, the size class of the repository benchmark's MILP
// suite, and reports the branch-and-bound work per solve next to the
// allocations per node (run with -benchmem).
func BenchmarkMILPNodes(b *testing.B) {
	d := device.MustGenerate(device.GeneratorConfig{Width: 10, Height: 2, BRAMEvery: 5, DSPEvery: 7, Seed: 13})
	p, err := sdr.Synthetic(sdr.GeneratorConfig{Regions: 2, Device: d, MaxCLB: 4, MaxBRAM: 1, MaxDSP: 1, ChainNets: true, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	c, err := model.Build(p, model.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	nodes := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := milp.Solve(context.Background(), c.LP, milp.Options{Workers: 1})
		if res.Status != milp.StatusOptimal {
			b.Fatalf("status %v", res.Status)
		}
		nodes += res.Nodes
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(nodes), "allocs/node")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(nodes), "B/node")
}
