package milp_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/model"
	"repro/internal/sdr"
)

// nodesModel is the O-model of a generated two-region design on a 10x2
// device, the size class of the repository benchmark's MILP suite.
func nodesModel(tb testing.TB) *lp.Model {
	tb.Helper()
	d := device.MustGenerate(device.GeneratorConfig{Width: 10, Height: 2, BRAMEvery: 5, DSPEvery: 7, Seed: 13})
	p, err := sdr.Synthetic(sdr.GeneratorConfig{Regions: 2, Device: d, MaxCLB: 4, MaxBRAM: 1, MaxDSP: 1, ChainNets: true, Seed: 13})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := model.Build(p, model.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return c.LP
}

// solveNodes solves m sequentially n times and returns the nodes
// processed with the heap allocations made meanwhile.
func solveNodes(tb testing.TB, m *lp.Model, n int) (nodes int, mallocs, bytes uint64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		res := milp.Solve(context.Background(), m, milp.Options{Workers: 1})
		if res.Status != milp.StatusOptimal {
			tb.Fatalf("status %v", res.Status)
		}
		nodes += res.Nodes
	}
	runtime.ReadMemStats(&after)
	return nodes, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// BenchmarkMILPNodes solves nodesModel and reports the branch-and-bound
// work per solve next to the allocations per node (run with -benchmem).
func BenchmarkMILPNodes(b *testing.B) {
	m := nodesModel(b)
	b.ResetTimer()
	nodes, mallocs, bytes := solveNodes(b, m, b.N)
	b.StopTimer()
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(mallocs)/float64(nodes), "allocs/node")
	b.ReportMetric(float64(bytes)/float64(nodes), "B/node")
}

// TestNodeAllocationBudget holds a branch-and-bound node to a small heap
// budget on the BenchmarkMILPNodes instance: bounds are rebuilt from the
// node's trail, bases are recycled and the LP workspace is reused, so a
// node costs about one small struct (both children are allocated as one
// branch) plus the odd basis snapshot and queue growth.
func TestNodeAllocationBudget(t *testing.T) {
	const maxAllocs, maxBytes = 3, 512
	m := nodesModel(t)
	solveNodes(t, m, 1) // fill the workspace pool
	nodes, mallocs, bytes := solveNodes(t, m, 3)
	perNode, bytesPerNode := float64(mallocs)/float64(nodes), float64(bytes)/float64(nodes)
	t.Logf("%d nodes: %.2f allocs/node, %.0f B/node", nodes, perNode, bytesPerNode)
	if perNode > maxAllocs || bytesPerNode > maxBytes {
		t.Fatalf("%.2f allocs and %.0f B per node, want at most %d and %d", perNode, bytesPerNode, maxAllocs, maxBytes)
	}
}
