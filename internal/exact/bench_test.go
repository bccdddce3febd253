package exact

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sdr"
)

// BenchmarkExactSearch times the DFS alone on SDR2: one untimed solve
// warms the device's candidate cache, so each timed solve is pure
// search. ns/node is the per-node cost the mask, bound and FC-slot work
// add up to.
func BenchmarkExactSearch(b *testing.B) {
	p := sdr.SDR2()
	opts := core.SolveOptions{Workers: 1, TimeLimit: time.Minute}
	if _, err := (&Engine{}).Solve(context.Background(), p, opts); err != nil {
		b.Fatal(err)
	}
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := (&Engine{}).Solve(context.Background(), p, opts)
		if err != nil {
			b.Fatal(err)
		}
		nodes += sol.Nodes
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
