package exact

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sdr"
)

// BenchmarkExactSearch times the DFS alone on the paper's three instances
// and on the six-region generated FX70T design: one untimed solve warms
// the device's candidate cache, so each timed solve is pure search.
// ns/node is the per-node cost the mask, bounds and FC-slot work add up
// to; nodes/op is the search size the bounds leave.
func BenchmarkExactSearch(b *testing.B) {
	fx70t6, err := sdr.Synthetic(sdr.GeneratorConfig{
		Regions: 6, MaxCLB: 12, MaxBRAM: 2, MaxDSP: 1, ChainNets: true, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		p    *core.Problem
	}{
		{"sdr", sdr.Problem()},
		{"sdr2", sdr.SDR2()},
		{"sdr3", sdr.SDR3()},
		{"fx70t-6", fx70t6},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := core.SolveOptions{Workers: 1, TimeLimit: time.Minute}
			if _, err := (&Engine{}).Solve(context.Background(), bc.p, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			nodes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := (&Engine{}).Solve(context.Background(), bc.p, opts)
				if err != nil {
					b.Fatal(err)
				}
				nodes += sol.Nodes
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
