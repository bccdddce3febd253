package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sdr"
	"repro/internal/server"
	"repro/internal/session"
)

// instance is one member of an offline suite. build returns a freshly
// constructed Problem on its own Device, so every op starts with a cold
// candidate cache, as a CLI call does.
type instance struct {
	name   string
	engine string
	build  func() *core.Problem
}

// suiteSeed fixes the generated members of every suite. The suites do
// not change with --seed: runs with different seeds measure the same
// instances, in a different order (see NOTES.md).
const suiteSeed = 7100

// offlineSuite is the instance set of the offline workload: the exact
// suite followed by the MILP suite.
func offlineSuite() []instance { return append(exactSuite(), milpSuite()...) }

// exactSynthetic indexes the synthetic designs of the exact suite.
// Design i has 3+i%4 chained regions and FC variant i%3. Of the first 24,
// designs 7, 11, 14, 19 and 23 (five of the six 5-6 region designs with
// an FC request) are left out: exact takes 0.9-7.4 s on each of them,
// which would be most of a suite pass.
var exactSynthetic = []int{0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 15, 16, 17, 18, 20, 21, 22}

// exactSuite is the offline workload's exact instance set: the paper's
// SDR, SDR2 and SDR3 plus synthetic FX70T designs of 3-6 chained regions,
// a third
// each with no free-compatible (FC) request, one constraint-mode FC area
// and one metric-mode FC area.
func exactSuite() []instance {
	out := []instance{
		{name: "sdr", engine: "exact", build: sdr.Problem},
		{name: "sdr2", engine: "exact", build: sdr.SDR2},
		{name: "sdr3", engine: "exact", build: sdr.SDR3},
	}
	for _, i := range exactSynthetic {
		regions, gen, fc := 3+i%4, int64(suiteSeed+i), i%3
		out = append(out, instance{
			name:   fmt.Sprintf("syn%02d-r%d-%s", i, regions, [...]string{"nofc", "fcc", "fcm"}[fc]),
			engine: "exact",
			build: func() *core.Problem {
				p, err := sdr.Synthetic(sdr.GeneratorConfig{
					Regions: regions, MaxCLB: 30, MaxBRAM: 3, MaxDSP: 3, ChainNets: true, Seed: gen,
				})
				if err != nil {
					panic(err) // static configuration, covered by the tests
				}
				return withFC(p, fc)
			},
		})
	}
	return out
}

// withFC adds the suite's FC variant: 0 none, 1 one constraint-mode area
// for region 0, 2 one metric-mode area for region 1.
func withFC(p *core.Problem, fc int) *core.Problem {
	switch fc {
	case 1:
		return p.WithFCConstraints([]int{0}, 1)
	case 2:
		p.FCAreas = append(p.FCAreas, core.FCRequest{Region: 1, Mode: core.RelocMetric, Weight: 1})
	}
	return p
}

// The offline MILP designs are tiny 10x2 devices with BRAM and DSP
// columns carrying two chained regions, one design per generator seed.
// Of generator seeds 1-40, these are the ones on which the engine proves
// optimality within 0.5 s on a 2-core x86 host; for milp-ho, also with a
// metric-mode FC area that can be placed. (On seven of the other seeds
// milp-ho spends 2.7-20 s on a metric FC area it cannot place.)
var (
	milpOSeeds  = []int64{5, 13, 14, 26, 28, 31}
	milpHOSeeds = []int64{4, 8, 14, 18, 21, 24, 34, 39}
)

// tinyDesign builds the offline MILP design of generator seed s.
func tinyDesign(s int64) *core.Problem {
	d := device.MustGenerate(device.GeneratorConfig{Width: 10, Height: 2, BRAMEvery: 5, DSPEvery: 7, Seed: s})
	p, err := sdr.Synthetic(sdr.GeneratorConfig{Regions: 2, Device: d, MaxCLB: 4, MaxBRAM: 1, MaxDSP: 1, ChainNets: true, Seed: s})
	if err != nil {
		panic(err) // static configuration, covered by the tests
	}
	return p
}

// milpSuite is the offline workload's MILP instance set: milp-o on FC-free designs
// and milp-ho on designs with one metric-mode FC area.
func milpSuite() []instance {
	var out []instance
	for _, s := range milpOSeeds {
		s := s
		out = append(out, instance{name: fmt.Sprintf("tiny%02d-o", s), engine: "milp-o", build: func() *core.Problem {
			return tinyDesign(s)
		}})
	}
	for _, s := range milpHOSeeds {
		s := s
		out = append(out, instance{name: fmt.Sprintf("tiny%02d-ho", s), engine: "milp-ho", build: func() *core.Problem {
			p := tinyDesign(s)
			p.FCAreas = []core.FCRequest{{Region: 0, Mode: core.RelocMetric, Weight: 1}}
			return p
		}})
	}
	return out
}

// opOrder returns passes copies of the suite's indices, each pass in its
// own seeded order.
func opOrder(n, passes int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n*passes)
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(n) {
			out = append(out, i)
		}
	}
	return out
}

// Daemon workload shape.
const (
	// clients is the number of closed-loop clients. One client keeps one
	// request in flight, so the daemon and its client need about one core
	// between them: two clients on the 2-core reference host lost 39% of
	// their throughput when a busy loop took one core, one client lost
	// nothing measurable (see NOTES.md).
	clients = 1
	// poolSize is each client's number of distinct solve problems; the
	// disjoint pools together stay under the daemon's 256-entry solution
	// cache, so every problem misses exactly once.
	poolSize = 120
	// batchEvents is the number of session events per events request.
	batchEvents = 1
	// scrapeEvery is the number of loop iterations between /metrics
	// scrapes by one client.
	scrapeEvery = 50
	// sessionBudgetMS bounds each session's fallback floorplanner solve,
	// so an arrival that exhausts it costs at most this much.
	sessionBudgetMS = 100
)

// createSessionBody is the POST /v1/sessions body every client sends.
func createSessionBody() []byte {
	b, err := json.Marshal(server.CreateSessionRequest{
		Device: "fx70t", Engine: "constructive", SolveBudgetMS: sessionBudgetMS,
	})
	if err != nil {
		panic(err)
	}
	return b
}

// problemPool builds the fixed daemon problem pool: distinct small FX70T
// designs of 2-3 chained regions. Client c owns problems
// [c*poolSize, (c+1)*poolSize).
func problemPool() []*core.Problem {
	rng := rand.New(rand.NewSource(suiteSeed * 10))
	seen := map[string]bool{}
	var out []*core.Problem
	for len(out) < clients*poolSize {
		p := &core.Problem{Device: device.VirtexFX70T(), Objective: core.DefaultObjective()}
		n := 2 + rng.Intn(2)
		for i := 0; i < n; i++ {
			req := device.Requirements{device.ClassCLB: 2 + rng.Intn(12)}
			if rng.Intn(3) == 0 {
				req[device.ClassBRAM] = 1
			}
			if rng.Intn(3) == 0 {
				req[device.ClassDSP] = 1
			}
			p.Regions = append(p.Regions, core.Region{Name: fmt.Sprintf("m%d", i), Req: req})
			if i > 0 {
				p.Nets = append(p.Nets, core.Net{A: i - 1, B: i, Weight: 32})
			}
		}
		if key := fmt.Sprint(p.Regions); !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

// solveBody encodes a POST /v1/solve body. Workers 1 keeps the search
// path, and so the node count, the same on every run.
// traced asks the daemon to record and return the engine trace.
func solveBody(p *core.Problem, traced bool) []byte {
	b, err := json.Marshal(server.SolveRequest{Problem: p, Engine: "exact", Workers: 1, TimeLimitMS: 60000, Trace: traced})
	if err != nil {
		panic(err)
	}
	return b
}

// clientPlan is everything one daemon client sends, generated from the
// run seed before any timed op.
type clientPlan struct {
	stream  []session.Event // the session's event stream
	batches [][]byte        // events request bodies, in order
	pool    []*core.Problem // distinct solve problems
	bodies  [][]byte        // solve bodies, aligned with pool
	draws   []int           // pool index of each solve request
}

// streamSeed and drawSeed derive client c's generator seeds from the
// run seed.
func streamSeed(seed int64, c int) int64 { return seed*1000 + int64(c) + 1 }
func drawSeed(seed int64, c int) int64   { return seed*1000 + int64(c) + 501 }

// planClient generates client c's op sequence for iters loop iterations
// over its share of the problem pool.
func planClient(seed int64, c, iters int, pool []*core.Problem, traced bool) (*clientPlan, error) {
	pl := &clientPlan{
		stream: session.GenerateWorkload(session.WorkloadConfig{
			Seed: streamSeed(seed, c), Events: iters * batchEvents,
		}),
	}
	for i := 0; i < len(pl.stream); i += batchEvents {
		b, err := json.Marshal(server.SessionEventsRequest{Events: pl.stream[i : i+batchEvents]})
		if err != nil {
			return nil, fmt.Errorf("encoding events batch: %w", err)
		}
		pl.batches = append(pl.batches, b)
	}
	pl.pool = pool
	for _, p := range pl.pool {
		pl.bodies = append(pl.bodies, solveBody(p, traced))
	}
	// Skewed draws: a few problems are asked for often, most rarely.
	rng := rand.New(rand.NewSource(drawSeed(seed, c)))
	zipf := rand.NewZipf(rng, 1.1, 2, poolSize-1)
	pl.draws = make([]int, iters)
	for i := range pl.draws {
		pl.draws[i] = int(zipf.Uint64())
	}
	return pl, nil
}
