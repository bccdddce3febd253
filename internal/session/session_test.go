package session

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/grid"
	"repro/internal/heuristic"
	"repro/internal/reconfig"
)

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Device == nil {
		cfg.Device = device.VirtexFX70T()
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArrivalDepartureLifecycle(t *testing.T) {
	m := newTestManager(t, Config{FragThreshold: -1})

	res, err := m.Apply(Event{Kind: Arrival, Name: "a", Req: device.Requirements{device.ClassCLB: 6}, Mode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placed || res.Fallback || res.Rejected {
		t.Fatalf("arrival result = %+v", res)
	}
	if res.Rect.Empty() {
		t.Fatal("placed module has empty rect")
	}
	if res.Occupancy <= 0 {
		t.Fatalf("occupancy = %v", res.Occupancy)
	}

	// Duplicate live name is a malformed event.
	if _, err := m.Apply(Event{Kind: Arrival, Name: "a", Req: device.Requirements{device.ClassCLB: 2}}); err == nil {
		t.Fatal("duplicate arrival accepted")
	}

	res, err = m.Apply(Event{Kind: Departure, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected {
		t.Fatalf("departure result = %+v", res)
	}
	if got := m.Snapshot(); len(got.Live) != 0 || got.FreeTiles != m.cfg.Device.UsableTiles() {
		t.Fatalf("after departure: %+v", got)
	}

	// Departing a never-placed module is tolerated (rejected, not error).
	res, err = m.Apply(Event{Kind: Departure, Name: "ghost"})
	if err != nil || !res.Rejected {
		t.Fatalf("ghost departure = (%+v, %v)", res, err)
	}
}

func TestBestFitPrefersTightHoles(t *testing.T) {
	m := newTestManager(t, Config{FragThreshold: -1})
	// Wall off a snug 4x2 hole at (3,0)..(6,1) — everything left of it,
	// below it, and the column to its right is occupied — leaving the
	// rest of the device as one large free expanse. A tiny arrival
	// should land in the snug hole, not carve up the expanse.
	for i, r := range []grid.Rect{
		{X: 0, Y: 0, W: 3, H: 8}, // left wall
		{X: 3, Y: 2, W: 4, H: 6}, // floor under the hole
		{X: 7, Y: 0, W: 1, H: 8}, // right wall
	} {
		if err := m.free.Insert(r); err != nil {
			t.Fatalf("blocker %d: %v", i, err)
		}
	}
	res, err := m.Apply(Event{Kind: Arrival, Name: "tiny", Req: device.Requirements{device.ClassCLB: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placed {
		t.Fatalf("tiny not placed: %+v", res)
	}
	hole := grid.Rect{X: 3, Y: 0, W: 4, H: 2}
	if !hole.ContainsRect(res.Rect) {
		t.Fatalf("tiny placed at %v, want inside the snug hole %v", res.Rect, hole)
	}
}

// TestConcurrentIngestion hammers one session from several goroutines
// with disjoint module namespaces. Run under -race this checks the
// manager's serialization; the final snapshot must balance.
func TestConcurrentIngestion(t *testing.T) {
	m := newTestManager(t, Config{FragThreshold: -1})
	const workers = 4
	const rounds = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				res, err := m.Apply(Event{
					Kind: Arrival, Name: name,
					Req:  device.Requirements{device.ClassCLB: 2 + w},
					Mode: int64(w*1000 + i),
				})
				if err != nil {
					t.Errorf("worker %d arrival %d: %v", w, i, err)
					return
				}
				_ = m.Snapshot()
				if res.Placed {
					if _, err := m.Apply(Event{Kind: Departure, Name: name}); err != nil {
						t.Errorf("worker %d departure %d: %v", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	snap := m.Snapshot()
	if len(snap.Live) != 0 {
		t.Fatalf("live modules left: %+v", snap.Live)
	}
	if snap.FreeTiles != m.cfg.Device.UsableTiles() {
		t.Fatalf("free tiles = %d, want %d", snap.FreeTiles, m.cfg.Device.UsableTiles())
	}
	if snap.Stats.Events != workers*rounds+snap.Stats.Departures {
		t.Fatalf("event accounting off: %+v", snap.Stats)
	}
}

// TestCompactionPlanExecutable is the planner property test: for many
// random live layouts, every schedule the compaction planner emits must
// execute move-by-move on a fresh reconfig.Manager — each move onto
// currently-free tiles, never overlapping a live region.
func TestCompactionPlanExecutable(t *testing.T) {
	d := device.VirtexFX70T()
	rng := rand.New(rand.NewSource(99))

	for trial := 0; trial < 60; trial++ {
		m := newTestManager(t, Config{Device: d, FragThreshold: -1})
		// Random sparse layout via the session itself.
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			req := device.Requirements{device.ClassCLB: 2 + rng.Intn(10)}
			if rng.Intn(3) == 0 {
				req[device.ClassBRAM] = 1
			}
			_, err := m.Apply(Event{Kind: Arrival, Name: fmt.Sprintf("m%d", i), Req: req, Mode: int64(i)})
			if err != nil {
				t.Fatal(err)
			}
		}
		// Depart a random subset to shatter the free space.
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				if _, err := m.Apply(Event{Kind: Departure, Name: fmt.Sprintf("m%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
		}

		plans := map[string][]plannedMove{
			"compact-xy": m.planCompaction(lessXY),
			"compact-yx": m.planCompaction(lessYX),
			"repack":     m.planRepack(),
		}
		for variant, plan := range plans {
			if len(plan) == 0 {
				continue
			}
			// Replay on a fresh manager holding the same live layout.
			fresh := reconfig.NewDynamic(d, reconfig.DefaultFrameTime)
			idx := map[int]int{} // session region -> fresh region
			for ri, rect := range m.rcm.LiveAreas() {
				fi, err := fresh.AddRegion(fmt.Sprintf("r%d", ri), rect)
				if err != nil {
					t.Fatalf("trial %d %s: AddRegion: %v", trial, variant, err)
				}
				if err := fresh.Configure(fi, int64(ri), 0); err != nil {
					t.Fatalf("trial %d %s: Configure: %v", trial, variant, err)
				}
				idx[ri] = fi
			}
			moves := make([]reconfig.Move, 0, len(plan))
			for _, pm := range plan {
				slot, err := fresh.AddSlot(idx[pm.region], pm.target)
				if err != nil {
					t.Fatalf("trial %d %s: planner emitted unusable target %v: %v", trial, variant, pm.target, err)
				}
				moves = append(moves, reconfig.Move{Region: idx[pm.region], Slot: slot})
			}
			rep, err := fresh.ExecuteSchedule(moves)
			if err != nil {
				t.Fatalf("trial %d %s: schedule not executable: %v (after %d moves)", trial, variant, err, rep.Executed)
			}
			if rep.CorruptedFrames != 0 {
				t.Fatalf("trial %d %s: %d corrupted frames", trial, variant, rep.CorruptedFrames)
			}
		}
	}
}

func TestDefragTriggersAndImproves(t *testing.T) {
	// K160T: no forbidden blocks, so fragmentation starts at 0 and a
	// modest threshold is reachable again after compaction.
	m := newTestManager(t, Config{Device: device.Kintex7K160T(), FragThreshold: 0.3, DefragCooldown: 1})
	// Fill most of the device with sizeable modules, then remove every
	// other one: the free space becomes a comb of scattered holes.
	var placed []string
	for i := 0; i < 18; i++ {
		name := fmt.Sprintf("comb-%d", i)
		res, err := m.Apply(Event{Kind: Arrival, Name: name, Req: device.Requirements{device.ClassCLB: 40}, Mode: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Placed {
			placed = append(placed, name)
		}
	}
	sawDefrag := false
	for i := 0; i < len(placed); i += 2 {
		res, err := m.Apply(Event{Kind: Departure, Name: placed[i]})
		if err != nil {
			t.Fatal(err)
		}
		if res.Defrag != nil && res.Defrag.Executed {
			sawDefrag = true
			if res.Defrag.FragAfter >= res.Defrag.FragBefore {
				t.Fatalf("defrag did not improve: %+v", res.Defrag)
			}
			if res.Defrag.Schedule.CorruptedFrames != 0 {
				t.Fatalf("corrupted frames: %+v", res.Defrag.Schedule)
			}
		}
	}
	if !sawDefrag {
		// Force one more fragmenting event sequence; if the layout never
		// crossed the threshold this test's comb needs to be denser —
		// fail loudly so it gets fixed rather than silently passing.
		t.Fatalf("no defrag cycle executed; final frag = %v", m.Fragmentation())
	}
	if m.Stats().DefragCycles == 0 {
		t.Fatal("stats recorded no defrag cycles")
	}
}

func TestFallbackPlacement(t *testing.T) {
	m := newTestManager(t, Config{
		FragThreshold: -1,
		Engine:        &heuristic.Constructive{},
	})
	// Fill the device with medium modules until greedy placement fails,
	// then check the fallback either places or rejects cleanly.
	var lastRes *EventResult
	for i := 0; i < 40; i++ {
		res, err := m.Apply(Event{
			Kind: Arrival, Name: fmt.Sprintf("fill-%d", i),
			Req: device.Requirements{device.ClassCLB: 20}, Mode: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		lastRes = res
		if res.Fallback || res.Rejected {
			break
		}
	}
	if lastRes == nil || (!lastRes.Fallback && !lastRes.Rejected) {
		t.Fatalf("never exhausted greedy placement: %+v", m.Stats())
	}
	if lastRes.Fallback && !lastRes.Placed {
		t.Fatalf("fallback result inconsistent: %+v", lastRes)
	}
	// Whatever happened, the session must still be internally consistent.
	snap := m.Snapshot()
	occupied := 0
	for _, mod := range snap.Live {
		occupied += mod.Rect.Area()
	}
	if snap.FreeTiles != m.cfg.Device.UsableTiles()-occupied {
		t.Fatalf("free-space accounting off: %+v", snap)
	}
	if snap.Stats.CorruptedFrames != 0 {
		t.Fatalf("corrupted frames: %+v", snap.Stats)
	}
}

func TestGenerateWorkloadDeterministic(t *testing.T) {
	cfg := WorkloadConfig{Seed: 11, Events: 120, Intensity: 0.55}
	a := GenerateWorkload(cfg)
	b := GenerateWorkload(cfg)
	if len(a) != 120 || len(b) != 120 {
		t.Fatalf("lengths = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Name != b[i].Name || a[i].Mode != b[i].Mode {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	arrivals := 0
	for _, ev := range a {
		if ev.Kind == Arrival {
			arrivals++
		}
	}
	if arrivals == 0 || arrivals == len(a) {
		t.Fatalf("degenerate workload: %d arrivals of %d", arrivals, len(a))
	}
}

func TestWorkloadReplay(t *testing.T) {
	m := newTestManager(t, Config{FragThreshold: 0.45, DefragCooldown: 4})
	events := GenerateWorkload(WorkloadConfig{Seed: 3, Events: 150, Intensity: 0.6})
	for i, ev := range events {
		if _, err := m.Apply(ev); err != nil {
			t.Fatalf("event %d (%+v): %v", i, ev, err)
		}
	}
	st := m.Stats()
	if st.Placed == 0 {
		t.Fatal("replay placed nothing")
	}
	if st.CorruptedFrames != 0 {
		t.Fatalf("corrupted frames: %+v", st)
	}
}

// TestWorkloadDigestGolden pins a seeded replay's frame digest and
// configuration counters, with and without injected faults (the heavy
// mix exercises retries, readback repairs and schedule rollbacks). The
// values were captured from the map-backed configuration memory the
// dense plane replaced: representation changes must not move them.
func TestWorkloadDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		faults string
		digest uint32
		placed int
		want   reconfig.Stats
	}{
		{"off", 0xf06bae9e, 80, reconfig.Stats{Configurations: 80, Relocations: 43, FramesWritten: 48096}},
		{"seed:7", 0xf06bae9e, 80, reconfig.Stats{Configurations: 80, Relocations: 43, FramesWritten: 53066,
			FaultsInjected: 15, Retries: 15, CorruptionsRepaired: 10}},
		{"seed:5,pass:70,transient:10,corrupt:10,stuck:10", 0xabdf6cdb, 67, reconfig.Stats{Configurations: 67,
			Relocations: 43, FramesWritten: 50272, FaultsInjected: 101, Retries: 83, CorruptionsRepaired: 19, Rollbacks: 10}},
	} {
		t.Run(tc.faults, func(t *testing.T) {
			plan, err := reconfig.ParseFaultPlan(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			m := newTestManager(t, Config{FragThreshold: 0.45, DefragCooldown: 4, Faults: plan})
			for i, ev := range GenerateWorkload(WorkloadConfig{Seed: 3, Events: 150, Intensity: 0.6}) {
				if _, err := m.Apply(ev); err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
			}
			tc.want.BusyTime = time.Duration(tc.want.FramesWritten) * reconfig.DefaultFrameTime
			if got := m.FrameDigest(); got != tc.digest {
				t.Errorf("frame digest %#08x, want %#08x", got, tc.digest)
			}
			if got := m.ReconfigStats(); got != tc.want {
				t.Errorf("reconfig stats %+v, want %+v", got, tc.want)
			}
			if st := m.Stats(); st.Placed != tc.placed || st.CorruptedFrames != 0 {
				t.Errorf("placed %d corrupted %d, want %d and 0", st.Placed, st.CorruptedFrames, tc.placed)
			}
		})
	}
}

// BenchmarkSessionApply times Manager.Apply per event over a fixed
// seeded workload on FX70T. "memory" has no store, so the WAL is not
// timed; "durable" adds a store in a temporary directory at the default
// SnapshotEvery, so each event pays its WAL append and fsync and every
// 64th its snapshot. A fresh session starts, untimed, whenever the
// stream runs out.
func BenchmarkSessionApply(b *testing.B) {
	events := GenerateWorkload(WorkloadConfig{Seed: 1001, Events: 4000})
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		b.Run(name, func(b *testing.B) {
			var m *Manager
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(events) == 0 {
					b.StopTimer()
					cfg := Config{Device: device.VirtexFX70T(), Engine: &heuristic.Constructive{}, SolveBudget: 100 * time.Millisecond}
					if durable {
						store, err := OpenStore(b.TempDir())
						if err != nil {
							b.Fatal(err)
						}
						b.Cleanup(func() { store.Close() })
						cfg.Store = store
					}
					var err error
					if m, err = New(cfg); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := m.Apply(events[i%len(events)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
