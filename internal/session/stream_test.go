package session

import (
	"testing"

	"repro/internal/device"
	"repro/internal/heuristic"
	"repro/internal/reconfig"
)

// TestSeededStreamInvariants replays a seeded GenerateWorkload stream on
// both device models, with and without injected faults, and checks the
// invariants of the online pipeline, one subtest per group:
//
//   - counts: the event, placement and fallback counters add up and
//     agree with the per-event results;
//   - no-loss: no corrupted frame, and every acknowledged module that
//     has not departed is still live;
//   - ranges: fragmentation and occupancy stay in [0, 1] and Seq
//     increases strictly;
//   - faults: fault counters stay 0 without a plan, and the plan
//     injects faults the pipeline retries;
//   - defrag: cycles are ordered, an executed cycle runs every planned
//     move with readback, and without faults it lowers fragmentation,
//     at least once to below the threshold.
func TestSeededStreamInvariants(t *testing.T) {
	const (
		events    = 250
		threshold = 0.55
	)
	for _, dev := range []*device.Device{device.VirtexFX70T(), device.Kintex7K160T()} {
		for _, faults := range []string{"off", "seed:7"} {
			t.Run(dev.Name()+"/"+faults, func(t *testing.T) {
				plan, err := reconfig.ParseFaultPlan(faults)
				if err != nil {
					t.Fatal(err)
				}
				m := newTestManager(t, Config{
					Device:         dev,
					Engine:         &heuristic.Constructive{},
					FragThreshold:  threshold,
					DefragCooldown: 6,
					Faults:         plan,
				})
				stream := GenerateWorkload(WorkloadConfig{Seed: 7, Events: events, Intensity: 0.6, Device: dev})
				results := make([]*EventResult, len(stream))
				// acked holds every module acknowledged as placed and not
				// yet departed.
				acked := map[string]bool{}
				for i, ev := range stream {
					res, err := m.Apply(ev)
					if err != nil {
						t.Fatalf("event %d (%s %q): %v", i+1, ev.Kind, ev.Name, err)
					}
					results[i] = res
					switch {
					case ev.Kind == Arrival && res.Placed:
						acked[ev.Name] = true
					case ev.Kind == Departure && !res.Rejected:
						delete(acked, ev.Name)
					}
				}
				snap := m.Snapshot()
				st, rc := snap.Stats, snap.Reconfig

				t.Run("counts", func(t *testing.T) {
					var arrivals, departures, placed, fallback, rejected int
					for _, res := range results {
						if res.Event.Kind == Departure {
							departures++
							continue
						}
						arrivals++
						if res.Placed {
							placed++
						}
						if res.Fallback {
							fallback++
						}
						if res.Rejected {
							rejected++
						}
					}
					if st.Events != events || st.Arrivals+st.Departures != st.Events {
						t.Errorf("arrivals %d + departures %d, events %d, want %d events",
							st.Arrivals, st.Departures, st.Events, events)
					}
					if st.Placed+st.Rejected > st.Arrivals {
						t.Errorf("placed %d + rejected %d exceed arrivals %d", st.Placed, st.Rejected, st.Arrivals)
					}
					if st.PlacedFallback > st.Placed {
						t.Errorf("placed_fallback %d exceeds placed %d", st.PlacedFallback, st.Placed)
					}
					got := [5]int{st.Arrivals, st.Departures, st.Placed, st.PlacedFallback, st.Rejected}
					if want := [5]int{arrivals, departures, placed, fallback, rejected}; got != want {
						t.Errorf("stats arrivals/departures/placed/fallback/rejected %v, per-event results %v", got, want)
					}
					if 2*st.Placed < st.Arrivals {
						t.Errorf("placements did not sustain: %d of %d arrivals", st.Placed, st.Arrivals)
					}
				})

				t.Run("no-loss", func(t *testing.T) {
					if st.CorruptedFrames != 0 {
						t.Errorf("%d corrupted frames", st.CorruptedFrames)
					}
					for _, res := range results {
						if d := res.Defrag; d != nil && d.Schedule != nil && d.Schedule.CorruptedFrames != 0 {
							t.Errorf("cycle at event %d corrupted %d frames", d.AtEvent, d.Schedule.CorruptedFrames)
						}
					}
					live := map[string]bool{}
					for _, mod := range snap.Live {
						live[mod.Name] = true
						if !acked[mod.Name] {
							t.Errorf("module %q is live but was never acknowledged or has departed", mod.Name)
						}
					}
					for name := range acked {
						if !live[name] {
							t.Errorf("lost task: %q was acknowledged, never departed, and is not live", name)
						}
					}
				})

				t.Run("ranges", func(t *testing.T) {
					inUnit := func(f float64) bool { return f >= 0 && f <= 1 } // false for NaN too
					for i, res := range results {
						if res.Seq != i+1 {
							t.Fatalf("event %d has Seq %d: sequence numbers must increase strictly", i+1, res.Seq)
						}
						if !inUnit(res.Fragmentation) || !inUnit(res.Occupancy) {
							t.Errorf("event %d: fragmentation %v, occupancy %v outside [0, 1]", res.Seq, res.Fragmentation, res.Occupancy)
						}
						if d := res.Defrag; d != nil && (!inUnit(d.FragBefore) || !inUnit(d.FragAfter)) {
							t.Errorf("cycle at event %d: fragmentation %v -> %v outside [0, 1]", d.AtEvent, d.FragBefore, d.FragAfter)
						}
					}
					if !inUnit(snap.Fragmentation) || !inUnit(snap.Occupancy) {
						t.Errorf("final fragmentation %v, occupancy %v outside [0, 1]", snap.Fragmentation, snap.Occupancy)
					}
					if rc.FramesWritten < 0 || rc.BusyTime < 0 {
						t.Errorf("negative port accounting: %d frames, %v busy", rc.FramesWritten, rc.BusyTime)
					}
				})

				t.Run("faults", func(t *testing.T) {
					if rc.FaultsInjected < 0 || rc.Retries < 0 || rc.CorruptionsRepaired < 0 || rc.Rollbacks < 0 {
						t.Errorf("negative fault accounting: %+v", rc)
					}
					if plan == nil {
						if rc.FaultsInjected != 0 || rc.Retries != 0 || rc.CorruptionsRepaired != 0 || rc.Rollbacks != 0 {
							t.Errorf("fault accounting without a fault plan: %+v", rc)
						}
						for _, res := range results {
							if d := res.Defrag; d != nil && d.Schedule != nil && (d.Schedule.Retries != 0 || d.Schedule.RolledBack != 0) {
								t.Errorf("cycle at event %d retried or rolled back without a fault plan: %+v", d.AtEvent, d.Schedule)
							}
						}
						return
					}
					if rc.FaultsInjected == 0 || rc.Retries == 0 {
						t.Errorf("plan %s injected %d faults and retried %d times, want both > 0", faults, rc.FaultsInjected, rc.Retries)
					}
				})

				t.Run("defrag", func(t *testing.T) {
					cycles, executed, moves, prev := 0, 0, 0, 0
					below := false
					for _, res := range results {
						d := res.Defrag
						if d == nil {
							continue
						}
						cycles++
						if d.AtEvent != res.Seq || d.AtEvent <= prev {
							t.Errorf("cycle at event %d reported by event %d after a cycle at %d", d.AtEvent, res.Seq, prev)
						}
						prev = d.AtEvent
						if s := d.Schedule; s != nil {
							moves += s.Executed
							if s.Executed < 0 || s.Executed > d.Planned {
								t.Errorf("cycle at event %d executed %d of %d planned moves", d.AtEvent, s.Executed, d.Planned)
							}
							if s.FramesWritten < 0 || s.BusyTime < 0 || s.FramesVerified < 0 || s.Retries < 0 || s.RolledBack < 0 {
								t.Errorf("cycle at event %d has negative accounting: %+v", d.AtEvent, s)
							}
						}
						if !d.Executed {
							continue
						}
						executed++
						if s := d.Schedule; s == nil || s.Executed != d.Planned || s.FramesVerified == 0 {
							t.Errorf("executed cycle at event %d: %d planned moves, schedule %+v", d.AtEvent, d.Planned, s)
						}
						if plan == nil && d.FragAfter >= d.FragBefore {
							t.Errorf("executed cycle at event %d did not lower fragmentation (%v -> %v)", d.AtEvent, d.FragBefore, d.FragAfter)
						}
						below = below || d.FragAfter < threshold
					}
					if cycles != st.DefragCycles || moves != st.DefragMoves {
						t.Errorf("results show %d cycles and %d moves, stats %d and %d", cycles, moves, st.DefragCycles, st.DefragMoves)
					}
					if executed == 0 {
						t.Fatal("no defragmentation cycle executed")
					}
					if plan == nil && !below {
						t.Errorf("no executed cycle pushed fragmentation below the %v threshold", threshold)
					}
				})
			})
		}
	}
}
