package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/flight"
)

// collectSink records every exported record, optionally sleeping per
// write to model a slow disk.
type collectSink struct {
	mu     sync.Mutex
	delay  time.Duration
	events []flight.Record
	closed bool
}

func (s *collectSink) WriteEvent(rec *flight.Record) error {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, *rec)
	return nil
}

func (s *collectSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *collectSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

func (s *collectSink) all() []flight.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]flight.Record(nil), s.events...)
}

func solveEvent(outcome string, durMS float64) flight.Record {
	return flight.Record{Kind: "solve", Endpoint: "/v1/solve", Engine: "exact", Outcome: outcome, DurationMS: durMS}
}

// emit runs one record through the pipeline the way the daemon does:
// sample it, then export it.
func emit(e *Exporter, rec flight.Record) {
	e.Sample(&rec)
	e.Export(rec)
}

// TestExporterAlwaysKeepsRemarkableEvents pins the tail-sampling
// policy: errors, panics, invalid solutions and budget breaches survive
// even with a zero sample rate.
func TestExporterAlwaysKeepsRemarkableEvents(t *testing.T) {
	sink := &collectSink{}
	e := New(Config{Sink: sink, SampleRate: -1, Seed: 1})
	defer e.Close()

	emit(e, solveEvent("error", 5))
	emit(e, solveEvent("panic", 5))
	emit(e, solveEvent("invalid", 5))
	breach := solveEvent("solved", 2400)
	breach.BudgetMS = 2000
	breach.BudgetOverrunMS = 150
	emit(e, breach)
	quiet := solveEvent("solved", 5) // unremarkable: sampled out at rate<=0
	e.Sample(&quiet)
	if quiet.SampleReason != "" {
		t.Fatalf("unremarkable record kept with reason %q at rate -1", quiet.SampleReason)
	}
	e.Export(quiet)

	e.Sync()
	got := sink.all()
	if len(got) != 4 {
		t.Fatalf("sink holds %d events, want 4: %+v", len(got), got)
	}
	reasons := map[string]int{}
	for _, ev := range got {
		reasons[ev.SampleReason]++
	}
	if reasons["error"] != 3 || reasons["budget"] != 1 {
		t.Fatalf("sample reasons = %v, want 3 error + 1 budget", reasons)
	}
	st := e.Stats()
	if st.SampledOut != 1 {
		t.Fatalf("sampled_out = %d, want 1", st.SampledOut)
	}
}

// TestExporterKeepsSlowTail feeds a stable duration population and
// checks an outlier far past the p95 survives with reason "slow" while
// its ordinary siblings are sampled out.
func TestExporterKeepsSlowTail(t *testing.T) {
	sink := &collectSink{}
	e := New(Config{Sink: sink, SampleRate: -1, Seed: 1})
	defer e.Close()

	// Warm the estimator past slowMinObs and a recompute boundary.
	for i := 0; i < 64; i++ {
		emit(e, solveEvent("solved", 10+float64(i%5)))
	}
	emit(e, solveEvent("solved", 500)) // 35x the window's p95
	e.Sync()

	got := sink.all()
	if len(got) != 1 || got[0].SampleReason != "slow" || got[0].DurationMS != 500 {
		t.Fatalf("sink = %+v, want exactly the 500ms outlier kept as slow", got)
	}
}

// TestExporterProbabilisticRate checks the random gate keeps roughly
// SampleRate of unremarkable events and that rate 1 keeps all.
func TestExporterProbabilisticRate(t *testing.T) {
	e := New(Config{SampleRate: 1, Seed: 1})
	for i := 0; i < 50; i++ {
		emit(e, solveEvent("solved", 10))
	}
	e.Close()
	if st := e.Stats(); st.Kept != 50 || st.Exported != 50 {
		t.Fatalf("rate 1: stats %+v, want 50 kept+exported", st)
	}

	e = New(Config{SampleRate: 0.2, Seed: 42, QueueSize: 4096})
	const n = 2000
	for i := 0; i < n; i++ {
		emit(e, solveEvent("solved", 10))
	}
	e.Close()
	st := e.Stats()
	kept := st.Kept
	if kept < n/10 || kept > n/2 {
		t.Fatalf("rate 0.2 kept %d of %d, outside the plausible band", kept, n)
	}
	if st.SampledOut+kept != n {
		t.Fatalf("stats don't balance: %+v", st)
	}
}

// TestExporterNeverBlocksOnSlowSink is the backpressure contract: with
// a saturated sink, concurrent emitters finish promptly, events are
// dropped rather than queued unboundedly, and the counters balance
// exactly. Run under -race this also exercises the Export/drain
// locking.
func TestExporterNeverBlocksOnSlowSink(t *testing.T) {
	sink := &collectSink{delay: 2 * time.Millisecond}
	e := New(Config{Sink: sink, SampleRate: 1, Seed: 1, QueueSize: 8})

	const workers, perWorker = 8, 50
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				emit(e, solveEvent("error", float64(i))) // always kept: queue pressure guaranteed
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 400 events at 2ms each would take 800ms through the sink; the
	// emitters must not be paying that.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("emitters took %v; Emit is blocking on the sink", elapsed)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	total := int64(workers * perWorker)
	if st.Emitted != total {
		t.Fatalf("emitted %d, want %d", st.Emitted, total)
	}
	if st.Kept+st.DroppedQueue+st.SampledOut != total {
		t.Fatalf("counters don't balance: %+v", st)
	}
	if st.DroppedQueue == 0 {
		t.Fatalf("no drops despite a saturated sink: %+v", st)
	}
	if st.Exported != st.Kept {
		t.Fatalf("close did not drain: exported %d != kept %d", st.Exported, st.Kept)
	}
	if int64(sink.len()) != st.Exported {
		t.Fatalf("sink saw %d events, exporter counted %d", sink.len(), st.Exported)
	}
	if !sink.closed {
		t.Fatal("Close did not close the sink")
	}

	// Post-close exports are counted drops, not panics.
	emit(e, solveEvent("error", 1))
	if st := e.Stats(); st.DroppedQueue == 0 || st.Emitted != total+1 {
		t.Fatalf("post-close emit not counted as drop: %+v", st)
	}
}

// TestFileSinkRotation fills the sink past its byte budget and checks
// the JSONL rotation chain: live file fresh, .1 and .2 shifted, .3
// dropped, every surviving line valid JSON.
func TestFileSinkRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	sink, err := NewFileSink(path, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		ev := solveEvent("solved", float64(i))
		ev.Time = time.Unix(int64(i), 0)
		ev.RequestID = fmt.Sprintf("req-%03d", i)
		if err := sink.WriteEvent(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var lines int
	for _, name := range []string{path, path + ".1", path + ".2"} {
		f, err := os.Open(name)
		if err != nil {
			t.Fatalf("rotation chain missing %s: %v", name, err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var rec flight.Record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("%s holds a non-JSON line: %v", name, err)
			}
			lines++
		}
		f.Close()
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Fatalf("rotation kept more than 2 old files: %v", err)
	}
	if lines == 0 || lines > 40 {
		t.Fatalf("rotation chain holds %d lines, want 1..40", lines)
	}

	// Reopening appends: the live file keeps its contents.
	sink2, err := NewFileSink(path, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := solveEvent("solved", 1)
	if err := sink2.WriteEvent(&ev); err != nil {
		t.Fatal(err)
	}
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink2.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestExporterCloseIdempotent double-closes and emits concurrently with
// Close (race-detector fodder for the closeMu handshake).
func TestExporterCloseIdempotent(t *testing.T) {
	e := New(Config{SampleRate: 1, Seed: 1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				emit(e, solveEvent("solved", 1))
			}
		}()
	}
	wg.Add(2)
	go func() { defer wg.Done(); e.Close() }()
	go func() { defer wg.Done(); e.Close() }()
	wg.Wait()
	st := e.Stats()
	if st.Kept+st.SampledOut+st.DroppedQueue != st.Emitted {
		t.Fatalf("counters don't balance after racing close: %+v", st)
	}
}

// TestFileSinkLineGolden pins the exported JSON line — key set, key
// order and nested shapes — for a record with every field populated, so
// consumers of the -events file see a schema change only when one is
// made on purpose. The golden line predates the merge of the wide event
// into flight.Record and must not change with it.
func TestFileSinkLineGolden(t *testing.T) {
	obj := 4328.0
	rec := flight.Record{
		Seq:           7,
		Time:          time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC),
		RequestDigest: "d1g35t",
		LabelDigest:   "0123456789abcdef",
		Key:           "k3y",
		Engine:        "fallback",
		Outcome:       "solved",
		Objective:     &obj,
		DurationMS:    12.5,
		Cached:        true,
		OriginSeq:     3,
		Stages: []flight.Stage{
			{Engine: "exact", Outcome: "no_solution", ElapsedMS: 10, Err: "budget"},
			{Engine: "constructive", Outcome: "solved", ElapsedMS: 2.5},
		},
		Breakers: []flight.Breaker{{Engine: "exact", State: "closed", Trips: 1}},
		Session: &flight.SessionStats{
			SessionID: "s1", Events: 3, FragBefore: 0.25, FragAfter: 0.5,
			Defrags: 1, Moves: 2, Retries: 1, Rollbacks: 1, WALRecords: 3,
		},
		Err:             "partial",
		Kind:            "solve",
		Endpoint:        "/v1/solve",
		RequestID:       "req-1",
		BudgetMS:        2000,
		BudgetOverrunMS: 0.5,
		SampleReason:    "budget",
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	sink, err := NewFileSink(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteEvent(&rec); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "event.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("exported line changed.\ngot:  %s\nwant: %s", got, want)
	}
}
