package telemetry

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flight"
)

// benchSink models a saturated disk: every write costs 1ms, far slower
// than the emit rate, so the queue fills and the exporter must drop.
type benchSink struct {
	writes atomic.Int64
}

func (s *benchSink) WriteEvent(*flight.Record) error {
	s.writes.Add(1)
	time.Sleep(time.Millisecond)
	return nil
}

// BenchmarkEventExport measures the hot-path cost a solve pays to emit
// one wide event. "baseline" is constructing the record without an
// exporter; the emit variants add the sampling decision and the
// non-blocking queue send. "saturated" runs against a sink three orders
// of magnitude slower than the emitters — per-emit cost must stay flat
// (drops, not blocking) for the backpressure contract to hold.
//
//	go test -run '^$' -bench BenchmarkEventExport -benchmem ./internal/telemetry
func BenchmarkEventExport(b *testing.B) {
	mk := func(i int) flight.Record {
		return flight.Record{
			Engine:     "exact",
			Outcome:    "proven",
			DurationMS: float64(10 + i%5),
			Kind:       "solve",
			Endpoint:   "/v1/solve",
			BudgetMS:   2000,
		}
	}

	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := mk(i)
			_ = ev
		}
	})

	b.Run("emit-sampled", func(b *testing.B) {
		e := New(Config{SampleRate: 0.1, Seed: 1})
		defer e.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emit(e, mk(i))
		}
	})

	b.Run("emit-keep-all", func(b *testing.B) {
		e := New(Config{SampleRate: 1, Seed: 1})
		defer e.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emit(e, mk(i))
		}
	})

	b.Run("emit-saturated-sink", func(b *testing.B) {
		sink := &benchSink{}
		e := New(Config{Sink: sink, SampleRate: 1, Seed: 1, QueueSize: 64})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emit(e, mk(i))
		}
		b.StopTimer()
		e.Close()
		// At benchmark pace a 1ms-per-write sink cannot keep up with any
		// non-trivial b.N: the queue must have shed load.
		if st := e.Stats(); b.N > 1000 && st.DroppedQueue == 0 {
			b.Fatalf("saturated sink produced no drops: %+v", st)
		}
	})
}
