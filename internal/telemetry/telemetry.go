// Package telemetry is the wide-event export layer: the daemon's flight
// records (flight.Record — one per solve, session event batch and
// session recovery) leave the process as one JSON line each, carrying
// the whole story — request ID, problem digest, engine, outcome,
// objective, duration, fallback stages, breaker and cache state, budget
// compliance and the flight sequence — so a single grep over the event
// log answers questions that would otherwise need joining three log
// streams. The exported line is the flight-ring record itself with its
// trace stripped; there is no second event schema and no second ring.
//
// Exporting must never slow a solve down. Sample makes the tail-sampling
// decision (always keep errors, panics, invalid solutions, budget
// breaches and the slowest tail; keep a configurable random fraction of
// the unremarkable rest) and Export hands a kept record to a bounded
// queue drained by one background goroutine. A full queue drops the
// record and counts the drop — backpressure never reaches the solve
// path. The drained records go to an optional Sink (production: the
// rotating JSONL FileSink).
package telemetry

import (
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flight"
)

// Sink receives exported records, one call per record, from the
// exporter's single drain goroutine (implementations need no internal
// locking against the exporter, only against their own concurrent
// users). The record is reused after WriteEvent returns, so a sink must
// copy what it keeps.
type Sink interface {
	WriteEvent(rec *flight.Record) error
}

// Stats are the exporter's monotonic counters. Emitted is every Sample
// call; each one ends in exactly one of Kept, SampledOut or — when the
// queue was full or the exporter closed — DroppedQueue. Exported counts
// records the drain goroutine has fully processed so far; SinkErrors
// counts failed sink writes.
type Stats struct {
	Emitted      int64 `json:"emitted"`
	Kept         int64 `json:"kept"`
	SampledOut   int64 `json:"sampled_out"`
	DroppedQueue int64 `json:"dropped_queue"`
	Exported     int64 `json:"exported"`
	SinkErrors   int64 `json:"sink_errors"`
}

// Config tunes an Exporter. The zero value is usable: no sink (kept
// records are counted and discarded), defaults elsewhere.
type Config struct {
	// Sink receives exported records; nil discards them after counting.
	// If the sink implements io.Closer it is closed by Exporter.Close.
	Sink Sink
	// QueueSize bounds the export queue (default 256). A full queue
	// drops records instead of blocking Export.
	QueueSize int
	// SampleRate is the keep probability for unremarkable events —
	// those that are not errors, budget breaches or slow-tail outliers
	// (default 0.1; 1 keeps everything, negative keeps none).
	SampleRate float64
	// Seed seeds the sampling RNG (0 uses the wall clock), so tests can
	// pin the probabilistic path.
	Seed int64
}

// Defaults for Config's zero values.
const (
	DefaultQueueSize  = 256
	DefaultSampleRate = 0.1
)

// slowWindow is how many recent durations the slow-tail estimator
// remembers; slowQuantile is the quantile above which an event is
// "slow" and always kept; slowRecompute is how often (in observations)
// the threshold is re-derived; slowMinObs is the observations required
// before the estimator trusts itself.
const (
	slowWindow    = 128
	slowQuantile  = 0.95
	slowRecompute = 16
	slowMinObs    = 16
)

// Exporter is the non-blocking wide-event pipeline. Safe for concurrent
// use.
type Exporter struct {
	sink  Sink
	queue chan flight.Record

	stats struct {
		emitted, kept, sampledOut, droppedQueue, exported, sinkErrors atomic.Int64
	}

	// closeMu serializes Emit's channel send against Close's close(),
	// so a late Emit cannot send on a closed channel.
	closeMu sync.RWMutex
	closed  bool
	done    chan struct{}

	// sampleMu guards the sampling state: the RNG, the slow-tail
	// duration window and the scratch array the threshold is sorted in.
	sampleMu   sync.Mutex
	rng        *rand.Rand
	sampleRate float64
	durs       [slowWindow]float64
	sorted     [slowWindow]float64
	nDurs      int // total durations ever observed
	slowThresh float64
}

// New builds an Exporter and starts its drain goroutine. Call Close to
// flush and stop it.
func New(cfg Config) *Exporter {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = DefaultSampleRate
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	e := &Exporter{
		sink:       cfg.Sink,
		queue:      make(chan flight.Record, cfg.QueueSize),
		done:       make(chan struct{}),
		rng:        rand.New(rand.NewSource(seed)),
		sampleRate: cfg.SampleRate,
	}
	go e.drain()
	return e
}

// Sample makes the tail-sampling decision for rec and stamps why it
// survived on rec.SampleReason; a record left with an empty reason was
// sampled out. Remarkable records — failures, budget breaches and the
// slowest tail — always survive; the rest survive with probability
// SampleRate. Sampling comes before the record is final, so the flight
// ring and the export carry the same reason.
func (e *Exporter) Sample(rec *flight.Record) {
	e.stats.emitted.Add(1)
	rec.SampleReason = e.sample(rec)
	if rec.SampleReason == "" {
		e.stats.sampledOut.Add(1)
	}
}

// Export hands a record Sample kept to the sink, without its trace, and
// returns immediately; records Sample rejected are ignored. The record
// is dropped (and counted) when the queue is full or after Close.
func (e *Exporter) Export(rec flight.Record) {
	if rec.SampleReason == "" {
		return
	}
	rec.Trace = nil // exported lines stay one line wide; traces live in the flight ring

	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		e.stats.droppedQueue.Add(1)
		return
	}
	select {
	case e.queue <- rec:
		e.stats.kept.Add(1)
	default:
		e.stats.droppedQueue.Add(1)
	}
}

// sample returns why rec survives tail sampling, or "" when it does not.
func (e *Exporter) sample(rec *flight.Record) string {
	switch {
	case rec.Outcome == "panic", rec.Outcome == "invalid", rec.Outcome == "error", rec.Err != "":
		e.observeDuration(rec.DurationMS)
		return "error"
	case rec.BudgetOverrunMS > 0:
		e.observeDuration(rec.DurationMS)
		return "budget"
	case rec.Cached:
		// Cache hits carry no fresh duration signal; they only face the
		// probabilistic gate.
	case e.observeDuration(rec.DurationMS):
		return "slow"
	}
	if e.draw() {
		return "random"
	}
	return ""
}

// draw is one probabilistic keep decision.
func (e *Exporter) draw() bool {
	if e.sampleRate >= 1 {
		return true
	}
	if e.sampleRate <= 0 {
		return false
	}
	e.sampleMu.Lock()
	defer e.sampleMu.Unlock()
	return e.rng.Float64() < e.sampleRate
}

// observeDuration folds d into the slow-tail window and reports whether
// d sits in the current slowest tail. The threshold is the windowed
// slowQuantile, re-derived every slowRecompute observations, trusted
// only after slowMinObs.
func (e *Exporter) observeDuration(d float64) bool {
	e.sampleMu.Lock()
	defer e.sampleMu.Unlock()
	e.durs[e.nDurs%slowWindow] = d
	e.nDurs++
	if e.nDurs%slowRecompute == 0 {
		n := min(e.nDurs, slowWindow)
		window := e.sorted[:n]
		copy(window, e.durs[:n])
		slices.Sort(window)
		e.slowThresh = window[int(slowQuantile*float64(n-1))]
	}
	// Strictly greater: with a population of tied durations the p95
	// equals the common value, and "slow" must mean slower than the
	// pack, not equal to it.
	return e.nDurs > slowMinObs && e.slowThresh > 0 && d > e.slowThresh
}

// drain is the single background consumer feeding the sink. One
// record variable serves every write, so handing its address to the
// sink costs no allocation per record.
func (e *Exporter) drain() {
	defer close(e.done)
	var rec flight.Record
	for rec = range e.queue {
		if e.sink != nil {
			if err := e.sink.WriteEvent(&rec); err != nil {
				e.stats.sinkErrors.Add(1)
			}
		}
		e.stats.exported.Add(1)
	}
	if c, ok := e.sink.(io.Closer); ok {
		c.Close()
	}
}

// Close stops intake, drains the queue to the sink, closes the sink if
// it is an io.Closer, and waits for the drain goroutine to finish.
// Export calls after Close are counted as drops. Idempotent.
func (e *Exporter) Close() error {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		<-e.done
		return nil
	}
	e.closed = true
	close(e.queue)
	e.closeMu.Unlock()
	<-e.done
	return nil
}

// Stats snapshots the exporter counters.
func (e *Exporter) Stats() Stats {
	return Stats{
		Emitted:      e.stats.emitted.Load(),
		Kept:         e.stats.kept.Load(),
		SampledOut:   e.stats.sampledOut.Load(),
		DroppedQueue: e.stats.droppedQueue.Load(),
		Exported:     e.stats.exported.Load(),
		SinkErrors:   e.stats.sinkErrors.Load(),
	}
}

// Sync blocks until every record enqueued before the call has been
// processed by the drain goroutine (test helper; bounded by the queue
// being finite).
func (e *Exporter) Sync() {
	for {
		s := e.Stats()
		if s.Exported >= s.Kept {
			return
		}
		select {
		case <-e.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}
