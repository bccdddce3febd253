// Package diag is the profiling and diagnostics layer: it closes the
// detect→diagnose loop that the SLO tracker (internal/slo) and the
// wide-event exporter (internal/telemetry) open.
//
// It has two cooperating parts:
//
//   - Attributed profiling (labels.go): goroutine pprof labels carrying
//     engine, phase, endpoint and request-digest prefix are threaded
//     through the obs span API, so every CPU-profile sample decomposes
//     by engine and fallback stage (`go tool pprof -tags` reads them).
//     LabelProbe wraps any obs.Probe and re-labels the running goroutine
//     as spans open and close; Do wraps a whole solve. Labeling is off
//     by default (SetLabeling) and costs nothing when off — see
//     BenchmarkProfileLabelOverhead. Routine per-engine/phase time needs
//     no profiler at all: the daemon sums recorded span durations into
//     floorpland_span_seconds_total.
//
//   - The Bundler (bundle.go): a rate-limited capture pipeline that, on
//     an anomaly trigger (SLO alert, budget overrun, panic or invalid
//     outcome, reconfig rollback) or on demand (GET /debug/bundle,
//     SIGUSR2, floorplanctl diag), snapshots a self-contained
//     bundle-<ts>.tar.gz: live labelled CPU profile, heap and goroutine
//     dumps, the host's artifacts (for the daemon: flight-ring JSON, SLO
//     and breaker state, metrics exposition) and build provenance, with
//     on-disk rotation.
package diag
