// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the floorplanner facade or an in-process daemon,
// checks every output, and prints one JSON result line:
//
//	perfbench --workload offline --seed 1 --seconds 40 --trace 0
//
// Workloads: offline and daemon-mixed (see workloads in
// this file and NOTES.md). With --trace 0 the result holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics, taken by timing
// the calls into each layer's public functions from this package.
//
// Every run executes a fixed op sequence generated from --seed; --seconds
// sizes that sequence (a whole number of suite passes or client loop
// iterations) and never cuts it short.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// processStart anchors the first set-up measurement at process start.
var processStart = time.Now()

// metricSpec declares one reported metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics every workload reports with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"solve_ms_sgm", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.1},
}

// perLayer lists the metrics every workload reports with --trace 1. A
// layer a workload leaves idle reports 0.
var perLayer = []metricSpec{
	// Offline facade path (offline).
	{"core.enum_ms", "ms", "lower", 0},
	{"core.candidates", "count", "lower", 0},
	{"exact.search_ms", "ms", "lower", 0},
	{"exact.nodes", "count", "lower", 0},
	{"exact.us_per_node", "us", "lower", 0},
	{"guard.validate_ms", "ms", "lower", 0},
	{"guard.digest_ms", "ms", "lower", 0},
	{"facade.self_ms", "ms", "lower", 0},
	// MILP path (offline).
	{"heuristic.seed_ms", "ms", "lower", 0},
	{"model.build_ms", "ms", "lower", 0},
	{"model.rows", "count", "lower", 0},
	{"model.cols", "count", "lower", 0},
	{"lp.presolve_ms", "ms", "lower", 0},
	{"lp.root_ms", "ms", "lower", 0},
	{"lp.root_iters", "count", "lower", 0},
	{"lp.pivots", "count", "lower", 0},
	{"milp.bnb_ms", "ms", "lower", 0},
	{"milp.nodes", "count", "lower", 0},
	{"milp.ms_per_node", "ms", "lower", 0},
	{"model.stage_ms", "ms", "lower", 0},
	// One-shot milp-ho on SDR2 at its 2 s budget (offline).
	{"ho_sdr2.seed_ms", "ms", "lower", 0},
	{"ho_sdr2.build_ms", "ms", "lower", 0},
	{"ho_sdr2.waste_ms", "ms", "lower", 0},
	{"ho_sdr2.wire_ms", "ms", "lower", 0},
	{"ho_sdr2.nodes", "count", "higher", 0},
	{"ho_sdr2.incumbents", "count", "higher", 0},
	{"ho_sdr2.improvement", "ratio", "higher", 0},
	// Client view: median op of every workload, daemon tails.
	{"client.solve_ms_p50", "ms", "lower", 0},
	{"client.solve_ms_p99", "ms", "lower", 0},
	{"client.event_ms_p50", "ms", "lower", 0},
	{"client.event_ms_p99", "ms", "lower", 0},
	// Daemon server path (daemon-mixed).
	{"server.decode_ms", "ms", "lower", 0},
	{"server.encode_ms", "ms", "lower", 0},
	{"core.validate_problem_ms", "ms", "lower", 0},
	{"server.self_ms.solve_hit", "ms", "lower", 0},
	{"server.self_ms.solve_miss", "ms", "lower", 0},
	{"server.self_ms.event", "ms", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.queue_rejected", "count", "lower", 0},
	{"server.scrape_ms", "ms", "lower", 0},
	// Session path (daemon-mixed).
	{"session.apply_ms.greedy", "ms", "lower", 0},
	{"session.apply_ms.fallback", "ms", "lower", 0},
	{"session.apply_ms.rejected", "ms", "lower", 0},
	{"session.apply_ms.defrag", "ms", "lower", 0},
	{"session.apply_ms.departure", "ms", "lower", 0},
	{"session.count.greedy", "count", "higher", 0},
	{"session.count.fallback", "count", "higher", 0},
	{"session.count.rejected", "count", "lower", 0},
	{"session.count.defrag", "count", "lower", 0},
	{"session.count.departure", "count", "higher", 0},
	{"session.budget_burn_events", "count", "lower", 0},
	{"session.wal_ms_per_event", "ms", "lower", 0},
	{"session.freespace_ms", "ms", "lower", 0},
	{"session.mer_count", "count", "lower", 0},
	{"session.defrag_cycles", "count", "lower", 0},
	{"session.defrag_moves", "count", "lower", 0},
	{"session.placement_ratio", "ratio", "higher", 0},
	{"session.frag_mean", "ratio", "lower", 0},
	{"reconfig.frames_written", "count", "lower", 0},
	{"reconfig.busy_ms", "ms", "lower", 0},
	{"reconfig.ms_per_event", "ms", "lower", 0},
	// Whole process (all workloads).
	{"heap_peak_mb", "MB", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// runConfig carries the command-line settings of one run.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	workdir string // directory for session state and replays
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted int
	failed    int
	problems  []string // output-check failures, for the error report
	values    map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail records a failed op with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"offline":      runOffline,
	"daemon-mixed": runDaemonMixed,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the catalog the run reports. An end-to-end metric
// missing from the outcome is a benchmark bug; an idle layer reports 0.
func buildResult(out *outcome, trace bool) (*result, error) {
	res := &result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := out.values[s.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload: offline or daemon-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated op sequence")
	seconds := flag.Int("seconds", 15, "nominal run length; sizes the fixed op sequence")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	printRefs := flag.Bool("print-refs", false, "solve every offline suite instance once and print refs.go")
	flag.Parse()
	if *printRefs {
		if err := writeRefs(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// Session directories and replays live under the checkout's build
	// directory; run.sh starts the benchmark from the checkout root.
	const workdir = ".bench_build/tmp"
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: workdir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := buildResult(out, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printTable(os.Stderr, *name, res)
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printTable writes the metrics as a readable table.
func printTable(w *os.File, name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", k, m.Value, m.Unit)
	}
}
