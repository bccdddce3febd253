package server

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/flight"
	"repro/internal/guard"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// populatedMetrics builds a metrics value exercising every family render
// path: flat counters, gauges, per-engine telemetry and histograms,
// candidate-cache counters, portfolio member stats, the wide-event
// pipeline counters, span seconds, and the SLO gauges.
func populatedMetrics() *metrics {
	m := newMetrics()
	m.requests.Add(3)
	m.solvesStarted.Add(2)
	m.solvesCompleted.Add(2)
	m.cacheHits.Add(1)
	m.cacheMisses.Add(2)
	m.candCacheStats = func() (int64, int64) { return 7, 5 }
	m.eventStats = func() telemetry.Stats {
		return telemetry.Stats{Emitted: 9, Kept: 6, SampledOut: 3, Exported: 5, DroppedQueue: 1}
	}
	m.sloStatus = func() []slo.Status {
		return []slo.Status{{
			Objective:            slo.Objective{Name: "solve-availability"},
			ErrorBudgetRemaining: 0.5,
			BurnRates: []slo.BurnRate{
				{Window: "5m", Burn: 0.7, Total: 12},
				{Window: "1h", Burn: 0.4, Total: 80},
			},
		}}
	}
	m.recordRace([]flight.Stage{{Engine: "exact", Outcome: "proven", ElapsedMS: 1000}}, "portfolio(exact)")
	m.breakerStats = func() []guard.BreakerSnapshot {
		return []guard.BreakerSnapshot{{Name: "exact", State: guard.BreakerOpen, Failures: 5, Trips: 1}}
	}
	m.addSpanSeconds("exact", 1500*time.Millisecond)
	m.addSpanSeconds("milp-ho/wire", 250*time.Millisecond)
	m.diagStats = func() diag.BundleStats {
		return diag.BundleStats{
			Captured:    map[string]int64{"panic": 1, "slo-alert": 2},
			Errors:      1,
			RateLimited: 3,
			Dropped:     1,
		}
	}
	m.observeLatency("exact", 42*time.Millisecond)
	m.observeLatency("annealing", 3*time.Millisecond)
	m.recordTelemetry("exact", 120, 0, 4)
	m.recordTelemetry("milp-ho", 15, 900, 2)
	m.recordIncumbentTimes("exact", 10*time.Millisecond, 35*time.Millisecond)
	return m
}

// TestMetricsExpositionLint validates the full /metrics output against
// the Prometheus text-format rules the renderer must uphold: every
// sample's family is declared with a HELP and a TYPE line before its
// first sample, no family is declared twice, and label sets are
// alphabetically sorted within each sample.
func TestMetricsExpositionLint(t *testing.T) {
	body := populatedMetrics().render()

	type family struct{ help, typ bool }
	declared := map[string]*family{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, ok := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if !ok || help == "" {
				t.Errorf("HELP line has no text: %q", line)
			}
			f := declared[name]
			if f == nil {
				f = &family{}
				declared[name] = f
			}
			if f.help {
				t.Errorf("family %s declared HELP twice", name)
			}
			f.help = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Errorf("TYPE line malformed: %q", line)
			}
			f := declared[name]
			if f == nil || !f.help {
				t.Errorf("family %s has TYPE before HELP", name)
				if f == nil {
					f = &family{}
					declared[name] = f
				}
			}
			if f.typ {
				t.Errorf("family %s declared TYPE twice", name)
			}
			f.typ = true
		case strings.HasPrefix(line, "#"), line == "":
			t.Errorf("unexpected comment/blank line: %q", line)
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			fam := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if base != name {
					if f, ok := declared[base]; ok && f.typ {
						fam = base
					}
					break
				}
			}
			if f, ok := declared[fam]; !ok || !f.help || !f.typ {
				t.Errorf("sample %q has no preceding HELP+TYPE for family %s", line, fam)
			}
			assertSortedLabels(t, line)
		}
	}
}

// assertSortedLabels checks the label names inside one sample line are
// alphabetically ordered.
func assertSortedLabels(t *testing.T, line string) {
	t.Helper()
	open := strings.IndexByte(line, '{')
	if open < 0 {
		return
	}
	close := strings.IndexByte(line, '}')
	if close < open {
		t.Errorf("unbalanced braces: %q", line)
		return
	}
	var names []string
	for _, pair := range strings.Split(line[open+1:close], ",") {
		name, _, ok := strings.Cut(pair, "=")
		if !ok {
			t.Errorf("malformed label pair %q in %q", pair, line)
			return
		}
		names = append(names, name)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("labels not sorted in %q: %v", line, names)
	}
}

// TestMetricsHistogramsWellFormed validates every rendered histogram
// series against the Prometheus histogram contract: bucket le bounds
// strictly ascending and cumulative, a terminal +Inf bucket whose count
// equals the series _count, and a _sum sample present for the series.
func TestMetricsHistogramsWellFormed(t *testing.T) {
	body := populatedMetrics().render()

	histFamilies := map[string]bool{}
	type hseries struct {
		les    []string
		counts []int64
		hasSum bool
		count  int64
		hasCnt bool
	}
	byKey := map[string]*hseries{} // family + non-le labels → series

	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			name, typ, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if typ == "histogram" {
				histFamilies[name] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		var fam, suffix string
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, sfx); base != name && histFamilies[base] {
				fam, suffix = base, sfx
				break
			}
		}
		if fam == "" {
			continue
		}
		labels, value := parseSample(t, line)
		le := labels["le"]
		delete(labels, "le")
		key := fam + "|" + fmt.Sprint(labels)
		sr := byKey[key]
		if sr == nil {
			sr = &hseries{}
			byKey[key] = sr
		}
		switch suffix {
		case "_bucket":
			sr.les = append(sr.les, le)
			sr.counts = append(sr.counts, int64(value))
		case "_sum":
			sr.hasSum = true
		case "_count":
			sr.hasCnt = true
			sr.count = int64(value)
		}
	}

	if len(byKey) == 0 {
		t.Fatal("no histogram series rendered")
	}
	for key, sr := range byKey {
		if !sr.hasSum {
			t.Errorf("%s: missing _sum sample", key)
		}
		if !sr.hasCnt {
			t.Errorf("%s: missing _count sample", key)
		}
		if len(sr.les) == 0 || sr.les[len(sr.les)-1] != "+Inf" {
			t.Errorf("%s: last bucket is %v, want +Inf", key, sr.les)
			continue
		}
		if sr.counts[len(sr.counts)-1] != sr.count {
			t.Errorf("%s: +Inf bucket %d != count %d", key, sr.counts[len(sr.counts)-1], sr.count)
		}
		prev := -1.0
		for i, le := range sr.les[:len(sr.les)-1] {
			ub, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Errorf("%s: unparseable le %q", key, le)
				continue
			}
			if ub <= prev {
				t.Errorf("%s: le bounds not strictly ascending at %q", key, le)
			}
			prev = ub
			if i > 0 && sr.counts[i] < sr.counts[i-1] {
				t.Errorf("%s: bucket counts not cumulative at le=%q (%d < %d)", key, le, sr.counts[i], sr.counts[i-1])
			}
		}
	}
}

// parseSample splits one exposition sample line into its label map and
// value.
func parseSample(t *testing.T, line string) (map[string]string, float64) {
	t.Helper()
	labels := map[string]string{}
	rest := line
	if open := strings.IndexByte(line, '{'); open >= 0 {
		close := strings.IndexByte(line, '}')
		if close < open {
			t.Fatalf("unbalanced braces: %q", line)
		}
		for _, pair := range strings.Split(line[open+1:close], ",") {
			name, val, ok := strings.Cut(pair, "=")
			if !ok {
				t.Fatalf("malformed label pair %q in %q", pair, line)
			}
			labels[name] = strings.Trim(val, `"`)
		}
		rest = line[close+1:]
	} else if i := strings.IndexByte(line, ' '); i >= 0 {
		rest = line[i:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("unparseable sample value in %q: %v", line, err)
	}
	return labels, v
}

// TestMetricsFamiliesGolden pins the exposition's family declarations
// (every HELP/TYPE pair, in order) against a golden file, so renaming or
// dropping a metric family is a deliberate, reviewed change. Values are
// excluded: only the schema is golden. Refresh with `go test
// ./internal/server -run Golden -update`.
func TestMetricsFamiliesGolden(t *testing.T) {
	body := populatedMetrics().render()
	var families strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fmt.Fprintln(&families, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	got := families.String()

	path := filepath.Join("testdata", "metrics_families.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (rerun with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric families changed.\ngot:\n%s\nwant:\n%s\n(rerun with -update if intended)", got, want)
	}
}
