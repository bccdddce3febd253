package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// planDigest fingerprints everything a daemon client sends.
func planDigest(t *testing.T, seed int64, c int) [32]byte {
	t.Helper()
	pl, err := planClient(seed, c, 50, problemPool()[c*poolSize:(c+1)*poolSize], false)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, b := range pl.batches {
		h.Write(b)
	}
	for _, b := range pl.bodies {
		h.Write(b)
	}
	fmt.Fprint(h, pl.draws)
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// offlineDigest fingerprints an offline op sequence: the order and the
// JSON of every op's freshly built Problem.
func offlineDigest(t *testing.T, suite []instance, seed int64) [32]byte {
	t.Helper()
	ops := setupOffline(suite, 2, seed)
	b, err := json.Marshal(struct {
		Order []int
		Probs any
	}{ops.order, ops.probs})
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

func TestOpSequencesRepeatForASeed(t *testing.T) {
	for c := 0; c < clients; c++ {
		if planDigest(t, 5, c) != planDigest(t, 5, c) {
			t.Errorf("client %d: two plans for seed 5 differ", c)
		}
		if planDigest(t, 5, c) == planDigest(t, 6, c) {
			t.Errorf("client %d: seeds 5 and 6 give the same plan", c)
		}
	}
	if clients > 1 && planDigest(t, 5, 0) == planDigest(t, 5, 1) {
		t.Error("the first two clients send the same requests")
	}
	suite := offlineSuite()
	if offlineDigest(t, suite, 5) != offlineDigest(t, suite, 5) {
		t.Error("offline: two op sequences for seed 5 differ")
	}
	if offlineDigest(t, suite, 5) == offlineDigest(t, suite, 6) {
		t.Error("offline: seeds 5 and 6 give the same op order")
	}
}

func TestPoolsAreDisjointAndFitTheCache(t *testing.T) {
	seen := map[string]bool{}
	for k, p := range problemPool() {
		b := solveBody(p, false)
		if seen[string(b)] {
			t.Fatalf("pool problem %d repeats an earlier one", k)
		}
		seen[string(b)] = true
	}
	if n := clients * poolSize; n >= 256 {
		t.Errorf("%d pool problems do not fit the daemon's 256-entry cache", n)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 989 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989, true", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Error("p99 of 999 samples has fewer than 10 beyond it but was accepted")
	}
	if _, ok := percentile(xs[:20], 0.5); ok != true {
		t.Error("median of 20 samples was refused")
	}
}

// TestReportedPercentilesHaveTenBeyond checks the sample counts every
// workload produces at the shortest and the configured run length.
func TestReportedPercentilesHaveTenBeyond(t *testing.T) {
	for _, seconds := range []int{1, benchmarkFile(t).RunSeconds} {
		ops := make([]float64, offlinePasses(seconds)*len(offlineSuite()))
		if _, ok := percentile(ops, 0.5); !ok {
			t.Errorf("offline, %d s: %d ops leave too few beyond the median", seconds, len(ops))
		}
		// daemon-mixed: one events and one solve request per client
		// iteration; p50 and p99 of each class.
		reqs := make([]float64, clients*daemonIters(seconds))
		for _, q := range []float64{0.5, 0.99} {
			if _, ok := percentile(reqs, q); !ok {
				t.Errorf("daemon-mixed, %d s: %d requests per class leave too few beyond p%v", seconds, len(reqs), q*100)
			}
		}
	}
}

func TestSuitesBuildAndHaveReferences(t *testing.T) {
	for _, inst := range offlineSuite() {
		if err := inst.build().Validate(); err != nil {
			t.Errorf("%s: %v", inst.name, err)
		}
		if _, ok := referenceObjectives[inst.name]; !ok {
			t.Errorf("%s has no reference objective; regenerate refs.go with -print-refs", inst.name)
		}
	}
}

type benchmarkJSON struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []struct{}   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func benchmarkFile(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := benchmarkFile(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\nprinted by perfbench:\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%+v\nprinted by perfbench:\n%+v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(bj.Workloads), len(workloads))
	}
	// Every printed metric is in the catalog, and every catalog metric
	// is printed.
	out := newOutcome()
	for _, s := range endToEnd {
		out.values[s.Name] = 1
	}
	for _, trace := range []bool{false, true} {
		res, err := buildResult(out, trace)
		if err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%v prints %d metrics, catalog has %d", trace, len(res.Metrics), len(want))
		}
		for _, s := range want {
			if m, ok := res.Metrics[s.Name]; !ok || m.Unit != s.Unit {
				t.Errorf("trace=%v: %s missing or with the wrong unit", trace, s.Name)
			}
		}
	}
}
