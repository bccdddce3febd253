package diag

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestJoinDigest(t *testing.T) {
	a := LabelSet{Engine: "exact", Endpoint: "/v1/solve", Digest: "abc", RequestID: "r1"}
	if a.JoinDigest() != a.JoinDigest() {
		t.Fatal("JoinDigest not deterministic")
	}
	if len(a.JoinDigest()) != 16 {
		t.Fatalf("JoinDigest length %d, want 16", len(a.JoinDigest()))
	}
	b := a
	b.RequestID = "r2"
	if a.JoinDigest() == b.JoinDigest() {
		t.Fatal("distinct requests share a join digest")
	}
	// Phase is deliberately excluded: one solve spans many phases.
	c := a
	c.Phase = "wire"
	if a.JoinDigest() != c.JoinDigest() {
		t.Fatal("phase changed the join digest")
	}
	// Field boundaries matter (NUL separation): ("ab","c") != ("a","bc").
	d := LabelSet{Engine: "ab", Endpoint: "c"}
	e := LabelSet{Engine: "a", Endpoint: "bc"}
	if d.JoinDigest() == e.JoinDigest() {
		t.Fatal("field boundary collision")
	}
}

func TestPairsSkipsEmptyAndTruncatesDigest(t *testing.T) {
	ls := LabelSet{Engine: "exact", Digest: "0123456789abcdef"}
	pairs := ls.pairs()
	m := map[string]string{}
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i]] = pairs[i+1]
	}
	if m[LabelEngine] != "exact" {
		t.Fatalf("pairs %v", pairs)
	}
	if m[LabelDigest] != "01234567" {
		t.Fatalf("digest not truncated to prefix: %q", m[LabelDigest])
	}
	if _, ok := m[LabelEndpoint]; ok {
		t.Fatal("empty endpoint emitted")
	}
	if m[LabelJoin] != ls.JoinDigest() {
		t.Fatal("join digest missing from pairs")
	}
}

func TestDoDisabledIsPassthrough(t *testing.T) {
	prev := LabelingEnabled()
	defer SetLabeling(prev)
	SetLabeling(false)

	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	ran := false
	Do(ctx, LabelSet{Engine: "exact"}, func(got context.Context) {
		ran = true
		if got != ctx {
			t.Error("context was rewrapped with labeling off")
		}
	})
	if !ran {
		t.Fatal("fn not called")
	}
}

func TestLabelProbeUnboundIsTransparent(t *testing.T) {
	prev := LabelingEnabled()
	defer SetLabeling(prev)
	SetLabeling(true)

	p := NewLabelProbe(nil)
	sp := p.Span("exact") // unbound: must not relabel or wrap
	if _, ok := sp.(*labelSpan); ok {
		t.Fatal("unbound probe wrapped the span")
	}
	sp.End(obs.OutcomeSolved, 0)
}

// TestProfileCarriesEngineLabels is the end-to-end label check: work
// spun under Do + a LabelProbe span shows up in a captured CPU profile
// with the engine/phase goroutine labels attached.
func TestProfileCarriesEngineLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling integration test")
	}
	prev := LabelingEnabled()
	defer SetLabeling(prev)
	SetLabeling(true)

	const window = 400 * time.Millisecond
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Dominate the profile window with labeled spinners.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe := NewLabelProbe(obs.Nop)
			ls := LabelSet{Engine: "spin-test", Endpoint: "/test", Digest: "deadbeefcafe"}
			Do(context.Background(), ls, func(ctx context.Context) {
				probe.Bind(ctx)
				sp := probe.Span("spin-test/hot")
				defer sp.End(obs.OutcomeSolved, 0)
				x := 0
				for {
					select {
					case <-stop:
						runtime.KeepAlive(x)
						return
					default:
						x += x*31 + 7
					}
				}
			})
		}()
	}

	raw, err := CaptureCPUProfile(window, nil)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	if !assertCPUProfile(t, pprofTool(t, raw, "-raw")) {
		t.Skip("no samples captured (starved CI runner)")
	}
	// Restricted to the spinners' samples, the tag report must show the
	// whole label set the solve and its span applied.
	tags := pprofTags(pprofTool(t, raw, "-tags", "-tagfocus="+LabelEngine+"=spin-test"))
	want := map[string]string{
		LabelEngine: "spin-test",
		LabelPhase:  "hot",
		LabelDigest: "deadbeef",
		LabelJoin:   LabelSet{Engine: "spin-test", Endpoint: "/test", Digest: "deadbeefcafe"}.JoinDigest(),
	}
	for key, value := range want {
		if !slices.Contains(tags[key], value) {
			t.Errorf("no engine=spin-test sample carries %s=%s (tags %v)", key, value, tags)
		}
	}
}
