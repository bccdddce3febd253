package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/session"
)

// sessionPost POSTs v as JSON and decodes the reply into out (when
// non-nil), returning the status code.
func sessionPost(t *testing.T, client *http.Client, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v (body %s)", url, err, raw)
		}
	}
	return resp.StatusCode
}

func sessionGet(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func createSession(t *testing.T, client *http.Client, baseURL string, req CreateSessionRequest) SessionInfo {
	t.Helper()
	var info SessionInfo
	if code := sessionPost(t, client, baseURL+"/v1/sessions", req, &info); code != http.StatusCreated {
		t.Fatalf("create session: HTTP %d", code)
	}
	if info.ID == "" {
		t.Fatal("created session has no id")
	}
	return info
}

// TestSessionLifecycle drives one session through the full HTTP
// surface: create, apply an arrival/departure batch, snapshot, list,
// close — and checks the counters on /metrics reflect it.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	client := ts.Client()

	info := createSession(t, client, ts.URL, CreateSessionRequest{Device: "k160t"})
	if info.Device != "xc7k160t" || len(info.Snapshot.Live) != 0 {
		t.Fatalf("unexpected create reply: %+v", info)
	}

	var events SessionEventsResponse
	code := sessionPost(t, client, ts.URL+"/v1/sessions/"+info.ID+"/events", SessionEventsRequest{
		Events: []session.Event{
			{Kind: session.Arrival, Name: "a", Req: device.Requirements{device.ClassCLB: 8}, Mode: 1},
			{Kind: session.Arrival, Name: "b", Req: device.Requirements{device.ClassCLB: 12, device.ClassBRAM: 1}, Mode: 2},
			{Kind: session.Departure, Name: "a"},
		},
	}, &events)
	if code != http.StatusOK {
		t.Fatalf("events: HTTP %d", code)
	}
	if len(events.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(events.Results))
	}
	for i := 0; i < 2; i++ {
		if !events.Results[i].Placed || events.Results[i].Rejected {
			t.Fatalf("arrival %d not placed: %+v", i, events.Results[i])
		}
	}

	var snap SessionInfo
	if code := sessionGet(t, client, ts.URL+"/v1/sessions/"+info.ID, &snap); code != http.StatusOK {
		t.Fatalf("get session: HTTP %d", code)
	}
	if len(snap.Snapshot.Live) != 1 || snap.Snapshot.Live[0].Name != "b" {
		t.Fatalf("snapshot live set wrong: %+v", snap.Snapshot.Live)
	}
	if snap.Snapshot.Stats.Events != 3 || snap.Snapshot.Stats.Placed != 2 {
		t.Fatalf("snapshot stats wrong: %+v", snap.Snapshot.Stats)
	}

	var list SessionListResponse
	if code := sessionGet(t, client, ts.URL+"/v1/sessions", &list); code != http.StatusOK {
		t.Fatalf("list sessions: HTTP %d", code)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != info.ID || list.Sessions[0].Live != 1 {
		t.Fatalf("listing wrong: %+v", list.Sessions)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}
	if code := sessionGet(t, client, ts.URL+"/v1/sessions/"+info.ID, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: HTTP %d, want 404", code)
	}

	if got := scrapeCounter(t, client, ts.URL, "floorpland_sessions_created_total"); got != 1 {
		t.Fatalf("sessions_created_total = %d", got)
	}
	if got := scrapeCounter(t, client, ts.URL, "floorpland_sessions_closed_total"); got != 1 {
		t.Fatalf("sessions_closed_total = %d", got)
	}
	if got := scrapeCounter(t, client, ts.URL, "floorpland_session_events_total"); got != 3 {
		t.Fatalf("session_events_total = %d", got)
	}
	if got := scrapeCounter(t, client, ts.URL, "floorpland_sessions_live"); got != 0 {
		t.Fatalf("sessions_live = %d", got)
	}
}

// TestSessionWorkloadOverHTTP replays a generated workload through the
// events endpoint in batches — defragmentation cycles included — and
// expects zero corrupted frames and a flight record per batch.
func TestSessionWorkloadOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	client := ts.Client()

	info := createSession(t, client, ts.URL, CreateSessionRequest{
		Device:         "k160t",
		Engine:         "constructive",
		FragThreshold:  0.3,
		DefragCooldown: 4,
	})

	workload := session.GenerateWorkload(session.WorkloadConfig{
		Seed:      11,
		Events:    120,
		Intensity: 0.6,
		Device:    device.Kintex7K160T(),
	})
	const batch = 20
	batches := 0
	for at := 0; at < len(workload); at += batch {
		end := min(at+batch, len(workload))
		var events SessionEventsResponse
		code := sessionPost(t, client, ts.URL+"/v1/sessions/"+info.ID+"/events",
			SessionEventsRequest{Events: workload[at:end]}, &events)
		if code != http.StatusOK {
			t.Fatalf("batch at %d: HTTP %d", at, code)
		}
		if len(events.Results) != end-at {
			t.Fatalf("batch at %d: %d results, want %d", at, len(events.Results), end-at)
		}
		batches++
	}

	var snap SessionInfo
	if code := sessionGet(t, client, ts.URL+"/v1/sessions/"+info.ID, &snap); code != http.StatusOK {
		t.Fatalf("get session: HTTP %d", code)
	}
	st := snap.Snapshot.Stats
	if st.Events != len(workload) || st.Placed == 0 {
		t.Fatalf("session stats wrong after replay: %+v", st)
	}
	if st.CorruptedFrames != 0 {
		t.Fatalf("%d corrupted frames", st.CorruptedFrames)
	}
	if got := scrapeCounter(t, client, ts.URL, "floorpland_session_events_total"); got != int64(len(workload)) {
		t.Fatalf("session_events_total = %d, want %d", got, len(workload))
	}
	if got := scrapeCounter(t, client, ts.URL, "floorpland_session_corrupted_frames_total"); got != 0 {
		t.Fatalf("session_corrupted_frames_total = %d", got)
	}

	// One flight record per batch, keyed by the session id.
	recorded := 0
	for _, rec := range s.FlightRecorder().Last(batches + 16) {
		if rec.Engine == "session" && rec.Key == info.ID {
			recorded++
			if rec.Outcome != "ok" {
				t.Fatalf("session flight record not ok: %+v", rec)
			}
		}
	}
	if recorded != batches {
		t.Fatalf("%d session flight records, want %d", recorded, batches)
	}
}

// TestSessionConcurrentBatches hammers one session from several
// goroutines (run under -race in CI): every event must be applied
// exactly once, whatever the interleaving.
func TestSessionConcurrentBatches(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	client := ts.Client()
	info := createSession(t, client, ts.URL, CreateSessionRequest{Device: "k160t", FragThreshold: -1})

	const workers = 4
	const rounds = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("m-%d-%d", w, i)
				code := sessionPost(t, client, ts.URL+"/v1/sessions/"+info.ID+"/events", SessionEventsRequest{
					Events: []session.Event{
						{Kind: session.Arrival, Name: name, Req: device.Requirements{device.ClassCLB: 6}},
						{Kind: session.Departure, Name: name},
					},
				}, nil)
				if code != http.StatusOK {
					t.Errorf("worker %d round %d: HTTP %d", w, i, code)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var snap SessionInfo
	if code := sessionGet(t, client, ts.URL+"/v1/sessions/"+info.ID, &snap); code != http.StatusOK {
		t.Fatalf("get session: HTTP %d", code)
	}
	st := snap.Snapshot.Stats
	if st.Events != workers*rounds*2 || len(snap.Snapshot.Live) != 0 {
		t.Fatalf("after concurrent batches: %+v live=%d", st, len(snap.Snapshot.Live))
	}
}

// TestSessionLimitAndTTL pins the registry bounds: the capacity answers
// 429, and an idle session past the TTL is lazily reclaimed.
func TestSessionLimitAndTTL(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxSessions: 2, SessionTTL: 50 * time.Millisecond})
	client := ts.Client()

	a := createSession(t, client, ts.URL, CreateSessionRequest{Device: "k160t"})
	createSession(t, client, ts.URL, CreateSessionRequest{Device: "fx70t"})
	if code := sessionPost(t, client, ts.URL+"/v1/sessions", CreateSessionRequest{Device: "k160t"}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("third create: HTTP %d, want 429", code)
	}

	time.Sleep(80 * time.Millisecond)
	// Both sessions idled past the TTL: the next create evicts them.
	createSession(t, client, ts.URL, CreateSessionRequest{Device: "k160t"})
	if code := sessionGet(t, client, ts.URL+"/v1/sessions/"+a.ID, nil); code != http.StatusNotFound {
		t.Fatalf("expired session still served: HTTP %d", code)
	}
	if got := scrapeCounter(t, client, ts.URL, "floorpland_sessions_expired_total"); got != 2 {
		t.Fatalf("sessions_expired_total = %d, want 2", got)
	}
	if got := scrapeCounter(t, client, ts.URL, "floorpland_sessions_live"); got != 1 {
		t.Fatalf("sessions_live = %d, want 1", got)
	}
}

// TestRegistryExpiresOutsideLock: onExpire discards a durable session,
// which removes its directory, so it must run after the registry lock is
// released. While one caller sits in a blocked onExpire, a lookup of
// another session must still return. The path where nothing expires
// stays allocation-free.
func TestRegistryExpiresOutsideLock(t *testing.T) {
	r := newSessionRegistry(4, time.Hour)
	entered := make(chan string, 1)
	release := make(chan struct{})
	r.onExpire = func(ls *liveSession) {
		entered <- ls.id
		<-release
	}
	for _, id := range []string{"idle", "busy"} {
		if err := r.add(&liveSession{id: id}); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.get("busy") }); n != 0 {
		t.Fatalf("get with nothing expiring allocates %v times", n)
	}

	r.mu.Lock()
	r.lastUsed["idle"] = time.Now().Add(-2 * time.Hour)
	r.mu.Unlock()
	evicting := make(chan int)
	go func() { evicting <- r.live() }()
	if id := <-entered; id != "idle" {
		t.Fatalf("expired %q, want idle", id)
	}

	looked := make(chan bool)
	go func() {
		_, ok := r.get("busy")
		looked <- ok
	}()
	select {
	case ok := <-looked:
		if !ok {
			t.Fatal("live session lost while another expired")
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("get blocked behind a running onExpire")
	}
	close(release)
	if n := <-evicting; n != 1 {
		t.Fatalf("live() = %d after expiring one of two, want 1", n)
	}
}

// TestSessionRequestValidation sweeps the error surface: bad device,
// bad engine, unknown id, malformed batches, wrong methods.
func TestSessionRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	client := ts.Client()
	info := createSession(t, client, ts.URL, CreateSessionRequest{Device: "k160t"})

	if code := sessionPost(t, client, ts.URL+"/v1/sessions", CreateSessionRequest{Device: "zynq"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown device: HTTP %d", code)
	}
	if code := sessionPost(t, client, ts.URL+"/v1/sessions", CreateSessionRequest{Device: "k160t", Engine: "nope"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown engine: HTTP %d", code)
	}
	if code := sessionGet(t, client, ts.URL+"/v1/sessions/deadbeef", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: HTTP %d", code)
	}
	if code := sessionPost(t, client, ts.URL+"/v1/sessions/"+info.ID+"/events", SessionEventsRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: HTTP %d", code)
	}
	// A malformed event mid-batch answers 400 but keeps the applied
	// prefix: sessions are stateful.
	code := sessionPost(t, client, ts.URL+"/v1/sessions/"+info.ID+"/events", SessionEventsRequest{
		Events: []session.Event{
			{Kind: session.Arrival, Name: "ok", Req: device.Requirements{device.ClassCLB: 4}},
			{Kind: session.Arrival, Name: ""}, // malformed: no name
		},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed event: HTTP %d", code)
	}
	var snap SessionInfo
	if code := sessionGet(t, client, ts.URL+"/v1/sessions/"+info.ID, &snap); code != http.StatusOK {
		t.Fatalf("get session: HTTP %d", code)
	}
	if len(snap.Snapshot.Live) != 1 || snap.Snapshot.Live[0].Name != "ok" {
		t.Fatalf("prefix not preserved: %+v", snap.Snapshot.Live)
	}

	resp, err := client.Head(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("HEAD collection: HTTP %d", resp.StatusCode)
	}
	if code := sessionGet(t, client, ts.URL+"/v1/sessions/"+info.ID+"/bogus", nil); code != http.StatusNotFound {
		t.Fatalf("unknown subresource: HTTP %d", code)
	}
}

// TestSessionClassKeyCanonicalization pins the wire-format leniency:
// JSON clients writing lowercase resource-class keys ({"clb": 40}) get
// CLB tiles, not a silent unplaceable-class rejection. Unknown classes
// still pass through and reject.
func TestSessionClassKeyCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	client := ts.Client()
	info := createSession(t, client, ts.URL, CreateSessionRequest{Device: "fx70t"})

	body := bytes.NewReader([]byte(`{"events":[
		{"kind":"arrival","name":"lower","req":{"clb":40,"bram":1}},
		{"kind":"arrival","name":"mixed","req":{"Dsp":1,"CLB":8}},
		{"kind":"arrival","name":"alien","req":{"warpcore":1}}]}`))
	resp, err := client.Post(ts.URL+"/v1/sessions/"+info.ID+"/events", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events SessionEventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(events.Results) != 3 {
		t.Fatalf("HTTP %d with %d results, want 200 with 3", resp.StatusCode, len(events.Results))
	}
	for i, name := range []string{"lower", "mixed"} {
		if !events.Results[i].Placed || events.Results[i].Rejected {
			t.Fatalf("%s arrival not placed: %+v", name, events.Results[i])
		}
	}
	if !events.Results[2].Rejected {
		t.Fatalf("unknown-class arrival should reject, got %+v", events.Results[2])
	}
}
