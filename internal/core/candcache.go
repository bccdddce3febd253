package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/obs"
)

// The candidate cache memoizes EnumerateCandidates/EnumerateAllCandidates
// per (device, requirements). Enumeration is pure and every engine needs
// the same lists, so racing N engines on one problem — the portfolio
// engine's normal mode — would otherwise redo the same sweep N times.
//
// Keys use device pointer identity: two Device values are only considered
// the same model when they are literally the same object, which is always
// true within one solve (engines share the Problem's device) and never
// produces stale hits for look-alike custom devices. This relies on
// device.Device being immutable after construction (which its API
// enforces — it exposes no mutators and documents its accessor slices as
// read-only): mutating a cached Device through unsafe means would serve
// stale candidate lists. It also means the cache retains a reference to
// every keyed Device (up to candCacheCap of them) for the process
// lifetime, and a throwaway device decoded per request would occupy
// slots without ever producing hits. Long-lived services therefore key
// their solves on the model's canonical device: the daemon passes every
// decoded and session device through device.Intern, so requests on one
// model share its entries. One-shot callers (the CLI, offline benches)
// keep their own devices and enumerate once per device, as before.
//
// Entries carry a sync.Once so concurrent requesters of the same key
// share a single enumeration instead of duplicating the work and
// overwriting each other.

// candCacheCap bounds the memoized lists; beyond it the oldest keys are
// evicted FIFO. Each entry is one region shape on one device, so a
// service working a rotating set of designs stays comfortably under it.
const candCacheCap = 256

type candKey struct {
	dev *device.Device
	req string
	all bool
}

type candEntry struct {
	once  sync.Once
	cands []Candidate
}

type candCache struct {
	mu    sync.Mutex
	m     map[candKey]*candEntry
	order []candKey
}

var sharedCandCache = &candCache{m: make(map[candKey]*candEntry)}

// Process-wide hit/miss counters for the candidate cache, surfaced on the
// daemon's /metrics. A miss is a call that ran the enumeration; a hit is
// a call served from a memoized (or in-flight) entry.
var candCacheHits, candCacheMisses atomic.Int64

// CandCacheStats reports the process-wide candidate-cache hit/miss
// counts accumulated since start.
func CandCacheStats() (hits, misses int64) {
	return candCacheHits.Load(), candCacheMisses.Load()
}

// reqKey canonicalizes a Requirements map (class iteration order is
// random) into a deterministic cache key component.
func reqKey(req device.Requirements) string {
	classes := make([]string, 0, len(req))
	for cl, n := range req {
		if n == 0 {
			continue
		}
		classes = append(classes, fmt.Sprintf("%s=%d", cl, n))
	}
	sort.Strings(classes)
	return strings.Join(classes, ",")
}

func (c *candCache) entry(key candKey) *candEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		e = &candEntry{}
		c.m[key] = e
		c.order = append(c.order, key)
		for len(c.order) > candCacheCap {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
	}
	return e
}

func (c *candCache) get(d *device.Device, req device.Requirements, all bool, sp obs.Span) []Candidate {
	e := c.entry(candKey{dev: d, req: reqKey(req), all: all})
	ran := false
	e.once.Do(func() {
		ran = true
		if all {
			e.cands = EnumerateAllCandidates(d, req)
		} else {
			e.cands = EnumerateCandidates(d, req)
		}
	})
	sp = obs.OrNop(sp)
	if ran {
		candCacheMisses.Add(1)
		sp.Add(obs.CacheMisses, 1)
	} else {
		candCacheHits.Add(1)
		sp.Add(obs.CacheHits, 1)
	}
	return e.cands
}

// CachedCandidates is EnumerateCandidates memoized per (device,
// requirements). The returned slice is shared between callers and MUST be
// treated as read-only.
func CachedCandidates(d *device.Device, req device.Requirements) []Candidate {
	return sharedCandCache.get(d, req, false, nil)
}

// CachedAllCandidates is EnumerateAllCandidates memoized per (device,
// requirements). The returned slice is shared between callers and MUST be
// treated as read-only.
func CachedAllCandidates(d *device.Device, req device.Requirements) []Candidate {
	return sharedCandCache.get(d, req, true, nil)
}

// CachedCandidatesFor is CachedCandidates with the hit or miss also
// reported on the caller's telemetry span.
func CachedCandidatesFor(d *device.Device, req device.Requirements, sp obs.Span) []Candidate {
	return sharedCandCache.get(d, req, false, sp)
}

// CachedAllCandidatesFor is CachedAllCandidates with the hit or miss also
// reported on the caller's telemetry span.
func CachedAllCandidatesFor(d *device.Device, req device.Requirements, sp obs.Span) []Candidate {
	return sharedCandCache.get(d, req, true, sp)
}
