package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is the number of samples that must lie beyond a reported
// percentile for it to be reported at all.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether at least minTail samples lie strictly beyond its rank.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minTail
}

// sgmShiftMS is the shift of the shifted geometric mean, as in
// MIPLIB-style solver comparisons: it keeps near-zero times from
// dominating the mean.
const sgmShiftMS = 10.0

// sgm returns the shifted geometric mean of per-instance times in ms.
func sgm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x + sgmShiftMS)
	}
	return math.Exp(logSum/float64(len(xs))) - sgmShiftMS
}

// heapPeak samples the live heap, as the last garbage collection marked
// it, while a measured phase runs and keeps the largest value seen.
type heapPeak struct {
	mu     sync.Mutex
	peak   uint64
	sample []metrics.Sample
	stop   chan struct{}
	done   chan struct{}
}

// startHeapPeak begins sampling every interval until Stop.
func startHeapPeak(interval time.Duration) *heapPeak {
	h := &heapPeak{
		sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	h.read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapPeak) read() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.sample)
	if v := h.sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
		h.peak = v.Uint64()
	}
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	h.read()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// allocBytes reports the cumulative bytes allocated by the process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
