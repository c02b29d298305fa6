package main

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// summary is a distribution's five-number summary.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
	}
}

// quantile interpolates linearly between the closest ranks of sorted
// data; 0 for no data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// pct is quantile over unsorted data.
func pct(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// meanOfMedians is the latency a run reports for jobs of several kinds:
// each kind's median, averaged over the kinds. The kinds' completion
// times form separate modes, and a pooled median falls in the sparse gap
// between them, where a small shift in the mix moves it far; each
// kind's median sits in dense data.
func meanOfMedians(byKind map[string][]float64) float64 {
	var medians []float64
	for _, k := range sortedKeys(byKind) {
		medians = append(medians, pct(byKind[k], 0.5))
	}
	return mean(medians)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks the peak Go heap in use — the runtime/metrics
// equivalent of MemStats.HeapInuse, read without stopping the world —
// by sampling it every few milliseconds.
type heapSampler struct {
	stopCh  chan struct{}
	done    chan struct{}
	samples []metrics.Sample
	peak    uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		stopCh: make(chan struct{}), done: make(chan struct{}),
		samples: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		},
	}
	h.observe()
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopCh:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	metrics.Read(h.samples)
	var inUse uint64
	for _, s := range h.samples {
		if s.Value.Kind() == metrics.KindUint64 {
			inUse += s.Value.Uint64()
		}
	}
	if inUse > h.peak {
		h.peak = inUse
	}
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	<-h.done
	h.observe()
	return h.peak
}

// benchSpan is one call the benchmark made into a layer's public
// function: which layer and call, and when, in nanoseconds since the run
// started.
type benchSpan struct {
	Layer string `json:"layer"`
	Call  string `json:"call"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Err   bool   `json:"err,omitempty"`
}

// spanLog keeps the benchmark's own spans in memory; they are written
// out with the run record. A nil log records nothing, which is how
// untraced runs keep tracing off.
type spanLog struct {
	mu    sync.Mutex
	spans []benchSpan
}

var runStart = time.Now()

// around times fn as one span of layer/call.
func (l *spanLog) around(layer, call string, fn func() error) error {
	if l == nil {
		return fn()
	}
	start := time.Since(runStart)
	err := fn()
	end := time.Since(runStart)
	l.mu.Lock()
	l.spans = append(l.spans, benchSpan{Layer: layer, Call: call,
		Start: int64(start), End: int64(end), Err: err != nil})
	l.mu.Unlock()
	return err
}

func (l *spanLog) all() []benchSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]benchSpan(nil), l.spans...)
}

// report prints count and latency quartiles per layer/call.
func (l *spanLog) report(w io.Writer) {
	by := make(map[string][]float64)
	for _, s := range l.all() {
		k := s.Layer + " " + s.Call
		by[k] = append(by[k], float64(s.End-s.Start)/1e6)
	}
	if len(by) == 0 {
		return
	}
	fmt.Fprintln(w, "benchmark spans around layer calls (n, p50 ms, p95 ms, max ms):")
	for _, k := range sortedKeys(by) {
		s := by[k]
		fmt.Fprintf(w, "  %-40s n=%d %.3f %.3f %.3f\n", k, len(s), pct(s, 0.5), pct(s, 0.95), pct(s, 1))
	}
}
