// Package metrics holds what tetrad (internal/server) and tetrarouter
// (internal/router) both publish on GET /metrics: one fixed-bucket latency
// histogram, in one JSON shape.
package metrics

import (
	"sync/atomic"
	"time"
)

// bucketBoundsMS are the latency histogram upper bounds, in milliseconds.
// Exponential-ish coverage from sub-millisecond cache hits to the sandbox
// deadline; the final implicit bucket is +Inf.
var bucketBoundsMS = [...]float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram is a fixed-bucket latency histogram. The zero value is ready
// to use and safe for concurrent use.
type Histogram struct {
	counts    [len(bucketBoundsMS) + 1]atomic.Int64 // the last is +Inf
	sumMicros atomic.Int64
	n         atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(bucketBoundsMS) && ms > bucketBoundsMS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumMicros.Add(d.Microseconds())
	h.n.Add(1)
}

// HistogramBucket is one (le, count) histogram row; LEms < 0 encodes +Inf.
type HistogramBucket struct {
	LEms  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the exported state of one latency histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	MeanMS  float64           `json:"mean_ms"`
	Buckets []HistogramBucket `json:"buckets"`
}

// Snapshot exports the current state; empty buckets are omitted.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.n.Load()}
	if s.Count > 0 {
		s.MeanMS = float64(h.sumMicros.Load()) / 1000 / float64(s.Count)
	}
	for i := range h.counts {
		le := -1.0 // +Inf
		if i < len(bucketBoundsMS) {
			le = bucketBoundsMS[i]
		}
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{LEms: le, Count: c})
		}
	}
	return s
}
