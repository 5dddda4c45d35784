// Package obsv is the live-introspection layer for cobcast: lock-cheap
// atomic counters and fixed-bucket histograms that the engine and the
// runtime publish into, a Registry that renders them as Prometheus text
// exposition and JSON state snapshots, and an opt-in stdlib HTTP server
// (Serve) exposing /metrics, /statez, and net/http/pprof.
//
// The package imports nothing but the standard library so that
// internal/core can depend on it without dragging IO into the sans-IO
// engine. Every instrumentation entry point is nil-safe: a nil
// *Histogram or a nil metrics family is a no-op, so an engine built
// without a registry pays only an untaken nil-check branch.
package obsv

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use. It is safe for concurrent use; reads (Load) may run
// on any goroutine while the owner increments.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram is a fixed-boundary histogram of uint64 observations.
// Buckets are cumulative only at snapshot time; Observe does a single
// branchless-ish scan over at most len(bounds) comparisons plus two
// atomic adds, so it is cheap enough for per-PDU paths. A nil
// *Histogram ignores observations, which is what makes instrumentation
// call sites nil-safe without guards.
type Histogram struct {
	bounds []uint64 // ascending upper bounds; implicit +Inf bucket last
	counts []atomic.Uint64
	sum    atomic.Uint64
	total  atomic.Uint64
}

// NewHistogram returns a histogram with the given ascending upper
// bounds. An implicit +Inf bucket is appended.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation. Safe on a nil receiver (no-op) and
// for concurrent use.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram, with
// cumulative bucket counts as Prometheus expects.
type HistogramSnapshot struct {
	Bounds     []uint64 // upper bounds; +Inf is implicit as the final bucket
	Cumulative []uint64 // len(Bounds)+1, monotone; last == Count
	Sum        uint64
	Count      uint64
}

// Snapshot copies the histogram. Counts are loaded bucket-by-bucket
// without a global lock, so concurrent Observes may straddle buckets;
// the snapshot is still internally monotone because cumulation happens
// after all loads. Safe on a nil receiver (returns a zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.counts)),
		Sum:        h.sum.Load(),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Cumulative[i] = cum
	}
	s.Count = cum
	return s
}

// Quantile returns an upper-bound estimate of the q-quantile (0..1)
// from bucket boundaries: the upper bound of the bucket containing the
// q-th observation, or +Inf if it falls in the overflow bucket. Zero
// observations yield 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	for i, c := range s.Cumulative {
		if c >= rank {
			if i < len(s.Bounds) {
				return float64(s.Bounds[i])
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// LatencyBucketsUS are the default microsecond boundaries used for the
// broadcast→deliver and ack-wait histograms: 50µs to 1s, roughly
// log-spaced, matching the virtual-time delays the sim and the chaos
// harness use (hundreds of µs to tens of ms).
func LatencyBucketsUS() []uint64 {
	return []uint64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000}
}

// BatchBuckets are the default boundaries for link flush batch sizes
// (PDUs per datagram/flush), powers of two up to the memFrames cap.
func BatchBuckets() []uint64 {
	return []uint64{1, 2, 4, 8, 16, 32, 64, 128}
}
