package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the default histogram bounds for request latencies, in
// seconds: 1 ms to 60 s on a roughly 1-2.5-5 grid.  They cover both a
// cache-hit submission (microseconds round to the first bucket) and a
// multi-minute million-sink synthesis (the +Inf overflow).
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// Histogram is one fixed-bucket distribution series: atomic per-bucket
// counts plus an atomic sum.  Observe is wait-free apart from the sum's CAS
// loop; Snapshot reads whatever instant the atomics hold (the count and sum
// of a concurrent Observe may land in different scrapes, which Prometheus
// semantics tolerate).
type Histogram struct {
	bounds []float64 // immutable upper bounds, strictly increasing, finite
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.  NaN observations are dropped (they would
// poison the sum and match no bucket).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Bounds lists are short (tens of entries); a linear scan beats binary
	// search on branch prediction and is O(1) for the common small values.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	// A CAS loop: contention on one hot histogram stays in user space and
	// never blocks a scrape.
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts aligned with Bounds, the terminal overflow bucket
// last, plus the value sum.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] counts observations
	// <= Bounds[i] and Counts[len(Bounds)] the overflow.
	Bounds []float64
	// Counts are per-bucket observation counts (not cumulative).
	Counts []uint64
	// Sum is the sum of observed values.
	Sum float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Count returns the total number of observations in the snapshot.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Quantile estimates the q-quantile (0 < q <= 1) from the buckets by linear
// interpolation inside the bucket holding the target rank: the first bucket
// interpolates from zero, and any rank landing in the overflow bucket
// reports the last finite bound (the histogram cannot see beyond it).  An
// empty histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return bucketQuantile(q, s.Bounds, s.Counts)
}

// bucketQuantile is the shared interpolation over per-bucket counts; the
// parser's histograms reuse it so ctsload's client- and server-side
// percentiles come from identical arithmetic.
func bucketQuantile(q float64, bounds []float64, counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < target {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no finite upper edge to interpolate toward.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}
