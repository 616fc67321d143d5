package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it.  It
// never interpolates, so every reported percentile is a latency some request
// actually saw.  xs is sorted in place; an empty slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// mean is the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles computed exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method, including its extrapolation for very short inputs).  Fewer than two
// values, or a zero median, yield 0.
func quartileSpread(xs []float64) float64 {
	ld := len(xs)
	med := median(xs)
	if ld < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(med)
}

// median is the middle value of xs (the mean of the two middle values for an
// even count), as the run-to-run comparisons use it; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a closed time span in Unix nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its children
// cover.  Children are clipped to the parent and their union is taken, so
// time covered by two overlapping children is subtracted once.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return time.Duration(parent.end - parent.start - covered)
}

// epoch is one slice of the all-workload schedule: workload index and the
// measured time it runs for.
type epoch struct {
	workload int
	length   time.Duration
}

// epochSchedule interleaves the workloads' measured time in epochs of at
// most length each.  At every step it picks the workload with the smallest
// share of its target done (ties to the lower index), never the one that
// just ran while another has time left, so each workload's epochs spread
// over the whole set and a slow stretch of host time lands on all of them,
// not on whichever ran last.  Every workload receives exactly its target.
func epochSchedule(targets []time.Duration, length time.Duration) []epoch {
	done := make([]time.Duration, len(targets))
	var out []epoch
	last := -1
	for {
		best, fallback := -1, -1
		bestShare := 2.0
		for i, t := range targets {
			if done[i] >= t {
				continue
			}
			if i == last {
				fallback = i
				continue
			}
			if share := float64(done[i]) / float64(t); share < bestShare {
				best, bestShare = i, share
			}
		}
		if best < 0 {
			best = fallback
		}
		if best < 0 {
			return out
		}
		d := min(length, targets[best]-done[best])
		done[best] += d
		out = append(out, epoch{workload: best, length: d})
		last = best
	}
}
