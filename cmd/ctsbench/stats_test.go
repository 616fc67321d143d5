package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{50, 5},   // rank ceil(5) = 5
		{90, 9},   // rank 9
		{99, 10},  // rank ceil(9.9) = 10
		{100, 10}, // the maximum
		{1, 1},    // rank ceil(0.1) = 1
		{55, 6},   // rank ceil(5.5) = 6: never interpolated
	} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("empty p50 = %v, want NaN", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// Expected values from Python: q = statistics.quantiles(xs, n=4);
	// (q[2]-q[0]) / statistics.median(xs).
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{3, 1, 4, 1, 5}, (4.5 - 1.0) / 3},
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5}, // Python extrapolates here
		{[]float64{4, 4, 4, 4}, 0},
	} {
		if got := quartileSpread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredTimeOnce(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"duplicate", []interval{{10, 40}, {10, 40}}, 70},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to the parent", []interval{{-50, 10}, {95, 200}}, 85},
		{"outside the parent", []interval{{200, 300}}, 100},
		{"touching", []interval{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEpochScheduleInterleaves(t *testing.T) {
	s := time.Second
	targets := []time.Duration{40 * s, 30 * s, 30 * s, 30 * s}
	epochs := epochSchedule(targets, 5*s)
	got := make([]time.Duration, len(targets))
	for i, e := range epochs {
		got[e.workload] += e.length
		if i > 0 && epochs[i-1].workload == e.workload {
			t.Errorf("epoch %d repeats workload %d back to back", i, e.workload)
		}
	}
	for i := range targets {
		if got[i] != targets[i] {
			t.Errorf("workload %d got %v, want %v", i, got[i], targets[i])
		}
	}
	if len(epochs) != 26 {
		t.Errorf("%d epochs, want 26", len(epochs))
	}
	// Every workload has run by the fourth epoch and still runs in the last
	// quarter: slow stretches of host time land on all of them.
	for w := range targets {
		first, last := -1, -1
		for i, e := range epochs {
			if e.workload == w {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first > 3 || last < len(epochs)*3/4 {
			t.Errorf("workload %d runs in epochs %d..%d of %d", w, first, last, len(epochs))
		}
	}
}

func TestEpochScheduleRemainder(t *testing.T) {
	epochs := epochSchedule([]time.Duration{7 * time.Second}, 5*time.Second)
	if len(epochs) != 2 || epochs[0].length != 5*time.Second || epochs[1].length != 2*time.Second {
		t.Errorf("epochs = %+v, want 5s then 2s", epochs)
	}
}

func TestEpochsFromProtocol(t *testing.T) {
	var out strings.Builder
	next := epochsFrom(strings.NewReader("window 1500\nwindow 20\nend\n"), &out)
	for _, want := range []time.Duration{1500, 20} {
		if d, ok := next(); !ok || d != want {
			t.Fatalf("next() = %v, %v, want %v, true", d, ok, want)
		}
	}
	if _, ok := next(); ok {
		t.Fatal("next() after end should report no more windows")
	}
	if want := readyLine + "\n" + doneLine + "\n" + doneLine + "\n"; out.String() != want {
		t.Errorf("child wrote %q, want %q", out.String(), want)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	bound := 0.1
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: &bound}
	higher := specMetric{Name: "jobs_per_s", Better: "higher", Bound: &bound}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name       string
		m          specMetric
		base, head []float64
		want       string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"slower", lower, steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 80}, "better"},
		{"more throughput", higher, steady, []float64{120, 121, 119, 120, 120}, "better"},
		{"less throughput", higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{"noisy", lower, []float64{60, 100, 140, 80, 120}, []float64{70, 110, 130, 90, 100}, "unresolved"},
		{"noisy but every run faster", lower, []float64{100, 140, 180}, []float64{50, 60, 99}, "better"},
		{"layer metric", specMetric{Name: "http.post_ms_p50", Better: "lower"}, steady, steady, "info"},
	} {
		if got := judge(tc.m, tc.base, tc.head).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
