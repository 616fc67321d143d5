package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestVecSeriesIdentity(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewHistogram("hits_seconds", "Hits.", []float64{1}, "tier")
	a1 := v.With("memory")
	a2 := v.With("memory")
	b := v.With("disk")
	a1.Observe(0.5)
	a2.Observe(0.5)
	b.Observe(0.5)
	if got := a1.Snapshot().Count(); got != 2 {
		t.Fatalf("same labels must share a series: got %v, want 2", got)
	}
	if got := b.Snapshot().Count(); got != 1 {
		t.Fatalf("distinct labels must not share: got %v, want 1", got)
	}
}

func TestLabelKeyNoAliasing(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewHistogram("x_seconds", "X.", []float64{1}, "a", "b")
	v.With("ab", "c").Observe(0.5)
	if got := v.With("a", "bc").Snapshot().Count(); got != 0 {
		t.Fatalf(`("ab","c") and ("a","bc") aliased: got %v`, got)
	}
}

func TestRegistryPanicsOnAbuse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("duplicate name", func() {
		reg := NewRegistry()
		reg.NewCounter("a_total", "A.")
		reg.NewCounter("a_total", "A.")
	})
	expectPanic("bad metric name", func() { NewRegistry().NewCounter("0bad", "B.") })
	expectPanic("reserved le label", func() { NewRegistry().NewHistogram("h", "H.", []float64{1}, "le") })
	expectPanic("unsorted buckets", func() { NewRegistry().NewHistogram("h", "H.", []float64{2, 1}) })
	expectPanic("wrong label arity", func() {
		reg := NewRegistry()
		reg.NewCounter("a_total", "A.", "x").Func(func() float64 { return 0 })
	})
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("lat_seconds", "Latency.", []float64{0.1, 0.2, 0.4, 0.8}).With()
	// 100 observations uniform over (0, 0.4]: quartiles land at predictable
	// interpolated positions.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.004)
	}
	s := h.Snapshot()
	if got := s.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if math.Abs(s.Sum-20.2) > 1e-9 {
		t.Fatalf("sum = %v, want 20.2", s.Sum)
	}
	if p50 := s.Quantile(0.50); math.Abs(p50-0.2) > 0.02 {
		t.Fatalf("p50 = %v, want ~0.2", p50)
	}
	if p99 := s.Quantile(0.99); math.Abs(p99-0.396) > 0.02 {
		t.Fatalf("p99 = %v, want ~0.396", p99)
	}
	// An observation beyond every bound lands in the overflow bucket and
	// caps quantiles at the last finite bound.
	h.Observe(5)
	if p100 := h.Snapshot().Quantile(1); p100 != 0.8 {
		t.Fatalf("overflow quantile = %v, want last bound 0.8", p100)
	}
}

func TestHistogramEmptyAndNaN(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("x_seconds", "X.", []float64{1}).With()
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	h.Observe(math.NaN())
	if got := h.Snapshot().Count(); got != 0 {
		t.Fatalf("NaN observation counted: %d", got)
	}
}

func TestObserveDuration(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("d_seconds", "D.", []float64{0.1, 1}).With()
	h.ObserveDuration(50 * time.Millisecond)
	s := h.Snapshot()
	if s.Counts[0] != 1 {
		t.Fatalf("50ms must land in the 0.1s bucket: %v", s.Counts)
	}
}

func TestFuncSeries(t *testing.T) {
	reg := NewRegistry()
	n := 7.0
	reg.NewGauge("live", "Live.").Func(func() float64 { return n })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "live 7\n") {
		t.Fatalf("func series not rendered:\n%s", b.String())
	}
}

// TestExpositionRoundTrip pins the exposition format through the package's
// own strict parser: HELP/TYPE pairs, label escaping, cumulative buckets
// with a terminal +Inf, and sums/counts that reconcile.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("jobs_total", "Jobs with \"quotes\" and\nnewlines.", "state")
	c.Func(func() float64 { return 4 }, "done")
	c.Func(func() float64 { return 1 }, `we"ird\value`)
	reg.NewGauge("uptime_seconds", "Uptime.").Func(func() float64 { return 12.5 })
	h := reg.NewHistogram("wait_seconds", "Wait.", []float64{0.1, 1}, "priority")
	h.With("high").Observe(0.05)
	h.With("high").Observe(0.5)
	h.With("high").Observe(3)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	m, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition failed own parser: %v\n%s", err, b.String())
	}

	if v, ok := m.Value("jobs_total", map[string]string{"state": "done"}); !ok || v != 4 {
		t.Fatalf("jobs_total{state=done} = %v/%v, want 4", v, ok)
	}
	if v, ok := m.Value("jobs_total", map[string]string{"state": `we"ird\value`}); !ok || v != 1 {
		t.Fatalf("escaped label value did not round-trip: %v/%v", v, ok)
	}
	f, ok := m.Family("jobs_total")
	if !ok || f.Help != "Jobs with \"quotes\" and\nnewlines." {
		t.Fatalf("help did not round-trip: %q", f.Help)
	}
	ph, ok := m.Histogram("wait_seconds", map[string]string{"priority": "high"})
	if !ok {
		t.Fatal("histogram series missing")
	}
	if ph.Count != 3 || math.Abs(ph.Sum-3.55) > 1e-9 {
		t.Fatalf("histogram count/sum = %d/%v, want 3/3.55", ph.Count, ph.Sum)
	}
	want := []uint64{1, 1, 1}
	for i, c := range ph.Counts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", ph.Counts, want)
		}
	}
}

func TestParserRejectsMalformedExpositions(t *testing.T) {
	cases := map[string]string{
		"sample without HELP/TYPE": "x_total 1\n",
		"TYPE before HELP":         "# TYPE x_total counter\nx_total 1\n",
		"sample before TYPE":       "# HELP x_total X.\nx_total 1\n",
		"duplicate HELP":           "# HELP x_total X.\n# HELP x_total X.\n",
		"unknown type":             "# HELP x_total X.\n# TYPE x_total banana\n",
		"bad value":                "# HELP x_total X.\n# TYPE x_total counter\nx_total zebra\n",
		"histogram without +Inf": "# HELP h H.\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-monotone buckets": "# HELP h H.\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"decreasing bounds": "# HELP h H.\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"count mismatch": "# HELP h H.\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"missing sum": "# HELP h H.\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
		"no finite bound": "# HELP h H.\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"NaN bound": "# HELP h H.\n# TYPE h histogram\n" +
			"h_bucket{le=\"NaN\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
	}
	for name, input := range cases {
		if _, err := ParseText(strings.NewReader(input)); err == nil {
			t.Errorf("%s: parser accepted malformed input:\n%s", name, input)
		}
	}
	// +Inf in the middle of a multi-bucket series is rejected as well (no
	// bound can follow it and still be increasing).
	multi := "# HELP h H.\n# TYPE h histogram\n" +
		"h_bucket{le=\"+Inf\"} 1\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"
	if _, err := ParseText(strings.NewReader(multi)); err == nil {
		t.Error("mid-series +Inf accepted")
	}
}

func TestConcurrentObservationsRaceClean(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("v_seconds", "V.", LatencyBuckets, "w")
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%2))
			for i := 0; i < per; i++ {
				h.With(label).Observe(float64(i%40) * 0.01)
				if i%100 == 0 {
					var b strings.Builder
					_ = reg.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := h.With("a").Snapshot().Count() + h.With("b").Snapshot().Count(); got != workers*per {
		t.Fatalf("lost observations: %v, want %d", got, workers*per)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseText(strings.NewReader(b.String())); err != nil {
		t.Fatalf("exposition after concurrency invalid: %v", err)
	}
}
