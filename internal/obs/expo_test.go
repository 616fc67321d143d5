package obs

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// diffExpositions describes the first difference between two expositions'
// families and samples, comparing values by their bits (so NaN equals NaN),
// or returns "" when they agree.
func diffExpositions(a, b *ParsedMetrics) string {
	if len(a.Families) != len(b.Families) {
		return fmt.Sprintf("%d families, then %d", len(a.Families), len(b.Families))
	}
	for i, fa := range a.Families {
		fb := b.Families[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return fmt.Sprintf("family %d: %q %q %s with %d samples, then %q %q %s with %d",
				i, fa.Name, fa.Help, fa.Type, len(fa.Samples), fb.Name, fb.Help, fb.Type, len(fb.Samples))
		}
		for j, sa := range fa.Samples {
			sb := fb.Samples[j]
			if sa.Name != sb.Name || !labelsEqual(sa.Labels, sb.Labels) || math.Float64bits(sa.Value) != math.Float64bits(sb.Value) {
				return fmt.Sprintf("family %q sample %d: %+v, then %+v", fa.Name, j, sa, sb)
			}
		}
	}
	return ""
}

// TestGatherRoundTrip pins Gather to the text format: rendering a gathered
// registry and parsing it back gives the gathered families and samples,
// for Func series of every kind, owned histograms, and escaped help and
// labels.
func TestGatherRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("jobs_total", "Jobs, \"quoted\" \\ and\nsplit.", "state")
	c.Func(func() float64 { return 3 }, "done")
	c.Func(func() float64 { return 1 }, "we\"ird\\\nvalue")
	c.Func(func() float64 { return 7 }, "func")
	g := reg.NewGauge("depth", "Depth.", "priority")
	g.Func(func() float64 { return -2.5 }, "high")
	g.Func(func() float64 { return math.NaN() }, "low")
	h := reg.NewHistogram("wait_seconds", "Wait.", []float64{0.1, 1}, "priority")
	h.With("high").Observe(0.05)
	h.With("high").Observe(4)
	h.Func(func() HistogramSnapshot {
		return HistogramSnapshot{Bounds: []float64{0.1, 1}, Counts: []uint64{2, 0, 5}, Sum: 30.5}
	}, "a=b,\"c\"")

	gathered := reg.Gather()
	var b bytes.Buffer
	if err := WriteText(&b, gathered); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("gathered registry does not parse: %v\n%s", err, b.String())
	}
	if diff := diffExpositions(gathered, parsed); diff != "" {
		t.Fatalf("round trip changed the exposition: %s\n%s", diff, b.String())
	}

	fh, ok := parsed.Histogram("wait_seconds", map[string]string{"priority": "a=b,\"c\""})
	if !ok || fh.Count != 7 || fh.Sum != 30.5 || fmt.Sprint(fh.Counts) != "[2 0 5]" {
		t.Fatalf("Func histogram = %+v (present %v), want counts [2 0 5], sum 30.5", fh, ok)
	}
	if v, ok := parsed.Value("jobs_total", map[string]string{"state": "func"}); !ok || v != 7 {
		t.Fatalf("Func counter = %v (present %v), want 7", v, ok)
	}
}

// FuzzParseText holds the parser to three properties on any input: it never
// panics; an accepted exposition, rendered by WriteText and parsed again,
// gives the same families and samples; and Quantile returns on every
// histogram series it accepted.  The seed corpus under
// testdata/fuzz/FuzzParseText holds a member's /metrics, a gateway merge
// and a histogram whose only bucket is le="+Inf".
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := WriteText(&b, m); err != nil {
			t.Fatal(err)
		}
		again, err := ParseText(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("rendering of an accepted input does not parse: %v\n%q", err, b.String())
		}
		if diff := diffExpositions(m, again); diff != "" {
			t.Fatalf("round trip changed the exposition: %s\n%q", diff, b.String())
		}
		for _, fam := range m.Families {
			if fam.Type != "histogram" {
				continue
			}
			series, err := fam.histogramSeries()
			if err != nil {
				t.Fatalf("accepted histogram %q does not regroup: %v", fam.Name, err)
			}
			for _, h := range series {
				for _, q := range []float64{0, 0.5, 0.99, 1} {
					h.Quantile(q)
				}
			}
		}
	})
}
