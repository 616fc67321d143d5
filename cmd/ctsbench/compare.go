package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specJSON is the part of BENCHMARK.json compare reads.
type specJSON struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric entry of BENCHMARK.json; Bound is absent on
// per-layer metrics.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// compareMain implements "ctsbench compare [-spec BENCHMARK.json] base.json
// head.json": for every workload and metric of the untraced sets, the two
// medians, their ratio and a verdict against the metric's bound.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ctsbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: ctsbench compare [-spec BENCHMARK.json] base.json head.json")
	}
	var spec specJSON
	if err := readJSON(*specPath, &spec); err != nil {
		return err
	}
	var base, head fileJSON
	if err := readJSON(fs.Arg(0), &base); err != nil {
		return err
	}
	if err := readJSON(fs.Arg(1), &head); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-28s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "base", "head", "ratio", "spread", "bound", "verdict")
	// End-to-end metrics come from the untraced sets, layer metrics from the
	// traced ones.
	for _, group := range []struct {
		defs  []specMetric
		trace bool
	}{{spec.EndToEnd, false}, {spec.PerLayer, true}} {
		bv, hv := values(base.Sets, group.trace), values(head.Sets, group.trace)
		for _, wl := range sortedKeys(bv) {
			for _, m := range group.defs {
				b, h := bv[wl][m.Name], hv[wl][m.Name]
				if len(b) == 0 || len(h) == 0 {
					continue
				}
				v := judge(m, b, h)
				if moves := movesOf(m.Name); moves != "" {
					v.verdict += " (moves " + moves + ")"
				}
				fmt.Fprintf(w, "%-16s %-28s %12.5g %12.5g %8.4f %8.4f %8s  %s\n",
					wl, m.Name, v.base, v.head, v.head/v.base, v.spread, boundText(m.Bound), v.verdict)
			}
		}
	}
	return nil
}

// comparison is one metric's verdict.
type comparison struct {
	base, head, spread float64
	verdict            string
}

// judge compares the medians of base and head runs of one metric.  The
// verdict is "worse" or "better" when the median moved by more than the
// bound, "unchanged" when it did not, and "unresolved" when either side's
// run-to-run spread is wider than the bound, unless every head run beats (or
// loses to) every base run.  Per-layer metrics carry no bound and get "info".
func judge(m specMetric, base, head []float64) comparison {
	c := comparison{base: median(base), head: median(head), spread: math.Max(quartileSpread(base), quartileSpread(head))}
	if m.Bound == nil {
		c.verdict = "info"
		return c
	}
	sign := 1.0 // positive worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (c.head - c.base) / math.Abs(c.base)
	bound := *m.Bound
	switch {
	case c.spread > bound && dominates(base, head, sign):
		c.verdict = "better"
	case c.spread > bound && dominates(head, base, sign):
		c.verdict = "worse"
	case c.spread > bound:
		c.verdict = "unresolved"
	case worse > bound:
		c.verdict = "worse"
	case -worse > bound:
		c.verdict = "better"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// dominates reports whether every run of b is better than every run of a,
// where sign is +1 for lower-is-better metrics and -1 for higher.
func dominates(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*y >= sign*x {
				return false
			}
		}
	}
	return true
}

// movesOf is what the named per-layer metric should move, "" for any other
// metric.
func movesOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.moves
		}
	}
	return ""
}

func boundText(b *float64) string {
	if b == nil {
		return "-"
	}
	return fmt.Sprintf("%g", *b)
}

// values gathers each workload's metric values over the traced or the
// untraced sets.
func values(sets []setJSON, trace bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, s := range sets {
		if s.Trace != trace {
			continue
		}
		for w, res := range s.Workloads {
			if out[w] == nil {
				out[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				out[w][name] = append(out[w][name], m.Value)
			}
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}
