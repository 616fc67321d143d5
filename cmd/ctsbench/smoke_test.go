package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metric lists the
// JSON result line is built from, and its workloads to the workload table.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the table %s", i, w.Name, workloads[i].name)
		}
	}
	for _, group := range []struct {
		spec []specMetric
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(group.spec) != len(group.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics where the code has %d", len(group.spec), len(group.defs))
			continue
		}
		for i, m := range group.spec {
			d := group.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json has %s %s %s, the code %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
		}
	}
}

// TestPerLayerMetricsNameWhatTheyMove requires every per-layer metric to
// name its layer and an end-to-end metric @ workloads it should move.
func TestPerLayerMetricsNameWhatTheyMove(t *testing.T) {
	isEndToEnd := map[string]bool{}
	for _, d := range endToEnd {
		isEndToEnd[d.name] = true
	}
	for _, d := range perLayer {
		if layer, _, ok := strings.Cut(d.name, "."); !ok || layer == "" {
			t.Errorf("%s: no layer prefix", d.name)
		}
		metric, wls, ok := strings.Cut(d.moves, "@")
		if !ok || !isEndToEnd[metric] {
			t.Errorf("%s moves %q: want end_to_end_metric@workload,...", d.name, d.moves)
			continue
		}
		for _, wl := range strings.Split(wls, ",") {
			if _, err := workloadByName(wl); err != nil {
				t.Errorf("%s moves %q: %v", d.name, d.moves, err)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at the small scale with tracing on
// and requires every contract metric, zero failures and a span file.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			traceFile := filepath.Join(dir, "trace.json")
			windows := 1
			next := func() (time.Duration, bool) {
				windows--
				return time.Second, windows >= 0
			}
			o := options{workload: w, seed: 1, short: true, trace: true, dir: dir}
			rep, err := measure(context.Background(), o, next, traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Errorf("%d of %d failed: %v", rep.failed, rep.attempted, rep.failures)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				v, ok := rep.get(d.name)
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s missing or not finite (%v)", d.name, v)
				}
			}
			for _, name := range []string{"jobs_per_s", "latency_p50_ms", "setup_s", "skew_ps", "http.post_ms_p50"} {
				if v, _ := rep.get(name); v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if n, _ := rep.get("quality_designs"); n != panelDesigns {
				t.Errorf("quality scored over %v designs, want %d", n, panelDesigns)
			}
			// Where jobs were synthesized, the stage spans plus
			// flow.unattributed add up to the run.
			if run, ok := rep.get("sched.run_ms_per_job"); ok {
				sum, _ := rep.get("flow.unattributed_ms_per_job")
				for _, stage := range []string{"topology", "mergeroute", "buffering", "timing"} {
					v, _ := rep.get(stage + ".ms_per_job")
					sum += v
				}
				if math.Abs(sum-run) > 1e-6*run {
					t.Errorf("stages + unattributed = %v ms, run = %v ms", sum, run)
				}
			}
			data, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFileJSON
			if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
				t.Errorf("span file: %v, %d spans", err, len(tf.Spans))
			}
		})
	}
}

// TestCtslintClean holds the benchmark to the repository's analyzer suite
// (lock annotations, explicit JSON tags) by running the ctslint command over
// this module.
func TestCtslintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module; skipped in -short mode")
	}
	out, err := exec.Command("go", "run", "repro/cmd/ctslint", "./...").CombinedOutput()
	if err != nil {
		t.Errorf("ctslint: %v\n%s", err, out)
	}
}
