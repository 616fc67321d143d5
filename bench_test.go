// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (internal/eval, the harness behind cmd/experiments;
// ARCHITECTURE.md places it among the layers) and add ablation benchmarks
// for the design choices the reproduction calls out.  Benchmarks default to
// scaled-down sink sets so `go test -bench=.` stays fast; run
// cmd/experiments for the full-size tables.
package repro

import (
	"strconv"

	"context"

	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/clocktree"
	"repro/internal/eval"
	"repro/internal/spice"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// benchConfig is the shared scaled-down experiment configuration.
func benchConfig(b *testing.B) eval.Config {
	b.Helper()
	t := tech.Default()
	return eval.Config{
		Tech:     t,
		Library:  charlib.NewAnalytic(t),
		MaxSinks: 48,
		SimStep:  2,
	}
}

// BenchmarkTable51GSRC regenerates Table 5.1 rows (GSRC r1/r2 equivalents).
func BenchmarkTable51GSRC(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Benchmarks = []string{"r1", "r2"}
	for i := 0; i < b.N; i++ {
		table, err := eval.Table51(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range table.Rows {
			if r.WorstSlew > 100 {
				b.Fatalf("%s: worst slew %v exceeds the limit", r.Name, r.WorstSlew)
			}
		}
	}
}

// BenchmarkTable52ISPD regenerates Table 5.2 rows (ISPD f11/f22 equivalents).
func BenchmarkTable52ISPD(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Benchmarks = []string{"f11", "f22"}
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table52(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable53HStructure regenerates Table 5.3 (original vs. the two
// H-structure correction methods).
func BenchmarkTable53HStructure(b *testing.B) {
	cfg := benchConfig(b)
	cfg.MaxSinks = 24
	cfg.Benchmarks = []string{"f22"}
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table53(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11SlewVsLength regenerates the Figure 1.1 sweep.
func BenchmarkFigure11SlewVsLength(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure11(context.Background(), cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure32CurveVsRamp regenerates the Figure 3.2 experiment.
func BenchmarkFigure32CurveVsRamp(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure32(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure34IntrinsicDelaySurface regenerates the Figure 3.4 surface.
func BenchmarkFigure34IntrinsicDelaySurface(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure34(context.Background(), cfg, "BUF_X10"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure36BranchDelays regenerates the Figure 3.6/3.7 surfaces.
func BenchmarkFigure36BranchDelays(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := eval.Figure36and37(context.Background(), cfg, "BUF_X30"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterization measures the cost of building the delay/slew
// library from simulation sweeps (the Chapter 3 flow).
func BenchmarkCharacterization(b *testing.B) {
	t := tech.Default()
	cfg := charlib.Config{
		InputWireLengths: []float64{1, 600, 1200},
		WireLengths:      []float64{100, 700, 1400, 2000},
		BranchLengths:    []float64{200, 800, 1400},
		TimeStep:         1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := charlib.Characterize(t, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// synthesisBench synthesizes a scaled benchmark with a flow built from the
// options.
func synthesisBench(b *testing.B, name string, maxSinks int, opts ...cts.Option) {
	b.Helper()
	bm, err := bench.SyntheticScaled(name, maxSinks)
	if err != nil {
		b.Fatal(err)
	}
	flow, err := cts.New(tech.Default(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Run(context.Background(), bm.Sinks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesisScaling measures how synthesis cost grows with the number
// of sinks (complexity analysis of Section 4.3).
func BenchmarkSynthesisScaling(b *testing.B) {
	for _, n := range []int{32, 64, 128, 267} {
		b.Run(benchName(n), func(b *testing.B) {
			synthesisBench(b, "r1", n)
		})
	}
}

func benchName(n int) string {
	return "sinks_" + string(rune('0'+n/100)) + string(rune('0'+(n/10)%10)) + string(rune('0'+n%10))
}

// Ablation benchmarks: each isolates one design choice of the engine layer
// that ARCHITECTURE.md describes.

// BenchmarkAblationGridSize compares the default routing grid resolution with
// a coarse one (fewer candidate buffer locations per pair).
func BenchmarkAblationGridSize(b *testing.B) {
	for _, tc := range []struct {
		name string
		grid int
	}{{"grid_15", 15}, {"grid_45", 45}, {"grid_90", 90}} {
		b.Run(tc.name, func(b *testing.B) {
			synthesisBench(b, "r1", 64, cts.WithGrid(tc.grid))
		})
	}
}

// BenchmarkAblationCorrection compares the three H-structure handling modes.
func BenchmarkAblationCorrection(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode cts.Correction
	}{{"none", cts.CorrectionNone}, {"reestimate", cts.CorrectionReEstimate}, {"full", cts.CorrectionFull}} {
		b.Run(tc.name, func(b *testing.B) {
			synthesisBench(b, "r1", 64, cts.WithCorrection(tc.mode))
		})
	}
}

// BenchmarkAblationLibrary compares synthesis driven by the characterized
// library against the closed-form analytic model (the Section 3.1 argument).
func BenchmarkAblationLibrary(b *testing.B) {
	t := tech.Default()
	characterized, err := charlib.Characterize(t, charlib.Config{
		InputWireLengths: []float64{1, 600, 1200},
		WireLengths:      []float64{100, 700, 1400, 2000},
		BranchLengths:    []float64{200, 800, 1400},
		TimeStep:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		lib  *charlib.Library
	}{{"analytic", charlib.NewAnalytic(t)}, {"characterized", characterized}} {
		b.Run(tc.name, func(b *testing.B) {
			synthesisBench(b, "r1", 64, cts.WithLibrary(tc.lib))
		})
	}
}

// BenchmarkTimingAnalysis measures the library-based timing engine on a
// synthesized tree.
func BenchmarkTimingAnalysis(b *testing.B) {
	t := tech.Default()
	lib := charlib.NewAnalytic(t)
	bm, err := bench.SyntheticScaled("r1", 128)
	if err != nil {
		b.Fatal(err)
	}
	flow, err := cts.New(t, cts.WithLibrary(lib))
	if err != nil {
		b.Fatal(err)
	}
	res, err := flow.Run(context.Background(), bm.Sinks)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clocktree.Analyze(res.Tree, lib, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientVerification measures the SPICE-substitute verification
// of a synthesized tree.
func BenchmarkTransientVerification(b *testing.B) {
	t := tech.Default()
	bm, err := bench.SyntheticScaled("r1", 96)
	if err != nil {
		b.Fatal(err)
	}
	flow, err := cts.New(t)
	if err != nil {
		b.Fatal(err)
	}
	res, err := flow.Run(context.Background(), bm.Sinks)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clocktree.Verify(res.Tree, spice.Options{TimeStep: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowParallelism measures the intra-run merge fan-out of the level
// scheduler (cts.WithParallelism) on one scaled benchmark.  The parallelism-1
// case is the sequential baseline; the synthesized tree is identical for
// every width, so the ratio is pure scheduling speedup.  A recorded baseline
// lives in BENCH_parallel.json.  The host's core count and GOMAXPROCS are
// emitted into the output (log line plus cores/gomaxprocs metrics on the
// sequential case) so a recorded run is interpretable later; the widest case
// asserts it is no slower than sequential, skipped on single-core hosts
// where no speedup is physically possible.
func BenchmarkFlowParallelism(b *testing.B) {
	t := tech.Default()
	bm, err := bench.SyntheticScaled("r1", 128)
	if err != nil {
		b.Fatal(err)
	}
	cores, maxprocs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	b.Logf("cores=%d gomaxprocs=%d", cores, maxprocs)
	perPar := map[int]time.Duration{}
	for _, par := range []int{1, 2, 4, 8} {
		flow, err := cts.New(t,
			cts.WithLibrary(charlib.NewAnalytic(t)),
			cts.WithParallelism(par),
		)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("par_"+strconv.Itoa(par), func(b *testing.B) {
			if par == 1 {
				b.ReportMetric(float64(cores), "cores")
				b.ReportMetric(float64(maxprocs), "gomaxprocs")
			}
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := flow.Run(context.Background(), bm.Sinks); err != nil {
					b.Fatal(err)
				}
			}
			perPar[par] = time.Since(start) / time.Duration(b.N)
		})
	}
	if cores == 1 {
		b.Logf("single-core host: skipping the parallel-speedup assertion")
		return
	}
	// On a multi-core host the widest fan-out must not lose to sequential
	// outright; a generous 1.2x slack absorbs scheduling noise while still
	// catching a pathological regression (e.g. lock contention serializing
	// the level loop).
	if seq, wide := perPar[1], perPar[8]; seq > 0 && wide > seq+seq/5 {
		b.Errorf("parallelism 8 (%v/op) is slower than sequential (%v/op) on a %d-core host", wide, seq, cores)
	}
}

// BenchmarkRunBatchWorkers measures the pkg/cts batch surface: three scaled
// GSRC benchmarks synthesized over worker pools of different widths.  The
// single-worker case is the sequential baseline.
func BenchmarkRunBatchWorkers(b *testing.B) {
	t := tech.Default()
	// Intra-run fan-out is pinned to 1 so the benchmark isolates batch-worker
	// scaling (BenchmarkFlowParallelism measures the intra-run fan-out).
	flow, err := cts.New(t, cts.WithLibrary(charlib.NewAnalytic(t)), cts.WithParallelism(1))
	if err != nil {
		b.Fatal(err)
	}
	var items []cts.BatchItem
	for _, name := range []string{"r1", "r2", "r3"} {
		bm, err := bench.SyntheticScaled(name, 48)
		if err != nil {
			b.Fatal(err)
		}
		items = append(items, cts.BatchItem{Name: bm.Name, Sinks: bm.Sinks})
	}
	for _, workers := range []int{1, 3} {
		b.Run("workers_"+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, br := range flow.RunBatch(context.Background(), items, workers) {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
		})
	}
}
