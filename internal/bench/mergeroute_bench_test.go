package bench

import (
	"context"
	"testing"

	"repro/internal/charlib"
	"repro/internal/geom"
	"repro/internal/mergeroute"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// BenchmarkMergeRouteScale measures one Merge call across routing strategies,
// pair separations and grid resolutions; run with -benchmem (numbers are
// recorded in BENCH_mergeroute.json).  The separations are diagonal so the
// routing grid grows in both dimensions.  sep_2mm and sep_10mm stay at the
// default resolution (the dynamic sizing keeps cells below the drivable
// length either way); sep_50mm lets the dynamic growth run to 76 cells per
// dimension; sep_50mm_fine pins the paper's R parameter at 240 for a
// 241x241 = ~58k-cell grid — the regime the hierarchical corridor path
// exists for (two full flat expansions vs a coarse pass over 3,600 cells
// plus a corridor-restricted refinement).
func BenchmarkMergeRouteScale(b *testing.B) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	seps := []struct {
		name     string
		d        float64
		gridSize int
		maxGrid  int
	}{
		{"sep_2mm", 2000, 0, 0},
		{"sep_10mm", 10000, 0, 0},
		{"sep_50mm", 50000, 0, 240},
		{"sep_50mm_fine", 50000, 240, 240},
	}
	for _, strat := range []struct {
		name string
		hier bool
	}{
		{"flat", false},
		{"hierarchical", true},
	} {
		for _, tc := range seps {
			b.Run(strat.name+"/"+tc.name, func(b *testing.B) {
				m, err := mergeroute.New(tt, mergeroute.Config{
					Lib:          lib,
					GridSize:     tc.gridSize,
					MaxGridSize:  tc.maxGrid,
					Hierarchical: strat.hier,
				})
				if err != nil {
					b.Fatal(err)
				}
				x := tc.d / 2
				sa := mergeroute.SinkSubtree("a", geom.Pt(0, 0), tt.SinkCapDefault)
				sb := mergeroute.SinkSubtree("b", geom.Pt(x, x), tt.SinkCapDefault)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.Merge(context.Background(), sa, sb); err != nil {
						b.Fatal(err)
					}
					mergeroute.Detach(sa, sb)
				}
			})
		}
	}
}

// BenchmarkMergeRouteFlow measures whole-pipeline synthesis under both
// routing strategies at parallelism 1, so the per-merge numbers above can be
// read against their end-to-end effect.  r1_150 is scaled r1 (most of its
// merges sit below the hierarchical grid threshold and take the flat
// fallback; the corridor path pays off on the widely separated top-level
// merges).  sized_1024 is a seeded 1% move of SyntheticSized(1024), the
// design ctsbench's synth_cold workload submits; its per-op cells metric is
// the merge router's deterministic work count (mergeroute.WorkStats).
func BenchmarkMergeRouteFlow(b *testing.B) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	r1, err := SyntheticScaled("r1", 150)
	if err != nil {
		b.Fatal(err)
	}
	sized, err := SyntheticSized(1024)
	if err != nil {
		b.Fatal(err)
	}
	if sized, err = Perturb(sized, "move", 0.01, 1); err != nil {
		b.Fatal(err)
	}
	for _, design := range []struct {
		name  string
		sinks []cts.Sink
	}{
		{"r1_150", r1.Sinks},
		{"sized_1024", sized.Sinks},
	} {
		for _, strat := range []struct {
			name string
			s    cts.RoutingStrategy
		}{
			{"flat", cts.RoutingFlat},
			{"hierarchical", cts.RoutingHierarchical},
		} {
			b.Run(design.name+"/"+strat.name, func(b *testing.B) {
				flow, err := cts.New(tt, cts.WithLibrary(lib),
					cts.WithRoutingStrategy(strat.s), cts.WithParallelism(1))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				cells0 := mergeroute.WorkStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := flow.Run(context.Background(), design.sinks); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(mergeroute.WorkStats()-cells0)/float64(b.N), "cells/op")
			})
		}
	}
}
