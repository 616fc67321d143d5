package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/clocktree"
	"repro/pkg/cts"
)

// ---------------------------------------------------------------------------
// Incremental (ECO) synthesis table
// ---------------------------------------------------------------------------

// IncrementalRow is one (benchmark, perturbation) line of the incremental
// table: the from-scratch cost, the delta cost against a warm subtree cache,
// and the reuse accounting.  Identical confirms the delta tree is
// byte-identical to a from-scratch synthesis of the perturbed design — the
// incremental path's hard contract.
type IncrementalRow struct {
	Name       string
	Sinks      int
	Kind       string  // move, add, drop
	FullMs     float64 // from-scratch wall time of the perturbed design
	DeltaMs    float64 // incremental wall time against the warm cache
	Speedup    float64 // FullMs / DeltaMs
	Reused     int
	Recomputed int
	Identical  bool
}

// IncrementalTable is the rendered incremental-synthesis experiment.
type IncrementalTable struct {
	Title string
	Frac  float64
	Rows  []IncrementalRow
}

// TableIncremental measures the incremental (ECO) resynthesis path: for each
// benchmark a full run seeds a subtree cache, then each perturbation kind
// (move, add, drop at the given fraction of the sink count) is resynthesized
// both from scratch and incrementally.  The verify stage stays off — the
// experiment isolates synthesis, and verification cost is identical on both
// paths.
func TableIncremental(ctx context.Context, cfg Config, frac float64) (*IncrementalTable, error) {
	cfg2, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	names := cfg2.Benchmarks
	if names == nil {
		names = bench.GSRCNames()
	}
	out := &IncrementalTable{
		Title: fmt.Sprintf("Incremental synthesis: %.2g%% ECO perturbations", frac*100),
		Frac:  frac,
	}
	for _, name := range names {
		bm, err := bench.SyntheticScaled(name, cfg2.MaxSinks)
		if err != nil {
			return nil, err
		}
		cache := cts.NewMemorySubtreeCache(0)
		warm, err := incrementalFlow(cfg2, cache)
		if err != nil {
			return nil, err
		}
		base, err := warm.Run(ctx, bm.Sinks)
		if err != nil {
			return nil, fmt.Errorf("eval: %s base run: %w", bm.Name, err)
		}
		scratch, err := incrementalFlow(cfg2, nil)
		if err != nil {
			return nil, err
		}
		for _, kind := range []string{"move", "add", "drop"} {
			pb, err := bench.Perturb(bm, kind, frac, 1)
			if err != nil {
				return nil, fmt.Errorf("eval: %s: %w", bm.Name, err)
			}
			full, err := scratch.Run(ctx, pb.Sinks)
			if err != nil {
				return nil, fmt.Errorf("eval: %s from scratch: %w", pb.Name, err)
			}
			delta, err := warm.RunIncremental(ctx, base, pb.Sinks)
			if err != nil {
				return nil, fmt.Errorf("eval: %s incremental: %w", pb.Name, err)
			}
			row := IncrementalRow{
				Name:      bm.Name,
				Sinks:     len(bm.Sinks),
				Kind:      kind,
				FullMs:    float64(full.Elapsed.Microseconds()) / 1000,
				DeltaMs:   float64(delta.Elapsed.Microseconds()) / 1000,
				Identical: sameTree(full, delta, pb.Name),
			}
			if row.DeltaMs > 0 {
				row.Speedup = row.FullMs / row.DeltaMs
			}
			if inc := delta.Incremental; inc != nil {
				row.Reused, row.Recomputed = inc.ReusedSubtrees, inc.RecomputedMerges
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// incrementalFlow builds the experiment's synthesis flow; cache == nil
// selects the plain from-scratch configuration.
func incrementalFlow(cfg Config, cache cts.SubtreeCache) (*cts.Flow, error) {
	opts := []cts.Option{
		cts.WithLibrary(cfg.Library),
		cts.WithSlewLimit(cfg.SlewLimit),
		cts.WithTopologyStrategy(cfg.Topology),
		cts.WithParallelism(1),
	}
	if cache != nil {
		opts = append(opts, cts.WithSubtreeCache(cache))
	}
	if cfg.Observer != nil {
		opts = append(opts, cts.WithObserver(cfg.Observer))
	}
	return cts.New(cfg.Tech, opts...)
}

// sameTree reports whether two results describe byte-identical trees, using
// the canonical netlist rendering as the comparison form (the same identity
// the golden-hash tests pin).
func sameTree(a, b *cts.Result, name string) bool {
	na, _, errA := clocktree.BuildNetlist(a.Tree, 100)
	nb, _, errB := clocktree.BuildNetlist(b.Tree, 100)
	if errA != nil || errB != nil {
		return false
	}
	return na.SpiceDeck(name) == nb.SpiceDeck(name)
}

// Render produces the text form of the incremental table.
func (t *IncrementalTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-10s %7s %6s %10s %10s %8s %8s %11s %10s\n",
		"bench", "sinks", "kind", "full(ms)", "delta(ms)", "speedup", "reused", "recomputed", "identical")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %7d %6s %10.1f %10.1f %7.1fx %8d %11d %10v\n",
			r.Name, r.Sinks, r.Kind, r.FullMs, r.DeltaMs, r.Speedup, r.Reused, r.Recomputed, r.Identical)
	}
	return b.String()
}
