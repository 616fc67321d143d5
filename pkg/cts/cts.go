// Package cts is the public API of the reproduction: buffered,
// slew-constrained clock tree synthesis (conf_dac_ChenDC10) exposed as a
// staged, composable pipeline.
//
// A Flow runs five stages — topology pairing, merge-routing, source
// buffering, timing analysis and (optionally) transient verification — and is
// assembled from the TopologyBuilder, MergeRouter, Bufferer, Timer and
// Verifier interfaces.  The defaults are backed by the internal/topology,
// internal/mergeroute, internal/clocktree and internal/spice packages; any
// stage can be swapped for instrumentation or experimentation.
//
// Quickstart:
//
//	flow, err := cts.New(tech.Default(),
//	        cts.WithSlewLimit(100),
//	        cts.WithCorrection(cts.CorrectionFull),
//	)
//	if err != nil { ... }
//	res, err := flow.Run(ctx, []cts.Sink{
//	        {Name: "ff_a", Pos: geom.Pt(200, 300)},
//	        {Name: "ff_b", Pos: geom.Pt(3800, 150)},
//	})
//	fmt.Println(res.Timing.Skew, res.Stats.Buffers)
//
// Every run takes a context.Context, checked between stages, between the
// individual merges of the per-level synthesis loop and periodically inside
// each merge's maze expansion, so long runs cancel promptly.  Progress is
// reported through an optional Observer (stage start/end, per-level sub-tree
// counts, timings); observer emission is serialized, and MetricsObserver
// aggregates the stream into per-stage counters and histograms.
//
// Synthesis is concurrent at two levels.  RunBatch executes many sink sets
// over a bounded worker pool with deterministic, input-ordered results, and
// WithParallelism fans the independent merges of each topology level out
// across an intra-run worker pool.  Both are bit-identical to sequential
// runs: level results are collected in pair order, and the default merge
// router's memo cache is lock-protected and holds pure functions of its key,
// so concurrent merges see the same numbers a sequential run would.  Result
// marshals to JSON for service and CLI interchange.
package cts

import (
	"context"
	"fmt"

	"repro/internal/clocktree"
	"repro/internal/geom"
	"repro/internal/mergeroute"
)

// Sink is one clock sink to be driven by the synthesized tree.
type Sink struct {
	// Name identifies the sink (e.g. the flip-flop instance name).
	Name string
	// Pos is the sink location in micrometres.
	Pos geom.Point
	// Cap is the sink load capacitance in fF; zero selects the technology
	// default.
	Cap float64
}

// Correction selects the H-structure handling of Section 4.1.2.
type Correction int

const (
	// CorrectionNone runs the original algorithm without re-examining
	// grandchild pairings.
	CorrectionNone Correction = iota
	// CorrectionReEstimate re-estimates the costs of the three possible
	// grandchild pairings and re-pairs when a cheaper one exists (Method 1).
	CorrectionReEstimate
	// CorrectionFull routes all three pairings and keeps the one with the
	// lowest resulting skew (Method 2).
	CorrectionFull
)

// String implements fmt.Stringer.
func (c Correction) String() string {
	switch c {
	case CorrectionNone:
		return "none"
	case CorrectionReEstimate:
		return "re-estimation"
	case CorrectionFull:
		return "correction"
	default:
		return fmt.Sprintf("mode(%d)", int(c))
	}
}

// token is the canonical machine-readable name used by JSON and flag values.
func (c Correction) token() string {
	switch c {
	case CorrectionNone:
		return "none"
	case CorrectionReEstimate:
		return "reestimate"
	case CorrectionFull:
		return "full"
	default:
		return fmt.Sprintf("mode(%d)", int(c))
	}
}

// MarshalJSON encodes the mode as its canonical token ("none", "reestimate",
// "full").
func (c Correction) MarshalJSON() ([]byte, error) {
	return []byte(`"` + c.token() + `"`), nil
}

// UnmarshalJSON accepts any spelling ParseCorrection accepts.
func (c *Correction) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	mode, err := ParseCorrection(s)
	if err != nil {
		return err
	}
	*c = mode
	return nil
}

// ParseCorrection parses a correction mode name as used by flags and JSON:
// "none", "reestimate" (or "re-estimation") and "full" (or "correction").
func ParseCorrection(s string) (Correction, error) {
	switch s {
	case "none", "":
		return CorrectionNone, nil
	case "reestimate", "re-estimation":
		return CorrectionReEstimate, nil
	case "full", "correction":
		return CorrectionFull, nil
	}
	return CorrectionNone, fmt.Errorf("cts: unknown correction mode %q", s)
}

// TopologyStrategy selects the pairing strategy of the default topology
// stage (see WithTopologyStrategy).
type TopologyStrategy int

const (
	// TopologyGreedy is the paper's greedy nearest-neighbour matching
	// (Section 4.1.1), accelerated to O(n log n) per level by the
	// internal/spatial index and bit-identical to the O(n²) reference scan.
	// It is the default.
	TopologyGreedy TopologyStrategy = iota
	// TopologyBipartition is the recursive-geometric matcher: the level is
	// median-split along its wider bounding-box dimension until small groups
	// remain, which are matched greedily.  It trades the global equation 4.1
	// matching for predictable divide-and-conquer structure and exists for
	// scenario diversity in topology experiments.
	TopologyBipartition
)

// String implements fmt.Stringer.
func (s TopologyStrategy) String() string {
	switch s {
	case TopologyGreedy:
		return "greedy"
	case TopologyBipartition:
		return "bipartition"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// MarshalJSON encodes the strategy as its canonical token ("greedy",
// "bipartition").
func (s TopologyStrategy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts any spelling ParseTopologyStrategy accepts.
func (s *TopologyStrategy) UnmarshalJSON(b []byte) error {
	str := string(b)
	if len(str) >= 2 && str[0] == '"' && str[len(str)-1] == '"' {
		str = str[1 : len(str)-1]
	}
	v, err := ParseTopologyStrategy(str)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ParseTopologyStrategy parses a strategy name as used by flags and JSON:
// "greedy" (or empty, the default) and "bipartition".
func ParseTopologyStrategy(s string) (TopologyStrategy, error) {
	switch s {
	case "greedy", "":
		return TopologyGreedy, nil
	case "bipartition":
		return TopologyBipartition, nil
	}
	return TopologyGreedy, fmt.Errorf("cts: unknown topology strategy %q", s)
}

// RoutingStrategy selects the maze-routing path of the default merge-routing
// stage (see WithRoutingStrategy).
type RoutingStrategy int

const (
	// RoutingFlat is the paper's full-resolution best-first maze expansion
	// (Section 4.2): every grid cell can be relaxed.  It is the default and
	// its trees are bit-identical to earlier releases.
	RoutingFlat RoutingStrategy = iota
	// RoutingHierarchical coarsens the routing grid, finds a corridor on the
	// coarse graph and re-routes at full resolution restricted to the
	// corridor, falling back to the flat expansion when the corridor search
	// fails or the grid is small.  It is deterministic run-to-run but is a
	// distinct versioned strategy: its trees can differ from RoutingFlat
	// within a small wirelength bound, and Settings.Routing feeds
	// CanonicalKey so cached results never mix strategies.
	RoutingHierarchical
)

// String implements fmt.Stringer.
func (s RoutingStrategy) String() string {
	switch s {
	case RoutingFlat:
		return "flat"
	case RoutingHierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("routing(%d)", int(s))
	}
}

// MarshalJSON encodes the strategy as its canonical token ("flat",
// "hierarchical").
func (s RoutingStrategy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts any spelling ParseRoutingStrategy accepts.
func (s *RoutingStrategy) UnmarshalJSON(b []byte) error {
	str := string(b)
	if len(str) >= 2 && str[0] == '"' && str[len(str)-1] == '"' {
		str = str[1 : len(str)-1]
	}
	v, err := ParseRoutingStrategy(str)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ParseRoutingStrategy parses a strategy name as used by flags and JSON:
// "flat" (or empty, the default) and "hierarchical".
func ParseRoutingStrategy(s string) (RoutingStrategy, error) {
	switch s {
	case "flat", "":
		return RoutingFlat, nil
	case "hierarchical":
		return RoutingHierarchical, nil
	}
	return RoutingFlat, fmt.Errorf("cts: unknown routing strategy %q", s)
}

// Item summarizes one sub-tree root for topology pairing: its position and
// its root-to-sink latency.
type Item struct {
	// Pos is the sub-tree root location in micrometres.
	Pos geom.Point
	// Delay is the root-to-sink latency in ps.
	Delay float64
}

// Pairing is a matched pair of item indices to be merged at one level.
type Pairing struct {
	// A and B index the level's item slice; A < B by convention.
	A, B int
}

// TopologyBuilder pairs the current level's sub-tree roots (Section 4.1.1).
// Pair returns the matched index pairs and the index of the unmatched seed
// item carried into the next level (-1 when the count is even).  The default
// implementation is the greedy nearest-neighbour matching of
// internal/topology with cost alpha*distance + beta*|delay difference|.
type TopologyBuilder interface {
	// Pair matches the level's items; deterministic implementations keep
	// whole-flow results reproducible (and content-addressable).
	Pair(ctx context.Context, items []Item) (pairs []Pairing, seed int, err error)
}

// MergeRouter merges two sub-trees into one, constructing buffered routing
// paths from both roots and choosing a slew-feasible, delay-balanced merge
// node (Section 4.2).  flips reports how many grandchild pairings the
// H-structure correction changed (0 without correction).  The default
// implementation wraps internal/mergeroute with the configured correction
// mode.
//
// A MergeRouter installed with WithMergeRouter is shared across the
// concurrent runs of RunBatch and across the intra-run fan-out of the level
// scheduler (WithParallelism), and must be safe for concurrent use.  The
// default router is constructed fresh for every run and is concurrency-safe
// within it: its only mutable state is a locked per-load memo cache whose
// entries are pure functions of the load, so parallel and sequential merges
// produce identical trees.
type MergeRouter interface {
	// Merge joins two sub-trees into one buffered, slew-feasible sub-tree;
	// it may be called concurrently (see the type documentation).
	Merge(ctx context.Context, a, b *mergeroute.Subtree) (merged *mergeroute.Subtree, flips int, err error)
}

// Bufferer completes the synthesized sub-tree into a full clock tree: it
// places the clock source and, when the source sits away from the tree root,
// builds a buffered feed line so the slew constraint holds on the feed as
// well.  source is nil when the source coincides with the final tree root.
type Bufferer interface {
	// AttachSource completes the sub-tree into a full clock tree rooted at
	// the source (nil source: the tree root itself).
	AttachSource(ctx context.Context, root *mergeroute.Subtree, source *geom.Point) (*clocktree.Tree, error)
}

// Timer runs the final timing analysis over the completed tree.  The default
// implementation is the library-based analysis of internal/clocktree
// (Section 3.2.3).
type Timer interface {
	// Analyze computes per-sink latencies, skew and worst slew (all ps).
	Analyze(ctx context.Context, tree *clocktree.Tree) (*clocktree.Timing, error)
}

// Verifier runs the golden transient simulation of the completed tree (the
// paper's "SPICE simulation of the clock tree netlist").  The default
// implementation is clocktree.Verify over internal/spice.
type Verifier interface {
	// Verify simulates the completed tree and reports measured timing (ps).
	Verify(ctx context.Context, tree *clocktree.Tree) (*clocktree.VerifyResult, error)
}
