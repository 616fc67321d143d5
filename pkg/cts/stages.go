package cts

import (
	"context"
	"math"

	"repro/internal/charlib"
	"repro/internal/clocktree"
	"repro/internal/geom"
	"repro/internal/mergeroute"
	"repro/internal/spice"
	"repro/internal/tech"
	"repro/internal/topology"
)

// ---------------------------------------------------------------------------
// Default TopologyBuilder
// ---------------------------------------------------------------------------

// matcherTopology is the default topology stage: the levelized pairing of
// Section 4.1.1 delegated to a pluggable internal/topology.Matcher (selected
// with WithTopologyStrategy; topology.Greedy — the paper's matching on the
// spatial index — by default).
type matcherTopology struct {
	alpha, beta float64
	matcher     topology.Matcher
}

func (b *matcherTopology) Pair(ctx context.Context, items []Item) ([]Pairing, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, -1, err
	}
	raw := make([]topology.Item, len(items))
	for i, it := range items {
		raw[i] = topology.Item{Pos: it.Pos, Delay: it.Delay}
	}
	pairs, seed := b.matcher.Match(raw, b.alpha, b.beta)
	out := make([]Pairing, len(pairs))
	for i, p := range pairs {
		out[i] = Pairing{A: p.A, B: p.B}
	}
	return out, seed, nil
}

// ---------------------------------------------------------------------------
// Default MergeRouter
// ---------------------------------------------------------------------------

// correctionMergeRouter wraps internal/mergeroute and applies the configured
// H-structure handling when both merged sub-trees are composite (Section
// 4.1.2, Figure 4.2).
type correctionMergeRouter struct {
	merger   *mergeroute.Merger
	settings Settings
}

// newDefaultMergeRouter builds a fresh default router; the underlying merger
// memoizes per-load drivable lengths, so one instance serves exactly one run.
// Within that run the merger's locked cache makes it safe for the concurrent
// Merge calls of the level scheduler (see WithParallelism).
func (f *Flow) newDefaultMergeRouter() (MergeRouter, error) {
	merger, err := mergeroute.New(f.cfg.tech, mergeroute.Config{
		Lib:          f.cfg.library,
		SlewTarget:   f.cfg.settings.SlewTarget,
		GridSize:     f.cfg.settings.GridSize,
		Hierarchical: f.cfg.settings.Routing == RoutingHierarchical,
	})
	if err != nil {
		return nil, err
	}
	return &correctionMergeRouter{merger: merger, settings: f.cfg.settings}, nil
}

func (r *correctionMergeRouter) Merge(ctx context.Context, a, b *mergeroute.Subtree) (*mergeroute.Subtree, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	composite := a.Children[0] != nil && a.Children[1] != nil && b.Children[0] != nil && b.Children[1] != nil
	if r.settings.Correction == CorrectionNone || !composite {
		merged, err := r.merger.Merge(ctx, a, b)
		return merged, 0, err
	}

	a1, a2 := a.Children[0], a.Children[1]
	b1, b2 := b.Children[0], b.Children[1]
	pairings := [3][2][2]*mergeroute.Subtree{
		{{a1, a2}, {b1, b2}}, // original
		{{a1, b1}, {a2, b2}},
		{{a1, b2}, {a2, b1}},
	}
	// A trial merge re-attaches the grandchild roots it takes (their parent
	// link and wire length) and changes nothing else; copy those four roots
	// so that keeping the original pairing can put their attachments back.
	grandchildren := [4]*mergeroute.Subtree{a1, a2, b1, b2}
	saved := [4]clocktree.Node{*a1.Root, *a2.Root, *b1.Root, *b2.Root}

	best := 0
	switch r.settings.Correction {
	case CorrectionReEstimate:
		// Method 1: compare pairings by the equation 4.1 cost of their edges.
		bestCost := math.Inf(1)
		for i, pairing := range pairings {
			var cost float64
			for _, pr := range pairing {
				cost += topology.Cost(
					topology.Item{Pos: pr[0].Pos(), Delay: pr[0].MaxDelay},
					topology.Item{Pos: pr[1].Pos(), Delay: pr[1].MaxDelay},
					r.settings.Alpha, r.settings.Beta)
			}
			if cost < bestCost {
				best, bestCost = i, cost
			}
		}
	case CorrectionFull:
		// Method 2: actually merge-route every pairing and keep the one whose
		// worse merge node has the lowest skew.
		bestSkew := math.Inf(1)
		for i, pairing := range pairings {
			var worst float64
			if i == 0 {
				worst = math.Max(a.Skew(), b.Skew())
			} else {
				feasible := true
				for _, pr := range pairing {
					trial, err := r.merger.Merge(ctx, pr[0], pr[1])
					if err != nil {
						feasible = false
						break
					}
					worst = math.Max(worst, trial.Skew())
				}
				if !feasible {
					continue
				}
			}
			if worst < bestSkew {
				best, bestSkew = i, worst
			}
		}
	}

	if best == 0 {
		// Keep the original pairing: put back the grandchild attachments that
		// trial merges may have overwritten, then merge the existing sub-trees.
		for i, gc := range grandchildren {
			gc.Root.Parent, gc.Root.WireLen = saved[i].Parent, saved[i].WireLen
		}
		merged, err := r.merger.Merge(ctx, a, b)
		return merged, 0, err
	}

	// Merge the winning pairing's halves; each Merge re-attaches the roots it
	// takes, whatever a trial left them attached to.
	left, err := r.merger.Merge(ctx, pairings[best][0][0], pairings[best][0][1])
	if err != nil {
		return nil, 0, err
	}
	right, err := r.merger.Merge(ctx, pairings[best][1][0], pairings[best][1][1])
	if err != nil {
		return nil, 0, err
	}
	merged, err := r.merger.Merge(ctx, left, right)
	if err != nil {
		return nil, 0, err
	}
	return merged, 1, nil
}

// ---------------------------------------------------------------------------
// Default Bufferer
// ---------------------------------------------------------------------------

// feedBufferer turns the final sub-tree into a complete clock tree.  When
// the source location differs from the tree root, a buffered feed line is
// built from the source to the root so the slew constraint holds on the feed
// as well.
type feedBufferer struct {
	tech       *tech.Technology
	slewTarget float64
}

func (f *feedBufferer) AttachSource(ctx context.Context, root *mergeroute.Subtree, source *geom.Point) (*clocktree.Tree, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pos := root.Pos()
	if source != nil {
		pos = *source
	}
	tree := clocktree.New(f.tech, pos)

	dist := pos.Manhattan(root.Pos())
	if dist < 1 {
		tree.Root.AddChild(root.Root, dist)
		return tree, tree.Validate()
	}

	// Build the feed with the largest buffer every maximum drivable span.
	buf := f.tech.LargestBuffer()
	lib := charlib.NewAnalytic(f.tech)
	maxLen := lib.MaxWireLength(buf, root.LoadCap, f.slewTarget, f.slewTarget)
	if maxLen < 10 {
		maxLen = 10
	}
	segments := int(math.Ceil(dist / maxLen))
	parent := tree.Root
	prev := pos
	for i := 1; i <= segments; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		frac := float64(i) / float64(segments)
		p := geom.Segment{A: pos, B: root.Pos()}.PointAtRatio(frac)
		var node *clocktree.Node
		if i == segments {
			node = root.Root
		} else {
			b := buf
			node = &clocktree.Node{Name: "feed", Kind: clocktree.KindRouting, Pos: p, Buffer: &b}
		}
		parent.AddChild(node, prev.Manhattan(p))
		parent = node
		prev = p
	}
	return tree, tree.Validate()
}

// ---------------------------------------------------------------------------
// Default Timer and Verifier
// ---------------------------------------------------------------------------

// libraryTimer is the library-based timing analysis of Section 3.2.3.
type libraryTimer struct {
	library *charlib.Library
}

func (t *libraryTimer) Analyze(ctx context.Context, tree *clocktree.Tree) (*clocktree.Timing, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return clocktree.Analyze(tree, t.library, 0)
}

// simVerifier is the golden transient simulation over the flattened tree.
type simVerifier struct {
	opts spice.Options
}

func (v *simVerifier) Verify(ctx context.Context, tree *clocktree.Tree) (*clocktree.VerifyResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return clocktree.Verify(tree, v.opts)
}
