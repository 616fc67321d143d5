// Package dme implements the classical clock tree synthesis baselines of
// Section 2.2: the zero-skew merge-segment computation under the Elmore delay
// model (equation 2.5, Figure 2.1), a deferred-merge-embedding style
// bottom-up/top-down construction using Manhattan arcs, and a "buffers only
// at merge nodes" variant that stands in for the restricted-buffer-location
// flows the paper compares against ([6, 8, 16] in Table 5.1).
package dme

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/clocktree"
	"repro/internal/geom"
	"repro/internal/tech"
	"repro/internal/topology"
)

// Sink is one clock sink for the baseline synthesizers.
type Sink struct {
	Name string
	Pos  geom.Point
	Cap  float64
}

// MergeSplit is the solution of the zero-skew merge equation for one pair of
// sub-trees separated by distance L.
type MergeSplit struct {
	// X is the fraction of the distance assigned to the side of the first
	// sub-tree (l1 = X*L), clamped to [0, 1].
	X float64
	// L1 and L2 are the wire lengths towards the first and second sub-tree.
	// When snaking is required one of them exceeds the straight distance.
	L1, L2 float64
	// Snaked is true when the split required wire snaking (X fell outside
	// [0, 1] before clamping).
	Snaked bool
}

// Solve computes the zero-skew merge split of equation 2.5 for two sub-trees
// with root delays t1, t2 (ps), load capacitances c1, c2 (fF) and straight
// distance l (um) between their roots.  When the required balance point falls
// outside the segment, the merge point is clamped to the nearer root and the
// wire towards the faster sub-tree is lengthened (wire snaking) so that the
// Elmore delays still balance.
func Solve(t *tech.Technology, t1, t2, c1, c2, l float64) MergeSplit {
	alpha := t.UnitRes * tech.PsPerOhmFF // ps per (um * fF) when multiplied by capacitance
	beta := t.UnitCap

	if l <= 0 {
		// Co-located roots: pure snaking on the faster side.
		switch {
		case t1 == t2:
			return MergeSplit{X: 0.5}
		case t1 > t2:
			return MergeSplit{X: 0, L2: snakeLength(t, t1-t2, c2), Snaked: true}
		default:
			return MergeSplit{X: 1, L1: snakeLength(t, t2-t1, c1), Snaked: true}
		}
	}

	x := ((t2 - t1) + alpha*l*(c2+beta*l/2)) / (alpha * l * (c1 + c2 + beta*l))
	switch {
	case x < 0:
		// Sub-tree 1 is too slow even with the merge point on top of it: snake
		// the wire towards sub-tree 2 beyond the straight distance.
		need := t1 - t2 // extra delay the right wire must provide
		return MergeSplit{X: 0, L1: 0, L2: math.Max(snakeLength(t, need, c2), l), Snaked: true}
	case x > 1:
		need := t2 - t1
		return MergeSplit{X: 1, L1: math.Max(snakeLength(t, need, c1), l), L2: 0, Snaked: true}
	default:
		return MergeSplit{X: x, L1: x * l, L2: (1 - x) * l}
	}
}

// snakeLength returns the wire length whose Elmore delay into load cap c
// equals the required delay (ps): alpha*L*(beta*L/2 + c) = need.
func snakeLength(t *tech.Technology, need, c float64) float64 {
	if need <= 0 {
		return 0
	}
	alpha := t.UnitRes * tech.PsPerOhmFF
	beta := t.UnitCap
	a := alpha * beta / 2
	b := alpha * c
	disc := b*b + 4*a*need
	return (-b + math.Sqrt(disc)) / (2 * a)
}

// elmoreWire is the Elmore delay of a wire of length l into load cap c.
func elmoreWire(t *tech.Technology, l, c float64) float64 {
	return t.UnitRes * l * (t.UnitCap*l/2 + c) * tech.PsPerOhmFF
}

// Options configure the baseline synthesizers.
type Options struct {
	// SlewLimit enables merge-node-only buffer insertion when > 0 (the
	// restricted baseline); zero builds the classical unbuffered tree.
	SlewLimit float64
	// Buffer is the cell used for merge-node buffering; empty selects the
	// largest library buffer.
	Buffer string
	// SourcePos, when non-nil, is the clock source location; nil places the
	// source at the tree root.
	SourcePos *geom.Point
}

// pairAlpha and pairBeta weight distance and delay difference in the
// baselines' pairing cost: distance alone.  The pairing itself is the
// indexed greedy matcher (topology.Greedy, O(n log n) via the
// internal/spatial nearest-neighbour index).
const pairAlpha, pairBeta = 1, 0

type subtree struct {
	arc      geom.ManhattanArc
	delay    float64 // Elmore delay from this root to its sinks (zero skew)
	cap      float64 // downstream capacitance seen at the root
	node     *clocktree.Node
	edgeLen  float64 // wire length from the (future) parent to this root
	children [2]*subtree
}

// Synthesize builds a zero-skew (under the Elmore model) clock tree for the
// sinks.  With Options.SlewLimit > 0 it additionally inserts buffers at merge
// nodes whose unbuffered downstream load would violate the slew limit — the
// restricted buffer-location policy the paper argues is insufficient.
//
// The context is checked between the pair merges of the bottom-up loop and
// between the node embeddings of the top-down pass, so cancelling it aborts
// a large synthesis promptly with the context's error.
func Synthesize(ctx context.Context, t *tech.Technology, sinks []Sink, opt Options) (*clocktree.Tree, error) {
	if len(sinks) == 0 {
		return nil, errors.New("dme: no sinks")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	current := make([]*subtree, len(sinks))
	for i, s := range sinks {
		if s.Cap <= 0 {
			return nil, fmt.Errorf("dme: sink %q has non-positive capacitance", s.Name)
		}
		current[i] = &subtree{
			arc:   geom.ArcFromPoint(s.Pos),
			delay: 0,
			cap:   s.Cap,
			node:  &clocktree.Node{Name: s.Name, Kind: clocktree.KindSink, Pos: s.Pos, SinkCap: s.Cap},
		}
	}

	// Bottom-up: levelized pairing and merge-segment construction.
	for len(current) > 1 {
		items := make([]topology.Item, len(current))
		for i, st := range current {
			items[i] = topology.Item{Pos: st.arc.Center(), Delay: st.delay}
		}
		pairs, seed := topology.Greedy{}.Match(items, pairAlpha, pairBeta)
		var next []*subtree
		if seed >= 0 {
			next = append(next, current[seed])
		}
		for _, p := range pairs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			next = append(next, mergePair(t, current[p.A], current[p.B]))
		}
		if len(next) >= len(current) {
			return nil, errors.New("dme: pairing made no progress")
		}
		current = next
	}

	// Top-down embedding: place the root at its arc centre (or towards the
	// requested source position) and every child at the closest point of its
	// merge segment to its embedded parent.
	root := current[0]
	rootPos := root.arc.Center()
	if opt.SourcePos != nil {
		rootPos = root.arc.ClosestPoint(*opt.SourcePos)
	}
	if err := embed(ctx, root, rootPos); err != nil {
		return nil, err
	}

	sourcePos := rootPos
	if opt.SourcePos != nil {
		sourcePos = *opt.SourcePos
	}
	tree := clocktree.New(t, sourcePos)
	tree.Root.AddChild(root.node, sourcePos.Manhattan(root.node.Pos))

	if opt.SlewLimit > 0 {
		buf, err := pickBuffer(t, opt.Buffer)
		if err != nil {
			return nil, err
		}
		insertMergeNodeBuffers(t, tree, buf, opt.SlewLimit)
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("dme: built an invalid tree: %w", err)
	}
	return tree, nil
}

// mergePair builds the merge segment for two sub-trees (Figure 2.1).
func mergePair(t *tech.Technology, a, b *subtree) *subtree {
	dist := geom.ArcDistance(a.arc, b.arc)
	split := Solve(t, a.delay, b.delay, a.cap, b.cap, dist)

	regionA := a.arc.Expand(split.L1)
	regionB := b.arc.Expand(split.L2)
	arc, ok := regionA.Intersect(regionB)
	if !ok {
		// Numerical corner case (snaked splits): fall back to the segment
		// between the closest points of the two arcs.
		pa := a.arc.ClosestPoint(b.arc.Center())
		pb := b.arc.ClosestPoint(pa)
		arc = geom.ArcFromEndpoints(pa.Lerp(pb, split.X), pa.Lerp(pb, split.X))
	}

	merged := &subtree{
		arc:   arc,
		delay: a.delay + elmoreWire(t, split.L1, a.cap),
		cap:   a.cap + b.cap + t.WireCap(split.L1+split.L2),
		node:  &clocktree.Node{Kind: clocktree.KindMerge},
	}
	merged.children[0], merged.children[1] = a, b
	a.edgeLen, b.edgeLen = split.L1, split.L2
	return merged
}

// embed fixes node positions top-down.
func embed(ctx context.Context, st *subtree, pos geom.Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	st.node.Pos = pos
	for _, child := range st.children {
		if child == nil {
			continue
		}
		childPos := child.arc.ClosestPoint(pos)
		if err := embed(ctx, child, childPos); err != nil {
			return err
		}
		// The stored edge length is what the zero-skew balance assumed; the
		// embedding can only be at least as close, so keep the stored length
		// (any surplus is wire snaking).
		wire := math.Max(child.edgeLen, pos.Manhattan(childPos))
		st.node.AddChild(child.node, wire)
	}
	return nil
}

func pickBuffer(t *tech.Technology, name string) (tech.Buffer, error) {
	if name == "" {
		return t.LargestBuffer(), nil
	}
	b, ok := t.BufferByName(name)
	if !ok {
		return tech.Buffer{}, fmt.Errorf("dme: unknown buffer %q", name)
	}
	return b, nil
}

// insertMergeNodeBuffers walks the tree top-down and places a buffer at every
// merge node whose unbuffered downstream region would otherwise exceed the
// slew limit when driven from the last buffered point — the restricted
// "merge nodes only" insertion policy.
func insertMergeNodeBuffers(t *tech.Technology, tree *clocktree.Tree, buf tech.Buffer, slewLimit float64) {
	var walk func(n *clocktree.Node)
	walk = func(n *clocktree.Node) {
		for _, c := range n.Children {
			if c.Kind == clocktree.KindMerge {
				if estimateRegionSlew(t, buf.DriveRes, c) > slewLimit {
					b := buf
					c.Buffer = &b
				}
			}
			walk(c)
		}
	}
	walk(tree.Root)
}

// estimateRegionSlew is a first-order estimate of the worst slew in the
// unbuffered region hanging below node n, assuming it is driven from n by a
// driver with the given resistance: ln9 * (Rd*Ctotal + Rpath*Cpath/2) using
// the longest unbuffered downstream path.
func estimateRegionSlew(t *tech.Technology, driveRes float64, n *clocktree.Node) float64 {
	totalCap := clocktree.DownstreamCap(t, n)
	longest := longestUnbufferedPath(n)
	r := t.WireRes(longest)
	return tech.Ln9 * (driveRes*totalCap + r*totalCap/2) * tech.PsPerOhmFF
}

func longestUnbufferedPath(n *clocktree.Node) float64 {
	var best float64
	for _, c := range n.Children {
		if c.Buffer != nil {
			continue
		}
		if d := c.WireLen + longestUnbufferedPath(c); d > best {
			best = d
		}
	}
	return best
}

// ElmoreSkew computes the skew of the tree under the pure-wire Elmore model
// (ignoring buffers and the source resistance), which is the quantity the
// classical algorithm drives to zero.  It exists so tests and experiments can
// check the baseline's own objective independently of simulation.
func ElmoreSkew(t *tech.Technology, tree *clocktree.Tree) float64 {
	minD, maxD := math.Inf(1), math.Inf(-1)
	var walk func(n *clocktree.Node, delay float64)
	walk = func(n *clocktree.Node, delay float64) {
		if n.Kind == clocktree.KindSink {
			minD = math.Min(minD, delay)
			maxD = math.Max(maxD, delay)
			return
		}
		for _, c := range n.Children {
			walk(c, delay+elmoreWire(t, c.WireLen, clocktree.DownstreamCap(t, c)))
		}
	}
	// Skip the source-to-root edge: it is common to every sink.
	for _, c := range tree.Root.Children {
		walk(c, 0)
	}
	if math.IsInf(minD, 1) {
		return 0
	}
	return maxD - minD
}
