// Package clocktree defines the buffered clock tree data structure shared by
// every synthesis algorithm in this reproduction, the library-driven timing
// engine that the synthesis flow uses (Section 3.2.3), conversion to an RC
// netlist, and golden verification through the transient simulator — the
// counterpart of the paper's "SPICE simulation of the clock tree netlist"
// used to report worst slew, skew and latency in Tables 5.1 and 5.2.
package clocktree

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/tech"
)

// Kind labels the role of a tree node.
type Kind int

const (
	// KindSource is the clock source (root of the tree).
	KindSource Kind = iota
	// KindSink is a clock sink (leaf).
	KindSink
	// KindMerge is a merge node created when two sub-trees are joined.
	KindMerge
	// KindRouting is an intermediate point on a routed path (a maze-routing
	// grid node, a wire-snaking anchor, or a buffer location along a wire).
	KindRouting
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindSink:
		return "sink"
	case KindMerge:
		return "merge"
	case KindRouting:
		return "routing"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one node of a (possibly still under construction) clock tree.
// Nodes form a forest during bottom-up synthesis; a completed Tree has a
// single KindSource root.
type Node struct {
	// Name identifies sinks and buffers; it may be empty for routing nodes.
	Name string
	// Kind is the node's role.
	Kind Kind
	// Pos is the node's placement location in micrometres.
	Pos geom.Point
	// SinkCap is the load capacitance for KindSink nodes, in fF.
	SinkCap float64
	// Buffer, when non-nil, is the library buffer inserted at this node: the
	// wire from the parent ends at the buffer's input pin and the buffer's
	// output drives the wires to the children.
	Buffer *tech.Buffer
	// Parent is the upstream node (nil for a root).
	Parent *Node
	// Children are the downstream nodes.
	Children []*Node
	// WireLen is the routed wire length from Parent to this node in
	// micrometres.  It is at least the Manhattan distance between the two
	// positions and may exceed it when wire snaking detours were taken.
	WireLen float64
}

// AddChild attaches child below n with the given routed wire length.
func (n *Node) AddChild(child *Node, wireLen float64) {
	child.Parent = n
	child.WireLen = wireLen
	n.Children = append(n.Children, child)
}

// Tree is a complete clock tree rooted at the clock source.
type Tree struct {
	// Tech is the technology the tree was synthesized for.
	Tech *tech.Technology
	// Root is the clock source node.
	Root *Node
}

// New returns a tree with a source node at the given position.
func New(t *tech.Technology, sourcePos geom.Point) *Tree {
	return &Tree{
		Tech: t,
		Root: &Node{Name: "clk_source", Kind: KindSource, Pos: sourcePos},
	}
}

// Walk visits every node of the subtree rooted at n in pre-order.
func Walk(n *Node, visit func(*Node)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		Walk(c, visit)
	}
}

// Sinks returns all sink nodes below n (including n itself if it is a sink).
func Sinks(n *Node) []*Node {
	var out []*Node
	Walk(n, func(v *Node) {
		if v.Kind == KindSink {
			out = append(out, v)
		}
	})
	return out
}

// Nodes returns every node of the tree in pre-order.
func (t *Tree) Nodes() []*Node {
	var out []*Node
	Walk(t.Root, func(n *Node) { out = append(out, n) })
	return out
}

// Validate checks the structural invariants of the tree: parent/child links
// are consistent, the source is the unique root, sinks are leaves, wire
// lengths are non-negative and no shorter than the Manhattan distance they
// embed (within tolerance), and there are no cycles.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return errors.New("clocktree: nil root")
	}
	if t.Root.Kind != KindSource {
		return fmt.Errorf("clocktree: root has kind %v, want source", t.Root.Kind)
	}
	if t.Root.Parent != nil {
		return errors.New("clocktree: root has a parent")
	}
	seen := map[*Node]bool{}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if seen[n] {
			return fmt.Errorf("clocktree: node %q visited twice (cycle or shared node)", n.Name)
		}
		seen[n] = true
		if n.Kind == KindSink && len(n.Children) > 0 {
			return fmt.Errorf("clocktree: sink %q has children", n.Name)
		}
		if n.Kind == KindSink && n.SinkCap <= 0 {
			return fmt.Errorf("clocktree: sink %q has non-positive load capacitance", n.Name)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("clocktree: child %q does not point back to its parent", c.Name)
			}
			if c.WireLen < 0 {
				return fmt.Errorf("clocktree: negative wire length to %q", c.Name)
			}
			if d := n.Pos.Manhattan(c.Pos); c.WireLen < d-1e-6 {
				return fmt.Errorf("clocktree: wire to %q is %.3f um but the pin distance is %.3f um",
					c.Name, c.WireLen, d)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	if len(Sinks(t.Root)) == 0 {
		return errors.New("clocktree: tree has no sinks")
	}
	return nil
}

// Stats summarizes the physical composition of a tree.
type Stats struct {
	// Sinks is the number of clock sinks.
	Sinks int
	// Buffers is the number of inserted buffers.
	Buffers int
	// BuffersBySize counts buffers per library cell name.
	BuffersBySize map[string]int
	// MergeNodes is the number of merge nodes.
	MergeNodes int
	// TotalWire is the total routed wire length in micrometres.
	TotalWire float64
	// TotalCap is the total capacitance (wire + sinks + buffer inputs) in fF.
	TotalCap float64
	// MaxDepth is the maximum number of buffers on any source-to-sink path.
	MaxDepth int
}

// Stats computes the summary for the tree.
func (t *Tree) Stats() Stats {
	s := Stats{BuffersBySize: map[string]int{}}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		switch n.Kind {
		case KindSink:
			s.Sinks++
			s.TotalCap += n.SinkCap
		case KindMerge:
			s.MergeNodes++
		}
		if n.Buffer != nil {
			s.Buffers++
			s.BuffersBySize[n.Buffer.Name]++
			s.TotalCap += n.Buffer.InputCap
			depth++
		}
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		s.TotalWire += n.WireLen
		s.TotalCap += t.Tech.WireCap(n.WireLen)
		for _, c := range n.Children {
			walk(c, depth)
		}
	}
	walk(t.Root, 0)
	return s
}

// DownstreamCap returns the capacitance seen looking into node n from its
// parent wire, stopping at buffer input pins: wire capacitance of unbuffered
// downstream wires plus sink and buffer input capacitances.  It is the load a
// driving stage sees at n.
func DownstreamCap(t *tech.Technology, n *Node) float64 {
	if n.Buffer != nil {
		return n.Buffer.InputCap
	}
	total := 0.0
	if n.Kind == KindSink {
		total += n.SinkCap
	}
	for _, c := range n.Children {
		total += t.WireCap(c.WireLen) + DownstreamCap(t, c)
	}
	return total
}
