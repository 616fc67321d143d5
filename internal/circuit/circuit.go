// Package circuit builds RC netlists for clock-tree components: wires are
// expanded into pi-segment ladders, buffers appear as behavioural instances
// that partition the netlist into independently solvable RC stages, and sinks
// contribute their load capacitance.  The netlist is the exchange format
// between the clock-tree data structure (internal/clocktree), the transient
// simulator that substitutes for SPICE (internal/spice) and the moment-based
// analytical models (internal/moments).
package circuit

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/tech"
)

// NodeID identifies an electrical node in a netlist.  Ground is node 0.
type NodeID int

// Ground is the reference node of every netlist.
const Ground NodeID = 0

// Resistor is a two-terminal resistance in ohms.
type Resistor struct {
	A, B NodeID
	Ohms float64
}

// Cap is a grounded capacitance in fF.
type Cap struct {
	Node NodeID
	FF   float64
}

// BufferInst is an instance of a library buffer.  Its input pin presents
// Buffer.InputCap at In (added automatically by AddBuffer); its output drives
// Out through the buffer's behavioural model.
type BufferInst struct {
	Name   string
	Buffer tech.Buffer
	In     NodeID
	Out    NodeID
}

// Source is the clock source: an ideal stimulus behind DriveRes driving Out.
type Source struct {
	Name     string
	Out      NodeID
	DriveRes float64
}

// Sink is a clock sink (flip-flop clock pin) with its load capacitance.
type Sink struct {
	Name string
	Node NodeID
	Cap  float64
}

// Netlist is a flat RC + buffer netlist.
type Netlist struct {
	// nodeNames holds each node's name; "" marks an auto-named node, whose
	// name NodeName derives from its ID only when asked.
	nodeNames []string

	Resistors []Resistor
	Caps      []Cap
	Buffers   []BufferInst
	Sources   []Source
	Sinks     []Sink
}

// New returns an empty netlist containing only the ground node.
func New() *Netlist {
	return &Netlist{nodeNames: []string{"0"}}
}

// AddNode creates a new node and returns its ID.  An empty name is replaced
// with an automatically generated one, "n<ID>".
func (n *Netlist) AddNode(name string) NodeID {
	id := NodeID(len(n.nodeNames))
	n.nodeNames = append(n.nodeNames, name)
	return id
}

// NumNodes returns the number of nodes including ground.
func (n *Netlist) NumNodes() int { return len(n.nodeNames) }

// NodeName returns the name of the given node.
func (n *Netlist) NodeName(id NodeID) string {
	if name := n.nodeNames[id]; name != "" {
		return name
	}
	return "n" + strconv.Itoa(int(id))
}

// AddResistor adds a resistance between two nodes.
func (n *Netlist) AddResistor(a, b NodeID, ohms float64) {
	n.Resistors = append(n.Resistors, Resistor{A: a, B: b, Ohms: ohms})
}

// AddCap adds a grounded capacitance at the node.
func (n *Netlist) AddCap(node NodeID, ff float64) {
	if ff == 0 {
		return
	}
	n.Caps = append(n.Caps, Cap{Node: node, FF: ff})
}

// AddWire appends a wire of the given length (um) starting at from, expanded
// into pi segments no longer than maxSeg, and returns the far-end node.  A
// zero or negative length returns from unchanged.
func (n *Netlist) AddWire(t *tech.Technology, from NodeID, length, maxSeg float64) NodeID {
	if length <= 0 {
		return from
	}
	if maxSeg <= 0 {
		maxSeg = 100
	}
	segs := int(length/maxSeg) + 1
	segLen := length / float64(segs)
	cur := from
	for i := 0; i < segs; i++ {
		next := n.AddNode("")
		r := t.WireRes(segLen)
		c := t.WireCap(segLen)
		n.AddCap(cur, c/2)
		n.AddResistor(cur, next, r)
		n.AddCap(next, c/2)
		cur = next
	}
	return cur
}

// AddBuffer instantiates a buffer with its input at in.  The buffer's input
// capacitance is added at in and a fresh output node is created and returned.
func (n *Netlist) AddBuffer(name string, buf tech.Buffer, in NodeID) NodeID {
	out := n.AddNode(name + "_out")
	n.AddCap(in, buf.InputCap)
	n.Buffers = append(n.Buffers, BufferInst{Name: name, Buffer: buf, In: in, Out: out})
	return out
}

// AddSource registers the clock source driving a fresh node, which is
// returned.
func (n *Netlist) AddSource(name string, driveRes float64) NodeID {
	out := n.AddNode(name + "_out")
	n.Sources = append(n.Sources, Source{Name: name, Out: out, DriveRes: driveRes})
	return out
}

// AddSink registers a clock sink with the given load capacitance at the node.
func (n *Netlist) AddSink(name string, node NodeID, capFF float64) {
	n.AddCap(node, capFF)
	n.Sinks = append(n.Sinks, Sink{Name: name, Node: node, Cap: capFF})
}

// TotalCap returns the total grounded capacitance in the netlist, in fF.
func (n *Netlist) TotalCap() float64 {
	var sum float64
	for _, c := range n.Caps {
		sum += c.FF
	}
	return sum
}

// SpiceDeck renders the netlist as a human-readable SPICE-like deck.  Buffer
// instances are emitted as subcircuit calls; the deck is meant for inspection
// and for feeding an external simulator, it is not consumed by this module.
func (n *Netlist) SpiceDeck(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %s\n", title)
	for i, r := range n.Resistors {
		fmt.Fprintf(&b, "R%d %s %s %.6g\n", i+1, n.NodeName(r.A), n.NodeName(r.B), r.Ohms)
	}
	for i, c := range n.Caps {
		fmt.Fprintf(&b, "C%d %s 0 %.6gf\n", i+1, n.NodeName(c.Node), c.FF)
	}
	for _, buf := range n.Buffers {
		fmt.Fprintf(&b, "X%s %s %s %s\n", buf.Name, n.NodeName(buf.In), n.NodeName(buf.Out), buf.Buffer.Name)
	}
	for _, s := range n.Sources {
		fmt.Fprintf(&b, "V%s %s_in 0 PULSE\nR%s %s_in %s %.6g\n", s.Name, s.Name, s.Name, s.Name, n.NodeName(s.Out), s.DriveRes)
	}
	for _, s := range n.Sinks {
		fmt.Fprintf(&b, "* sink %s at node %s load %.6gf\n", s.Name, n.NodeName(s.Node), s.Cap)
	}
	b.WriteString(".end\n")
	return b.String()
}
