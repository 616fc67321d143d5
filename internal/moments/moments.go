// Package moments implements the analytical interconnect delay models that
// Chapter 3.1 of the paper evaluates and finds insufficient for buffered
// clock tree synthesis: the Elmore delay (first moment of the impulse
// response) and higher-moment closed-form delay/slew metrics for step and
// ramp inputs.  They serve three purposes in this reproduction: as the delay
// model inside the classic DME baseline (internal/dme), as the fast fallback
// inside the analytic delay/slew library (internal/charlib), and as the
// comparison point for the accuracy experiments of Section 3.1.
package moments

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/tech"
)

// Analysis holds the first two circuit moments of every node of one RC stage,
// computed from a driving point through a resistive tree.  The per-node
// slices are indexed by circuit.NodeID over the whole netlist; nodes the
// driver does not reach read as zero.
type Analysis struct {
	// M1 is the Elmore delay (first moment) per node in ohm*fF.
	M1 []float64
	// M2 is the second moment per node in (ohm*fF)^2.
	M2 []float64
	// DownCap is the total capacitance at and below each node in fF
	// (including the node's own capacitance), as seen from the driver.
	DownCap []float64
	// TotalCap is the total capacitance of the stage in fF.
	TotalCap float64
}

// Analyze computes the moments of the RC tree reachable from driver through
// the netlist's resistors, assuming the stage is driven through driveRes
// (ohms) at the driver node.  The reachable subgraph must be a tree; a
// resistive loop is reported as an error.
func Analyze(net *circuit.Netlist, driver circuit.NodeID, driveRes float64) (*Analysis, error) {
	if driveRes < 0 {
		return nil, fmt.Errorf("moments: negative drive resistance %v", driveRes)
	}
	// Node IDs are dense, so every per-node table is a slice.  The adjacency
	// is stored compressed: node v's edges are adj[first[v]:first[v+1]], in
	// resistor order, which fixes the traversal order below.
	n := net.NumNodes()
	first := make([]int, n+1)
	for _, r := range net.Resistors {
		if r.A == circuit.Ground || r.B == circuit.Ground {
			continue
		}
		first[r.A+1]++
		first[r.B+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	adj := make([]edge, first[n])
	fill := append([]int(nil), first[:n]...)
	for _, r := range net.Resistors {
		if r.A == circuit.Ground || r.B == circuit.Ground {
			continue
		}
		adj[fill[r.A]] = edge{to: r.B, ohms: r.Ohms}
		fill[r.A]++
		adj[fill[r.B]] = edge{to: r.A, ohms: r.Ohms}
		fill[r.B]++
	}
	// One backing array holds the five per-node float tables.
	floats := make([]float64, 5*n)
	capAt, weighted := floats[:n:n], floats[n:2*n:2*n]
	a := &Analysis{M1: floats[2*n : 3*n : 3*n], M2: floats[3*n : 4*n : 4*n], DownCap: floats[4*n:]}
	for _, c := range net.Caps {
		capAt[c.Node] += c.FF
	}

	// Breadth-first traversal from the driver, recording parent edges.
	type frame struct {
		node   circuit.NodeID
		parent circuit.NodeID
		ohms   float64
	}
	order := make([]frame, 1, n)
	order[0] = frame{node: driver, parent: driver, ohms: driveRes}
	seen := make([]bool, n)
	seen[driver] = true
	for i := 0; i < len(order); i++ {
		f := order[i]
		for _, e := range adj[first[f.node]:first[f.node+1]] {
			if seen[e.to] {
				if e.to != f.parent {
					return nil, fmt.Errorf("moments: resistive loop detected at node %d", e.to)
				}
				continue
			}
			seen[e.to] = true
			order = append(order, frame{node: e.to, parent: f.node, ohms: e.ohms})
		}
	}

	// Post-order: accumulate downstream capacitance.
	for i := len(order) - 1; i >= 0; i-- {
		f := order[i]
		a.DownCap[f.node] += capAt[f.node]
		if i > 0 {
			a.DownCap[f.parent] += a.DownCap[f.node]
		}
	}
	a.TotalCap = a.DownCap[driver]

	// Pre-order: first moment m1(child) = m1(parent) + R_edge * DownCap(child).
	// The driver itself sees the drive resistance times the total capacitance.
	for _, f := range order {
		if f.node == driver {
			a.M1[driver] = driveRes * a.TotalCap
			continue
		}
		a.M1[f.node] = a.M1[f.parent] + f.ohms*a.DownCap[f.node]
	}

	// Post-order: weighted capacitance sums T(v) = sum_{k in subtree(v)} C_k * m1(k).
	for i := len(order) - 1; i >= 0; i-- {
		f := order[i]
		weighted[f.node] += capAt[f.node] * a.M1[f.node]
		if i > 0 {
			weighted[f.parent] += weighted[f.node]
		}
	}
	// Pre-order: second moment m2(child) = m2(parent) + R_edge * T(child).
	for _, f := range order {
		if f.node == driver {
			a.M2[driver] = driveRes * weighted[driver]
			continue
		}
		a.M2[f.node] = a.M2[f.parent] + f.ohms*weighted[f.node]
	}
	return a, nil
}

type edge struct {
	to   circuit.NodeID
	ohms float64
}

// Elmore returns the Elmore delay (first moment) of the node in picoseconds.
func (a *Analysis) Elmore(node circuit.NodeID) float64 {
	return a.M1[node] * tech.PsPerOhmFF
}

// DelayD2M returns the D2M two-moment delay metric for a step input in
// picoseconds: ln2 * m1^2 / sqrt(m2).  For a single-pole response it reduces
// to the exact 50% delay ln2 * tau; for general RC trees it corrects the
// well-known pessimism of the Elmore value.
func (a *Analysis) DelayD2M(node circuit.NodeID) float64 {
	m1, m2 := a.M1[node], a.M2[node]
	if m2 <= 0 {
		return math.Ln2 * m1 * tech.PsPerOhmFF
	}
	return math.Ln2 * m1 * m1 / math.Sqrt(m2) * tech.PsPerOhmFF
}

// SlewStep returns the 10%-90% output transition for an ideal step input in
// picoseconds, using the variance (central second moment) of the impulse
// response: slew = ln9 * sqrt(2*m2 - m1^2).  For a single-pole response it
// reduces to the exact ln9 * tau.
func (a *Analysis) SlewStep(node circuit.NodeID) float64 {
	m1, m2 := a.M1[node], a.M2[node]
	variance := 2*m2 - m1*m1
	if variance < 0 {
		variance = 0
	}
	return tech.Ln9 * math.Sqrt(variance) * tech.PsPerOhmFF
}

// SlewRamp extends SlewStep to a ramp (finite-slew) input using the PERI-style
// root-sum-square combination: slew_out = sqrt(slew_step^2 + slew_in^2).
func (a *Analysis) SlewRamp(node circuit.NodeID, inputSlew float64) float64 {
	s := a.SlewStep(node)
	return math.Sqrt(s*s + inputSlew*inputSlew)
}

// WireElmore returns the Elmore delay in picoseconds of a uniform wire of the
// given length (um) driven by driveRes (ohms) and loaded by loadCap (fF),
// using the standard lumped expressions.  It is the closed-form special case
// used throughout the classic DME merge-segment computation (Section 2.2).
func WireElmore(t *tech.Technology, driveRes, length, loadCap float64) float64 {
	r := t.WireRes(length)
	c := t.WireCap(length)
	return (driveRes*(c+loadCap) + r*(c/2+loadCap)) * tech.PsPerOhmFF
}
