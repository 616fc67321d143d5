package clocktree

import (
	"fmt"
	"math"

	"repro/internal/charlib"
	"repro/internal/circuit"
	"repro/internal/moments"
	"repro/internal/tech"
)

// Timing is the result of the library-based timing analysis used during and
// after synthesis (Section 3.2.3).  Delays are measured from the clock source
// stimulus; slews are 10-90% transition times.  All values are in ps.
type Timing struct {
	// SinkDelay is the source-to-sink delay per sink node.
	SinkDelay map[*Node]float64
	// SinkSlew is the transition time at each sink.
	SinkSlew map[*Node]float64
	// NodeSlew is the transition time at every stage load point (buffer input
	// pins and sinks); it is what the slew constraint is checked against.
	NodeSlew map[*Node]float64
	// NodeDelay is the source-to-node delay at every stage load point.
	NodeDelay map[*Node]float64
	// WorstSlew is the maximum entry of NodeSlew.
	WorstSlew float64
	// Skew is MaxLatency - MinLatency over all sinks.
	Skew float64
	// MaxLatency and MinLatency are the extreme source-to-sink delays.
	MaxLatency, MinLatency float64
}

// Analyze runs library-based timing analysis over the whole tree, propagating
// delay and slew top-down from the clock source.  sourceSlew is the
// transition time presented at the clock source input; zero selects the
// technology default.
func Analyze(t *Tree, lib *charlib.Library, sourceSlew float64) (*Timing, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if sourceSlew <= 0 {
		sourceSlew = t.Tech.SourceSlew
	}
	tm := &Timing{
		SinkDelay: map[*Node]float64{},
		SinkSlew:  map[*Node]float64{},
		NodeSlew:  map[*Node]float64{},
		NodeDelay: map[*Node]float64{},
	}

	type work struct {
		driver    *Node
		inputSlew float64
		delay     float64 // source-to-driver-input delay
	}
	queue := []work{{driver: t.Root, inputSlew: sourceSlew, delay: 0}}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		loads, err := evalStage(t.Tech, lib, w.driver, w.inputSlew)
		if err != nil {
			return nil, err
		}
		for _, ld := range loads {
			delay := w.delay + ld.delay
			tm.NodeSlew[ld.node] = math.Max(tm.NodeSlew[ld.node], ld.slew)
			tm.NodeDelay[ld.node] = delay
			if ld.node.Kind == KindSink {
				tm.SinkDelay[ld.node] = delay
				tm.SinkSlew[ld.node] = ld.slew
				continue
			}
			queue = append(queue, work{driver: ld.node, inputSlew: ld.slew, delay: delay})
		}
	}

	tm.MinLatency = math.Inf(1)
	//ctslint:allow determinism -- min and max are order-free reductions; no element order escapes
	for _, d := range tm.SinkDelay {
		tm.MaxLatency = math.Max(tm.MaxLatency, d)
		tm.MinLatency = math.Min(tm.MinLatency, d)
	}
	if len(tm.SinkDelay) == 0 {
		return nil, fmt.Errorf("clocktree: timing analysis reached no sinks")
	}
	tm.Skew = tm.MaxLatency - tm.MinLatency
	//ctslint:allow determinism -- max is an order-free reduction; no element order escapes
	for _, s := range tm.NodeSlew {
		tm.WorstSlew = math.Max(tm.WorstSlew, s)
	}
	return tm, nil
}

// stageLoad is one boundary point of a stage: a buffered node's input pin or
// a sink, with its delay from the stage driver's input pin and its slew.
type stageLoad struct {
	node  *Node
	delay float64
	slew  float64
}

// evalStage computes the delay and slew from the driver node (the clock
// source or a buffered node) to every stage load: the nearest buffered
// descendants and sinks.
func evalStage(t *tech.Technology, lib *charlib.Library, driver *Node, inputSlew float64) ([]stageLoad, error) {
	if len(driver.Children) == 0 {
		return nil, fmt.Errorf("clocktree: stage driver %q has no children", driver.Name)
	}

	// The source has no buffer: it drives the stage through its drive
	// resistance with the stimulus transition; evaluate it with the general
	// moment-based path.
	if driver.Kind == KindSource {
		return evalStageGeneral(t, driver, t.SourceDriveRes, 0, inputSlew)
	}
	if driver.Buffer == nil {
		return nil, fmt.Errorf("clocktree: stage driver %q is neither the source nor buffered", driver.Name)
	}
	buf := *driver.Buffer

	// Single chain: driver -> ... -> single load with no branching.
	if chain, load, ok := chainToLoad(driver); ok {
		cap := loadCapOf(t, load)
		tm := lib.SingleWire(buf, cap, inputSlew, chain)
		return []stageLoad{{node: load, delay: tm.BufferDelay + tm.WireDelay, slew: tm.OutputSlew}}, nil
	}

	// Branch at the driver: exactly two children, each a pure chain.
	if len(driver.Children) == 2 {
		lLen, lLoad, lok := chainFromEdge(driver.Children[0])
		rLen, rLoad, rok := chainFromEdge(driver.Children[1])
		if lok && rok {
			bt := lib.Branch(buf, inputSlew, lLen, rLen, loadCapOf(t, lLoad), loadCapOf(t, rLoad))
			return []stageLoad{
				{node: lLoad, delay: bt.BufferDelay + bt.LeftDelay, slew: bt.LeftSlew},
				{node: rLoad, delay: bt.BufferDelay + bt.RightDelay, slew: bt.RightSlew},
			}, nil
		}
	}

	// General stage: moment-based wire analysis plus the library's buffer
	// delay for the driver.
	totalWire, totalCap := stageWireAndCap(t, driver)
	bufDelay := lib.SingleWire(buf, totalCap, inputSlew, math.Max(totalWire, 1)).BufferDelay
	edgeSlew := 1.2 * buf.InternalTau
	return evalStageGeneral(t, driver, buf.DriveRes, bufDelay, edgeSlew)
}

// evalStageGeneral evaluates an arbitrary stage RC tree with moment metrics.
// driverDelay is added to every load delay (the driver buffer's own delay);
// edgeSlew is the transition the driver presents behind its resistance.
func evalStageGeneral(t *tech.Technology, driver *Node, driveRes, driverDelay, edgeSlew float64) ([]stageLoad, error) {
	net := circuit.New()
	rootEl := net.AddNode("stage_root")
	elOf := map[*Node]circuit.NodeID{driver: rootEl}
	var loads []*Node

	var build func(parent *Node, parentEl circuit.NodeID)
	build = func(parent *Node, parentEl circuit.NodeID) {
		for _, c := range parent.Children {
			end := net.AddWire(t, parentEl, c.WireLen, 100)
			elOf[c] = end
			if isStageLoad(c) {
				net.AddCap(end, loadCapOf(t, c))
				loads = append(loads, c)
				continue
			}
			build(c, end)
		}
	}
	build(driver, rootEl)
	if len(loads) == 0 {
		return nil, fmt.Errorf("clocktree: stage under %q has no loads", driver.Name)
	}

	a, err := moments.Analyze(net, rootEl, driveRes)
	if err != nil {
		return nil, fmt.Errorf("clocktree: stage under %q: %w", driver.Name, err)
	}
	out := make([]stageLoad, 0, len(loads))
	for _, ld := range loads {
		el := elOf[ld]
		out = append(out, stageLoad{
			node:  ld,
			delay: driverDelay + a.DelayD2M(el),
			slew:  a.SlewRamp(el, edgeSlew),
		})
	}
	return out, nil
}

// isStageLoad reports whether the node terminates a timing stage.
func isStageLoad(n *Node) bool { return n.Buffer != nil || n.Kind == KindSink }

// loadCapOf returns the capacitance a stage sees at a load node.
func loadCapOf(t *tech.Technology, n *Node) float64 {
	if n.Buffer != nil {
		return n.Buffer.InputCap
	}
	if n.Kind == KindSink {
		return n.SinkCap
	}
	return DownstreamCap(t, n)
}

// chainToLoad checks whether the stage under driver is a single unbranched
// chain and returns its total wire length and load.
func chainToLoad(driver *Node) (float64, *Node, bool) {
	if len(driver.Children) != 1 {
		return 0, nil, false
	}
	return chainFromEdge(driver.Children[0])
}

// chainFromEdge follows the chain starting with the edge into first and
// returns the accumulated length up to the first stage load, requiring that
// no branching occurs before it.
func chainFromEdge(first *Node) (float64, *Node, bool) {
	length := first.WireLen
	cur := first
	for !isStageLoad(cur) {
		if len(cur.Children) != 1 {
			return 0, nil, false
		}
		cur = cur.Children[0]
		length += cur.WireLen
	}
	return length, cur, true
}

// stageWireAndCap returns the total wire length and load capacitance of the
// stage below driver (up to and including the stage loads).
func stageWireAndCap(t *tech.Technology, driver *Node) (wire, load float64) {
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			wire += c.WireLen
			load += t.WireCap(c.WireLen)
			if isStageLoad(c) {
				load += loadCapOf(t, c)
				continue
			}
			walk(c)
		}
	}
	walk(driver)
	return wire, load
}
