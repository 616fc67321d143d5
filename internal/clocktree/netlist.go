package clocktree

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/circuit"
	"repro/internal/spice"
)

// BuildNetlist flattens the tree into an RC + buffer netlist suitable for
// transient simulation or deck export.  maxSeg is the maximum pi-segment
// length in micrometres (zero selects 100).  The returned map gives the
// electrical node of each tree node's "pin": the buffer output for buffered
// nodes, the wire end otherwise.
func BuildNetlist(t *Tree, maxSeg float64) (*circuit.Netlist, map[*Node]circuit.NodeID, error) {
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	if maxSeg <= 0 {
		maxSeg = 100
	}
	net := circuit.New()
	pins := make(map[*Node]circuit.NodeID)

	srcOut := net.AddSource("clk", t.Tech.SourceDriveRes)
	pins[t.Root] = srcOut

	bufCount := 0
	sinkCount := 0
	var build func(parent *Node) error
	build = func(parent *Node) error {
		parentPin := pins[parent]
		for _, c := range parent.Children {
			end := net.AddWire(t.Tech, parentPin, c.WireLen, maxSeg)
			switch {
			case c.Buffer != nil:
				bufCount++
				out := net.AddBuffer(fmt.Sprintf("buf%d_%s", bufCount, c.Buffer.Name), *c.Buffer, end)
				pins[c] = out
				if c.Kind == KindSink {
					return fmt.Errorf("clocktree: sink %q carries a buffer", c.Name)
				}
			case c.Kind == KindSink:
				sinkCount++
				name := c.Name
				if name == "" {
					name = fmt.Sprintf("sink%d", sinkCount)
				}
				net.AddSink(name, end, c.SinkCap)
				pins[c] = end
			default:
				pins[c] = end
			}
			if err := build(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(t.Root); err != nil {
		return nil, nil, err
	}
	return net, pins, nil
}

// VerifyResult holds the golden (transient simulation) measurements of a
// synthesized tree — the counterpart of the SPICE numbers reported in Tables
// 5.1 and 5.2.
type VerifyResult struct {
	// WorstSlew is the maximum 10-90% transition over all probed nodes
	// (buffer inputs, buffer outputs and sinks), in ps.
	WorstSlew float64
	// Skew is the difference between the slowest and fastest sink, in ps.
	Skew float64
	// MaxLatency and MinLatency are the extreme source-to-sink delays in ps.
	MaxLatency, MinLatency float64
	// SinkDelay maps sink nodes to their simulated delay.
	SinkDelay map[*Node]float64
	// SinkSlew maps sink nodes to their simulated slew.
	SinkSlew map[*Node]float64
	// Stages is the number of RC stages the simulator solved.
	Stages int
}

// Verify runs the transient simulator over the flattened tree and extracts
// worst slew, skew and latency.  opt.TimeStep of zero selects 1 ps, which is
// accurate to a fraction of a picosecond for clock-tree-sized stages.
func Verify(t *Tree, opt spice.Options) (*VerifyResult, error) {
	if opt.TimeStep <= 0 {
		opt.TimeStep = 1
	}
	net, pins, err := BuildNetlist(t, 100)
	if err != nil {
		return nil, err
	}
	res, err := spice.Simulate(net, t.Tech, opt)
	if err != nil {
		return nil, err
	}

	out := &VerifyResult{
		SinkDelay:  map[*Node]float64{},
		SinkSlew:   map[*Node]float64{},
		MinLatency: math.Inf(1),
		Stages:     res.Stages,
	}
	// Worst slew over every probed electrical node.  A node that never reaches
	// the high measurement threshold within the simulation window is a gross
	// slew violation (it happens for severely under-buffered baseline trees);
	// record the elapsed window as a lower bound instead of failing.  Nodes
	// go in id order, so the error names the same node on every run.
	for _, id := range slices.Sorted(maps.Keys(res.Node)) {
		w := res.Node[id]
		s, err := res.SlewAt(id)
		if err != nil {
			if len(w.Times) > 1 {
				s = w.Times[len(w.Times)-1] - w.Times[0]
			} else {
				return nil, fmt.Errorf("clocktree: verify slew: %w", err)
			}
		}
		out.WorstSlew = math.Max(out.WorstSlew, s)
	}
	// Sink delays and slews.  As above, a sink that has not completed its
	// transition within the simulation window is recorded with the window as
	// a lower bound rather than failing the whole verification.
	for _, n := range t.Nodes() {
		if n.Kind != KindSink {
			continue
		}
		pin := pins[n]
		w := res.Node[pin]
		windowEnd := 0.0
		if w != nil && len(w.Times) > 0 {
			windowEnd = w.Times[len(w.Times)-1]
		}
		d, err := res.DelayTo(pin)
		if err != nil {
			if windowEnd == 0 {
				return nil, fmt.Errorf("clocktree: verify delay at sink %q: %w", n.Name, err)
			}
			d = windowEnd
		}
		s, err := res.SlewAt(pin)
		if err != nil {
			if windowEnd == 0 {
				return nil, fmt.Errorf("clocktree: verify slew at sink %q: %w", n.Name, err)
			}
			s = windowEnd - w.Times[0]
		}
		out.SinkDelay[n] = d
		out.SinkSlew[n] = s
		out.MaxLatency = math.Max(out.MaxLatency, d)
		out.MinLatency = math.Min(out.MinLatency, d)
	}
	if len(out.SinkDelay) == 0 {
		return nil, fmt.Errorf("clocktree: verification found no sinks")
	}
	out.Skew = out.MaxLatency - out.MinLatency
	return out, nil
}
