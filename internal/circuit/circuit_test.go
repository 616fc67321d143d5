package circuit

import (
	"math"
	"strings"
	"testing"

	"repro/internal/tech"
)

func TestAddWireConservesParasitics(t *testing.T) {
	tt := tech.Default()
	for _, length := range []float64{10, 137, 999.5, 2500} {
		n := New()
		start := n.AddNode("start")
		end := n.AddWire(tt, start, length, 100)
		if end == start {
			t.Fatalf("length %v: wire did not advance", length)
		}
		var rSum, cSum float64
		for _, r := range n.Resistors {
			rSum += r.Ohms
		}
		for _, c := range n.Caps {
			cSum += c.FF
		}
		if math.Abs(rSum-tt.WireRes(length)) > 1e-9*(1+rSum) {
			t.Errorf("length %v: total R = %v, want %v", length, rSum, tt.WireRes(length))
		}
		if math.Abs(cSum-tt.WireCap(length)) > 1e-9*(1+cSum) {
			t.Errorf("length %v: total C = %v, want %v", length, cSum, tt.WireCap(length))
		}
	}
}

func TestAddWireZeroLength(t *testing.T) {
	tt := tech.Default()
	n := New()
	start := n.AddNode("start")
	if end := n.AddWire(tt, start, 0, 100); end != start {
		t.Error("zero-length wire should return the starting node")
	}
	if end := n.AddWire(tt, start, -5, 100); end != start {
		t.Error("negative-length wire should return the starting node")
	}
}

func TestAddWireSegmentation(t *testing.T) {
	tt := tech.Default()
	n := New()
	start := n.AddNode("start")
	n.AddWire(tt, start, 1000, 100)
	// 1000/100 -> at least 10 segments, implementation uses 11.
	if len(n.Resistors) < 10 {
		t.Errorf("expected >= 10 segments, got %d", len(n.Resistors))
	}
	for _, r := range n.Resistors {
		if r.Ohms > tt.WireRes(100)+1e-9 {
			t.Errorf("segment resistance %v exceeds max segment equivalent %v", r.Ohms, tt.WireRes(100))
		}
	}
}

func TestAddBufferAndSink(t *testing.T) {
	tt := tech.Default()
	n := New()
	in := n.AddNode("in")
	buf := tt.Buffers[1]
	out := n.AddBuffer("b1", buf, in)
	if out == in || out == Ground {
		t.Fatal("buffer output node invalid")
	}
	if len(n.Buffers) != 1 || n.Buffers[0].In != in || n.Buffers[0].Out != out {
		t.Fatalf("buffer instance wrong: %+v", n.Buffers)
	}
	// Input cap must have been added at the input node.
	found := false
	for _, c := range n.Caps {
		if c.Node == in && c.FF == buf.InputCap {
			found = true
		}
	}
	if !found {
		t.Error("buffer input capacitance not added")
	}
	n.AddSink("s1", out, 20)
	if len(n.Sinks) != 1 || n.Sinks[0].Cap != 20 {
		t.Error("sink not registered")
	}
	if n.TotalCap() != buf.InputCap+20 {
		t.Errorf("TotalCap = %v", n.TotalCap())
	}
}

func TestSpiceDeck(t *testing.T) {
	tt := tech.Default()
	n := New()
	src := n.AddSource("clk", tt.SourceDriveRes)
	end := n.AddWire(tt, src, 300, 100)
	out := n.AddBuffer("b1", tt.Buffers[0], end)
	n.AddSink("ff1", out, tt.SinkCapDefault)
	deck := n.SpiceDeck("test deck")
	for _, want := range []string{"* test deck", "Xb1", "BUF_X10", "Vclk", "* sink ff1", ".end"} {
		if !strings.Contains(deck, want) {
			t.Errorf("deck missing %q:\n%s", want, deck)
		}
	}
}

// TestSpiceDeckFixture pins the names of auto-named nodes and the exact deck
// text of a small netlist mixing wires, a named node, a buffer, the source
// and a sink.  Deck hashes elsewhere pin whole synthesized trees; this pins
// the naming rule itself.
func TestSpiceDeckFixture(t *testing.T) {
	tt := tech.Default()
	n := New()
	src := n.AddSource("clk", tt.SourceDriveRes)
	mid := n.AddWire(tt, src, 250, 100)
	named := n.AddNode("tap")
	n.AddResistor(mid, named, 12.5)
	out := n.AddBuffer("b1", tt.Buffers[0], named)
	end := n.AddWire(tt, out, 120, 100)
	n.AddSink("ff1", end, tt.SinkCapDefault)

	wantNames := []string{"0", "clk_out", "n2", "n3", "n4", "tap", "b1_out", "n7", "n8"}
	if n.NumNodes() != len(wantNames) {
		t.Fatalf("NumNodes = %d, want %d", n.NumNodes(), len(wantNames))
	}
	for id, want := range wantNames {
		if got := n.NodeName(NodeID(id)); got != want {
			t.Errorf("NodeName(%d) = %q, want %q", id, got, want)
		}
	}
	const wantDeck = `* fixture
R1 clk_out n2 8.33333
R2 n2 n3 8.33333
R3 n3 n4 8.33333
R4 n4 tap 12.5
R5 b1_out n7 6
R6 n7 n8 6
C1 clk_out 0 8.33333f
C2 n2 0 8.33333f
C3 n2 0 8.33333f
C4 n3 0 8.33333f
C5 n3 0 8.33333f
C6 n4 0 8.33333f
C7 tap 0 12f
C8 b1_out 0 6f
C9 n7 0 6f
C10 n7 0 6f
C11 n8 0 6f
C12 n8 0 20f
Xb1 tap b1_out BUF_X10
Vclk clk_in 0 PULSE
Rclk clk_in clk_out 25
* sink ff1 at node n8 load 20f
.end
`
	if got := n.SpiceDeck("fixture"); got != wantDeck {
		t.Errorf("deck text changed:\n%s\nwant:\n%s", got, wantDeck)
	}
}

func TestNodeNames(t *testing.T) {
	n := New()
	if n.NumNodes() != 1 || n.NodeName(Ground) != "0" {
		t.Fatal("ground node missing")
	}
	a := n.AddNode("alpha")
	b := n.AddNode("")
	if n.NodeName(a) != "alpha" {
		t.Errorf("NodeName(a) = %q", n.NodeName(a))
	}
	if n.NodeName(b) == "" {
		t.Error("auto-generated name empty")
	}
}
