package clocktree

import (
	"math"
	"strings"
	"testing"

	"repro/internal/charlib"
	"repro/internal/geom"
	"repro/internal/spice"
	"repro/internal/tech"
)

// buildSymmetricTree builds a two-level buffered H-like tree with four sinks,
// perfectly symmetric around the source.
func buildSymmetricTree(tt *tech.Technology) *Tree {
	tree := New(tt, geom.Pt(0, 0))
	rootBuf := tt.Buffers[2]
	levelBuf := tt.Buffers[1]

	a := &Node{Name: "root_buf", Kind: KindRouting, Pos: geom.Pt(0, 0), Buffer: &rootBuf}
	tree.Root.AddChild(a, 0)

	left := &Node{Name: "left", Kind: KindMerge, Pos: geom.Pt(-800, 0), Buffer: &levelBuf}
	right := &Node{Name: "right", Kind: KindMerge, Pos: geom.Pt(800, 0), Buffer: &levelBuf}
	a.AddChild(left, 800)
	a.AddChild(right, 800)

	s1 := &Node{Name: "s1", Kind: KindSink, Pos: geom.Pt(-1200, 0), SinkCap: tt.SinkCapDefault}
	s2 := &Node{Name: "s2", Kind: KindSink, Pos: geom.Pt(-400, 0), SinkCap: tt.SinkCapDefault}
	s3 := &Node{Name: "s3", Kind: KindSink, Pos: geom.Pt(400, 0), SinkCap: tt.SinkCapDefault}
	s4 := &Node{Name: "s4", Kind: KindSink, Pos: geom.Pt(1200, 0), SinkCap: tt.SinkCapDefault}
	left.AddChild(s1, 400)
	left.AddChild(s2, 400)
	right.AddChild(s3, 400)
	right.AddChild(s4, 400)
	return tree
}

func TestValidateAcceptsWellFormedTree(t *testing.T) {
	tree := buildSymmetricTree(tech.Default())
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsMalformedTrees(t *testing.T) {
	tt := tech.Default()
	cases := []struct {
		name   string
		mutate func(*Tree)
	}{
		{"sink with children", func(tr *Tree) {
			sink := Sinks(tr.Root)[0]
			sink.AddChild(&Node{Kind: KindRouting, Pos: sink.Pos}, 0)
		}},
		{"wire shorter than distance", func(tr *Tree) {
			tr.Root.Children[0].Children[0].WireLen = 10
		}},
		{"negative wire", func(tr *Tree) {
			tr.Root.Children[0].Children[0].WireLen = -1
		}},
		{"broken parent link", func(tr *Tree) {
			tr.Root.Children[0].Children[0].Parent = tr.Root
		}},
		{"zero sink cap", func(tr *Tree) {
			Sinks(tr.Root)[0].SinkCap = 0
		}},
		{"shared node", func(tr *Tree) {
			shared := Sinks(tr.Root)[0]
			other := tr.Root.Children[0].Children[1]
			other.Children = append(other.Children, shared)
		}},
	}
	for _, tc := range cases {
		tree := buildSymmetricTree(tt)
		tc.mutate(tree)
		if err := tree.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	empty := &Tree{Tech: tt}
	if err := empty.Validate(); err == nil {
		t.Error("nil root: expected error")
	}
	wrongRoot := &Tree{Tech: tt, Root: &Node{Kind: KindSink, SinkCap: 1}}
	if err := wrongRoot.Validate(); err == nil {
		t.Error("non-source root: expected error")
	}
}

func TestStatsCountsComponents(t *testing.T) {
	tt := tech.Default()
	tree := buildSymmetricTree(tt)
	s := tree.Stats()
	if s.Sinks != 4 {
		t.Errorf("Sinks = %d, want 4", s.Sinks)
	}
	if s.Buffers != 3 {
		t.Errorf("Buffers = %d, want 3", s.Buffers)
	}
	if s.BuffersBySize["BUF_X20"] != 2 || s.BuffersBySize["BUF_X30"] != 1 {
		t.Errorf("BuffersBySize = %v", s.BuffersBySize)
	}
	if s.MergeNodes != 2 {
		t.Errorf("MergeNodes = %d, want 2", s.MergeNodes)
	}
	if want := 800.0*2 + 400.0*4; s.TotalWire != want {
		t.Errorf("TotalWire = %v, want %v", s.TotalWire, want)
	}
	if s.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", s.MaxDepth)
	}
	if s.TotalCap <= 0 {
		t.Error("TotalCap must be positive")
	}
}

func TestDownstreamCap(t *testing.T) {
	tt := tech.Default()
	tree := buildSymmetricTree(tt)
	// A buffered node presents only its buffer input capacitance.
	left := tree.Root.Children[0].Children[0]
	if got := DownstreamCap(tt, left); got != left.Buffer.InputCap {
		t.Errorf("buffered DownstreamCap = %v, want %v", got, left.Buffer.InputCap)
	}
	// A sink presents its own capacitance.
	sink := Sinks(tree.Root)[0]
	if got := DownstreamCap(tt, sink); got != sink.SinkCap {
		t.Errorf("sink DownstreamCap = %v, want %v", got, sink.SinkCap)
	}
	// An unbuffered internal node presents wire + downstream loads.
	unbuffered := &Node{Kind: KindMerge, Pos: geom.Pt(0, 0)}
	sa := &Node{Kind: KindSink, Pos: geom.Pt(100, 0), SinkCap: 10}
	sb := &Node{Kind: KindSink, Pos: geom.Pt(-100, 0), SinkCap: 15}
	unbuffered.AddChild(sa, 100)
	unbuffered.AddChild(sb, 100)
	want := tt.WireCap(200) + 25
	if got := DownstreamCap(tt, unbuffered); math.Abs(got-want) > 1e-9 {
		t.Errorf("unbuffered DownstreamCap = %v, want %v", got, want)
	}
}

func TestAnalyzeSymmetricTreeHasZeroSkew(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	tree := buildSymmetricTree(tt)
	tm, err := Analyze(tree, lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Skew > 1e-9 {
		t.Errorf("symmetric tree skew = %v, want 0", tm.Skew)
	}
	if len(tm.SinkDelay) != 4 {
		t.Errorf("expected 4 sink delays, got %d", len(tm.SinkDelay))
	}
	if tm.MaxLatency <= 0 || tm.WorstSlew <= 0 {
		t.Errorf("latency %v and worst slew %v must be positive", tm.MaxLatency, tm.WorstSlew)
	}
}

func TestAnalyzeMatchesVerification(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	tree := buildSymmetricTree(tt)

	tm, err := Analyze(tree, lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := Verify(tree, spice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vr.Skew > 0.5 {
		t.Errorf("simulated skew of a symmetric tree = %v ps, want ~0", vr.Skew)
	}
	// The analytic engine is approximate; latency should agree within 30%.
	if rel := math.Abs(tm.MaxLatency-vr.MaxLatency) / vr.MaxLatency; rel > 0.30 {
		t.Errorf("analytic latency %v vs simulated %v (rel %.2f), want within 30%%", tm.MaxLatency, vr.MaxLatency, rel)
	}
	if rel := math.Abs(tm.WorstSlew-vr.WorstSlew) / vr.WorstSlew; rel > 0.5 {
		t.Errorf("analytic worst slew %v vs simulated %v, too far apart", tm.WorstSlew, vr.WorstSlew)
	}
}

func TestAnalyzeDetectsAsymmetry(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	tree := buildSymmetricTree(tt)
	// Snake the wire to one sink: same endpoints, longer wire.
	victim := Sinks(tree.Root)[0]
	victim.WireLen = 1200

	tm, err := Analyze(tree, lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Skew <= 0 {
		t.Fatal("expected positive skew after snaking one branch")
	}
	vr, err := Verify(tree, spice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vr.Skew <= 0 {
		t.Fatal("verification should also see positive skew")
	}
	// The victim sink must be the slowest in both views.
	var slowestAna, slowestSim *Node
	for n, d := range tm.SinkDelay {
		if slowestAna == nil || d > tm.SinkDelay[slowestAna] {
			slowestAna = n
		}
	}
	for n, d := range vr.SinkDelay {
		if slowestSim == nil || d > vr.SinkDelay[slowestSim] {
			slowestSim = n
		}
	}
	if slowestAna != victim || slowestSim != victim {
		t.Errorf("slowest sink mismatch: analytic %v, simulated %v, want %v", slowestAna.Name, slowestSim.Name, victim.Name)
	}
}

func TestBuildNetlistStructure(t *testing.T) {
	tt := tech.Default()
	tree := buildSymmetricTree(tt)
	net, pins, err := BuildNetlist(tree, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Buffers) != 3 {
		t.Errorf("netlist buffers = %d, want 3", len(net.Buffers))
	}
	if len(net.Sinks) != 4 {
		t.Errorf("netlist sinks = %d, want 4", len(net.Sinks))
	}
	if len(net.Sources) != 1 {
		t.Errorf("netlist sources = %d, want 1", len(net.Sources))
	}
	for _, n := range tree.Nodes() {
		if _, ok := pins[n]; !ok {
			t.Errorf("no pin recorded for node %q", n.Name)
		}
	}
	deck := net.SpiceDeck("tree")
	if !strings.Contains(deck, "BUF_X30") || !strings.Contains(deck, "sink") {
		t.Error("deck missing expected elements")
	}
}

func TestAnalyzeUsesBranchAndChainFastPaths(t *testing.T) {
	// The symmetric tree exercises the branch fast path (two chains from a
	// buffered driver).  Add an intermediate routing node to one branch so a
	// chain of two wires is collapsed, and a third child to force the general
	// moment-based path; all must produce consistent positive delays.
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	tree := buildSymmetricTree(tt)

	right := tree.Root.Children[0].Children[1]
	s4 := right.Children[1]
	// Interpose a routing node halfway to s4.
	right.Children = right.Children[:1]
	mid := &Node{Name: "mid", Kind: KindRouting, Pos: geom.Pt(1000, 0)}
	right.AddChild(mid, 200)
	s4.Parent = nil
	mid.AddChild(s4, 200)

	// Give the left node a third child to force the general path.
	left := tree.Root.Children[0].Children[0]
	extra := &Node{Name: "s5", Kind: KindSink, Pos: geom.Pt(-800, 300), SinkCap: tt.SinkCapDefault}
	left.AddChild(extra, 300)

	tm, err := Analyze(tree, lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tm.SinkDelay) != 5 {
		t.Fatalf("expected 5 sinks, got %d", len(tm.SinkDelay))
	}
	for n, d := range tm.SinkDelay {
		if d <= 0 || math.IsNaN(d) {
			t.Errorf("sink %q has bad delay %v", n.Name, d)
		}
	}
}
