package moments

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/spice"
	"repro/internal/tech"
)

// mapAnalysis and analyzeMaps are a map-backed reference implementation of
// Analyze: the same traversal and the same float operations, with every
// per-node table a map.  TestAnalyzeMatchesMapOracle holds the dense
// implementation to it bit for bit.
type mapAnalysis struct {
	M1, M2, DownCap map[circuit.NodeID]float64
	TotalCap        float64
}

func analyzeMaps(net *circuit.Netlist, driver circuit.NodeID, driveRes float64) (*mapAnalysis, error) {
	if driveRes < 0 {
		return nil, fmt.Errorf("moments: negative drive resistance %v", driveRes)
	}
	adj := make(map[circuit.NodeID][]edge)
	for _, r := range net.Resistors {
		if r.A == circuit.Ground || r.B == circuit.Ground {
			continue
		}
		adj[r.A] = append(adj[r.A], edge{to: r.B, ohms: r.Ohms})
		adj[r.B] = append(adj[r.B], edge{to: r.A, ohms: r.Ohms})
	}
	capAt := make(map[circuit.NodeID]float64)
	for _, c := range net.Caps {
		capAt[c.Node] += c.FF
	}

	type frame struct {
		node   circuit.NodeID
		parent circuit.NodeID
		ohms   float64
	}
	order := []frame{{node: driver, parent: driver, ohms: driveRes}}
	seen := map[circuit.NodeID]bool{driver: true}
	for i := 0; i < len(order); i++ {
		f := order[i]
		for _, e := range adj[f.node] {
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

	a := &mapAnalysis{
		M1:      make(map[circuit.NodeID]float64, len(order)),
		M2:      make(map[circuit.NodeID]float64, len(order)),
		DownCap: make(map[circuit.NodeID]float64, len(order)),
	}
	for i := len(order) - 1; i >= 0; i-- {
		f := order[i]
		a.DownCap[f.node] += capAt[f.node]
		if i > 0 {
			a.DownCap[f.parent] += a.DownCap[f.node]
		}
	}
	a.TotalCap = a.DownCap[driver]
	for _, f := range order {
		if f.node == driver {
			a.M1[driver] = driveRes * a.TotalCap
			continue
		}
		a.M1[f.node] = a.M1[f.parent] + f.ohms*a.DownCap[f.node]
	}
	weighted := make(map[circuit.NodeID]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		f := order[i]
		weighted[f.node] += capAt[f.node] * a.M1[f.node]
		if i > 0 {
			weighted[f.parent] += weighted[f.node]
		}
	}
	for _, f := range order {
		if f.node == driver {
			a.M2[driver] = driveRes * weighted[driver]
			continue
		}
		a.M2[f.node] = a.M2[f.parent] + f.ohms*weighted[f.node]
	}
	return a, nil
}

// randomRCNet builds a seeded random netlist around a resistive tree of 1 to
// 60 nodes: random branching and resistances, zero to three caps per node,
// resistors to ground, and sometimes an unreachable island that holds a
// loop of its own.  With loop set (which needs at least two tree nodes) one
// more resistor joins two tree nodes — a chord or a parallel resistor on a
// tree edge — so the driven tree contains a loop.  It returns the netlist
// and a driver picked among the tree nodes.
func randomRCNet(rng *rand.Rand, loop bool) (*circuit.Netlist, circuit.NodeID) {
	net := circuit.New()
	n := 1 + rng.Intn(60)
	if loop && n < 2 {
		n = 2
	}
	nodes := []circuit.NodeID{net.AddNode("")}
	for i := 1; i < n; i++ {
		id := net.AddNode("")
		net.AddResistor(nodes[rng.Intn(len(nodes))], id, rng.Float64()*200)
		nodes = append(nodes, id)
	}
	for _, id := range nodes {
		for c := rng.Intn(4); c > 0; c-- {
			net.AddCap(id, rng.Float64()*50)
		}
		if rng.Intn(8) == 0 {
			net.AddResistor(id, circuit.Ground, rng.Float64()*1e4)
		}
		if rng.Intn(10) == 0 {
			net.AddResistor(circuit.Ground, id, rng.Float64()*1e4)
		}
	}
	if rng.Intn(3) == 0 {
		a, b, c := net.AddNode(""), net.AddNode(""), net.AddNode("")
		net.AddResistor(a, b, 10)
		net.AddResistor(b, c, 20)
		net.AddResistor(c, a, 30)
		net.AddCap(a, 5)
	}
	if loop {
		i, j := rng.Intn(n), rng.Intn(n-1)
		if j >= i {
			j++
		}
		net.AddResistor(nodes[i], nodes[j], rng.Float64()*200)
	}
	return net, nodes[rng.Intn(len(nodes))]
}

// TestAnalyzeMatchesMapOracle checks the dense Analyze against the map-backed
// oracle bit for bit — every node's M1, M2 and DownCap (zero for unreachable
// nodes) and TotalCap — over 200 seeded random RC nets, and that a loop in
// the driven tree is an error for both.
func TestAnalyzeMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		loop := seed%5 == 4
		net, driver := randomRCNet(rng, loop)
		driveRes := rng.Float64() * 300

		want, wantErr := analyzeMaps(net, driver, driveRes)
		got, gotErr := Analyze(net, driver, driveRes)
		if (gotErr != nil) != loop || (wantErr != nil) != loop {
			t.Fatalf("seed %d (loop %v): Analyze error %v, oracle error %v", seed, loop, gotErr, wantErr)
		}
		if loop {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("seed %d: error %q, oracle %q", seed, gotErr, wantErr)
			}
			continue
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !same(got.TotalCap, want.TotalCap) {
			t.Errorf("seed %d: TotalCap %v, oracle %v", seed, got.TotalCap, want.TotalCap)
		}
		for id := circuit.NodeID(0); int(id) < net.NumNodes(); id++ {
			if !same(got.M1[id], want.M1[id]) || !same(got.M2[id], want.M2[id]) || !same(got.DownCap[id], want.DownCap[id]) {
				t.Errorf("seed %d node %d: (M1, M2, DownCap) = (%v, %v, %v), oracle (%v, %v, %v)", seed, id,
					got.M1[id], got.M2[id], got.DownCap[id], want.M1[id], want.M2[id], want.DownCap[id])
			}
		}
	}
}

func TestSinglePoleMatchesTheory(t *testing.T) {
	// A single lumped RC: moments and metrics have exact closed forms.
	net := circuit.New()
	n := net.AddNode("load")
	net.AddCap(n, 500)
	a, err := Analyze(net, n, 100)
	if err != nil {
		t.Fatal(err)
	}
	tau := 100 * 500 * tech.PsPerOhmFF // 50 ps
	if got := a.Elmore(n); math.Abs(got-tau) > 1e-9 {
		t.Errorf("Elmore = %v, want %v", got, tau)
	}
	if got := a.DelayD2M(n); math.Abs(got-math.Ln2*tau) > 1e-9 {
		t.Errorf("D2M = %v, want %v", got, math.Ln2*tau)
	}
	if got := a.SlewStep(n); math.Abs(got-math.Log(9)*tau) > 1e-9 {
		t.Errorf("SlewStep = %v, want %v", got, math.Log(9)*tau)
	}
	if got := a.SlewRamp(n, 0); math.Abs(got-a.SlewStep(n)) > 1e-12 {
		t.Errorf("SlewRamp(0) = %v, want %v", got, a.SlewStep(n))
	}
	if got := a.SlewRamp(n, 100); got <= a.SlewStep(n) {
		t.Error("ramp input must not reduce the output slew")
	}
}

func TestWireElmoreMatchesAnalyze(t *testing.T) {
	tt := tech.Default()
	length, driveRes, loadCap := 1000.0, 95.0, 24.0
	net := circuit.New()
	start := net.AddNode("start")
	end := net.AddWire(tt, start, length, 10) // fine segmentation
	net.AddCap(end, loadCap)
	a, err := Analyze(net, start, driveRes)
	if err != nil {
		t.Fatal(err)
	}
	closed := WireElmore(tt, driveRes, length, loadCap)
	// The distributed pi ladder converges to the closed form from below as the
	// segmentation refines; with 10 um segments they agree closely.
	if math.Abs(a.Elmore(end)-closed) > 0.01*closed {
		t.Errorf("Analyze Elmore = %v, closed form = %v", a.Elmore(end), closed)
	}
}

func TestElmoreMonotoneAlongPath(t *testing.T) {
	tt := tech.Default()
	net := circuit.New()
	start := net.AddNode("start")
	mid := net.AddWire(tt, start, 500, 100)
	end := net.AddWire(tt, mid, 500, 100)
	net.AddCap(end, 30)
	a, err := Analyze(net, start, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !(a.Elmore(start) < a.Elmore(mid) && a.Elmore(mid) < a.Elmore(end)) {
		t.Errorf("Elmore not monotone: %v %v %v", a.Elmore(start), a.Elmore(mid), a.Elmore(end))
	}
	if a.TotalCap <= 0 {
		t.Error("total cap must be positive")
	}
}

func TestDetectsResistiveLoop(t *testing.T) {
	net := circuit.New()
	a := net.AddNode("a")
	b := net.AddNode("b")
	c := net.AddNode("c")
	net.AddResistor(a, b, 10)
	net.AddResistor(b, c, 10)
	net.AddResistor(c, a, 10)
	net.AddCap(a, 1)
	net.AddCap(b, 1)
	net.AddCap(c, 1)
	if _, err := Analyze(net, a, 50); err == nil {
		t.Error("expected loop detection error")
	}
}

func TestNegativeDriveRes(t *testing.T) {
	net := circuit.New()
	a := net.AddNode("a")
	net.AddCap(a, 1)
	if _, err := Analyze(net, a, -1); err == nil {
		t.Error("expected error for negative drive resistance")
	}
}

func TestD2MBeatsElmoreAgainstSimulation(t *testing.T) {
	// Section 3.1: Elmore overestimates the 50% delay of resistively shielded
	// far nodes; two-moment metrics are closer to simulation.  Verify the
	// ordering |D2M - sim| <= |ln2*Elmore - sim| on a representative wire.
	tt := tech.Default()
	driveRes := tt.SourceDriveRes
	length := 2000.0

	// Moment analysis of the wire.
	net := circuit.New()
	start := net.AddNode("start")
	end := net.AddWire(tt, start, length, 50)
	net.AddCap(end, 30)
	a, err := Analyze(net, start, driveRes)
	if err != nil {
		t.Fatal(err)
	}

	// Reference transient simulation with a step stimulus on the same wire.
	simNet := circuit.New()
	src := simNet.AddSource("clk", driveRes)
	simEnd := simNet.AddWire(tt, src, length, 50)
	simNet.AddSink("load", simEnd, 30)
	res, err := spice.Simulate(simNet, tt, spice.Options{Shape: spice.StimulusStep, TimeStep: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	simDelay, err := res.DelayTo(simEnd)
	if err != nil {
		t.Fatal(err)
	}

	elmore50 := math.Ln2 * a.Elmore(end)
	d2m := a.DelayD2M(end)
	errElmore := math.Abs(elmore50 - simDelay)
	errD2M := math.Abs(d2m - simDelay)
	if errD2M > errElmore {
		t.Errorf("D2M error %v ps should not exceed Elmore error %v ps (sim %v, elmore50 %v, d2m %v)",
			errD2M, errElmore, simDelay, elmore50, d2m)
	}
	// Elmore (the raw first moment) must overestimate the simulated delay.
	if a.Elmore(end) < simDelay {
		t.Errorf("raw Elmore %v ps should overestimate the simulated 50%% delay %v ps", a.Elmore(end), simDelay)
	}
}

func TestSlewStepTracksSimulation(t *testing.T) {
	tt := tech.Default()
	length := 1500.0
	net := circuit.New()
	start := net.AddNode("start")
	end := net.AddWire(tt, start, length, 50)
	net.AddCap(end, 30)
	a, err := Analyze(net, start, 100)
	if err != nil {
		t.Fatal(err)
	}
	simNet := circuit.New()
	src := simNet.AddSource("clk", 100)
	simEnd := simNet.AddWire(tt, src, length, 50)
	simNet.AddSink("load", simEnd, 30)
	res, err := spice.Simulate(simNet, tt, spice.Options{Shape: spice.StimulusStep, TimeStep: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	simSlew, err := res.SlewAt(simEnd)
	if err != nil {
		t.Fatal(err)
	}
	got := a.SlewStep(end)
	if math.Abs(got-simSlew) > 0.35*simSlew {
		t.Errorf("moment slew = %v ps, simulated %v ps; expected within 35%%", got, simSlew)
	}
}
