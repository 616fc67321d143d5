// Package spice is the reproduction's stand-in for the HSPICE simulations the
// paper uses both to characterize the delay/slew library (Chapter 3) and to
// verify the synthesized clock trees (Chapter 5).
//
// It performs a transient simulation of an RC + buffer netlist built with
// internal/circuit.  Buffers partition the netlist into RC stages: each stage
// is one driver (the clock source or a buffer output) plus the RC tree it
// drives up to the next buffer inputs and sinks.  Stages are solved in
// topological order with trapezoidal integration of the nodal equations; the
// waveform observed at a buffer's input determines when and how fast the
// buffer's behavioural Thevenin driver switches in the next stage.
//
// The behavioural buffer model reproduces the effects the paper's algorithm
// depends on: the output waveform is a curve (not a ramp), its transition
// degrades with input slew, and the buffer's intrinsic delay grows with input
// slew — which is exactly why bottom-up synthesis cannot know exact delays
// before the upstream circuit exists (Section 1).
package spice

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/tech"
	"repro/internal/waveform"
)

// curveRiseFactor is the 10%-90% width of the normalized buffer-output curve
// v(x) = 1 - exp(-x)(1+x) in units of its time constant.
const curveRiseFactor = 3.3577

// StimulusShape selects the waveform applied at the clock source.
type StimulusShape int

const (
	// StimulusCurve applies the buffer-output-shaped curve (default).
	StimulusCurve StimulusShape = iota
	// StimulusRamp applies an ideal saturated ramp.
	StimulusRamp
	// StimulusStep applies an ideal step.
	StimulusStep
)

// Options configure a transient run.
type Options struct {
	// TimeStep is the integration step in ps.  Zero selects 0.5 ps.
	TimeStep float64
	// SourceSlew overrides the technology's source transition time when > 0.
	SourceSlew float64
	// Shape selects the source stimulus shape.
	Shape StimulusShape
}

func (o Options) withDefaults() Options {
	if o.TimeStep <= 0 {
		o.TimeStep = 0.5
	}
	return o
}

const (
	// minWindow is the minimum simulated time after a stage's driver starts
	// switching, in ps.
	minWindow = 150
	// maxWindow is the maximum simulated time after a stage's driver starts
	// switching, in ps: long enough for even grossly under-buffered baseline
	// trees to settle.
	maxWindow = 20000
	// settleFraction stops a stage early once every probed node has reached
	// this fraction of Vdd.
	settleFraction = 0.995
	// sourceStart is the time at which the source stimulus begins, in ps.
	sourceStart = 20
)

// Result holds the transient waveforms at the nodes of interest: source
// outputs, buffer inputs and outputs, and sinks.
type Result struct {
	tech *tech.Technology
	// Stimulus is the ideal waveform applied behind the source resistance,
	// used as the timing reference for delays.
	Stimulus *waveform.Waveform
	// Node maps a probed node to its simulated waveform.
	Node map[circuit.NodeID]*waveform.Waveform
	// Stages is the number of RC stages that were solved.
	Stages int
}

// Waveform returns the simulated waveform at the node, if it was probed.
func (r *Result) Waveform(id circuit.NodeID) (*waveform.Waveform, bool) {
	w, ok := r.Node[id]
	return w, ok
}

// DelayTo returns the 50%-to-50% delay from the source stimulus to the node,
// in ps.
func (r *Result) DelayTo(id circuit.NodeID) (float64, error) {
	w, ok := r.Node[id]
	if !ok {
		return 0, fmt.Errorf("spice: node %d was not probed", id)
	}
	return waveform.Delay(r.Stimulus, w, r.tech.SwitchingThreshold*r.tech.Vdd)
}

// SlewAt returns the 10%-90% transition time at the node, in ps.
func (r *Result) SlewAt(id circuit.NodeID) (float64, error) {
	w, ok := r.Node[id]
	if !ok {
		return 0, fmt.Errorf("spice: node %d was not probed", id)
	}
	return w.Slew(r.tech.SlewLow*r.tech.Vdd, r.tech.SlewHigh*r.tech.Vdd)
}

// driver describes the Thevenin driver of one RC stage.
type driver struct {
	node  circuit.NodeID
	res   float64
	start float64 // time the source waveform starts switching
	vsrc  func(t float64) float64
}

// stage is one RC component plus its driver and the nodes whose waveforms
// must be recorded.
type stage struct {
	nodes  []circuit.NodeID
	drv    *driver
	bufOut []circuit.BufferInst // buffers whose *input* lies in this stage
	probes []circuit.NodeID
}

// Simulate runs the full multi-stage transient analysis of the netlist.
func Simulate(net *circuit.Netlist, t *tech.Technology, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if len(net.Sources) == 0 {
		return nil, errors.New("spice: netlist has no clock source")
	}
	sourceSlew := t.SourceSlew
	if opt.SourceSlew > 0 {
		sourceSlew = opt.SourceSlew
	}

	stimulus := makeStimulus(opt.Shape, t.Vdd, sourceStart, sourceSlew, opt.TimeStep,
		sourceStart+sourceSlew*4+50)

	comps, compOf, err := components(net)
	if err != nil {
		return nil, err
	}

	// Identify the driver of every component and the downstream dependencies.
	drvBuf := make(map[int]*circuit.BufferInst)  // component -> buffer driving it
	drvSrc := make(map[int]*circuit.Source)      // component -> source driving it
	inBufs := make(map[int][]circuit.BufferInst) // component -> buffers whose input is inside
	for i := range net.Buffers {
		b := net.Buffers[i]
		out := compOf[b.Out]
		if _, dup := drvBuf[out]; dup {
			return nil, fmt.Errorf("spice: component %d driven by more than one buffer", out)
		}
		if _, dup := drvSrc[out]; dup {
			return nil, fmt.Errorf("spice: component %d driven by both a source and a buffer", out)
		}
		drvBuf[out] = &net.Buffers[i]
		in := compOf[b.In]
		inBufs[in] = append(inBufs[in], b)
	}
	for i := range net.Sources {
		s := net.Sources[i]
		c := compOf[s.Out]
		if _, dup := drvSrc[c]; dup {
			return nil, fmt.Errorf("spice: component %d driven by more than one source", c)
		}
		if _, dup := drvBuf[c]; dup {
			return nil, fmt.Errorf("spice: component %d driven by both a source and a buffer", c)
		}
		drvSrc[c] = &net.Sources[i]
	}

	// Probe nodes: buffer inputs and outputs, sinks, source outputs.
	probes := make(map[circuit.NodeID]bool)
	for _, b := range net.Buffers {
		probes[b.In] = true
		probes[b.Out] = true
	}
	for _, s := range net.Sinks {
		probes[s.Node] = true
	}
	for _, s := range net.Sources {
		probes[s.Out] = true
	}

	res := &Result{tech: t, Stimulus: stimulus, Node: make(map[circuit.NodeID]*waveform.Waveform)}

	// Process components in topological order: a component is ready once the
	// waveform at its driving buffer's input is known.
	done := make(map[int]bool)
	pending := len(comps)
	for pending > 0 {
		progressed := false
		for ci, nodes := range comps {
			if done[ci] || len(nodes) == 0 {
				continue
			}
			var drv *driver
			switch {
			case drvSrc[ci] != nil:
				s := drvSrc[ci]
				drv = &driver{
					node:  s.Out,
					res:   s.DriveRes,
					start: sourceStart,
					vsrc:  analyticStimulus(opt.Shape, t.Vdd, sourceStart, sourceSlew),
				}
			case drvBuf[ci] != nil:
				b := drvBuf[ci]
				inWave, ok := res.Node[b.In]
				if !ok {
					continue // upstream stage not solved yet
				}
				d, err := bufferDriver(t, b, inWave, opt.TimeStep)
				if err != nil {
					return nil, err
				}
				drv = d
			default:
				// A floating component: only legal if it carries no probes.
				floating := false
				for _, n := range nodes {
					if probes[n] {
						floating = true
						break
					}
				}
				if floating {
					return nil, fmt.Errorf("spice: component containing node %q has no driver", net.NodeName(nodes[0]))
				}
				done[ci] = true
				pending--
				progressed = true
				continue
			}

			st := &stage{nodes: nodes, drv: drv}
			for _, n := range nodes {
				if probes[n] {
					st.probes = append(st.probes, n)
				}
			}
			if err := solveStage(net, t, opt, st, res); err != nil {
				return nil, err
			}
			res.Stages++
			done[ci] = true
			pending--
			progressed = true
		}
		if !progressed {
			return nil, errors.New("spice: circular or disconnected buffer dependency; cannot order stages")
		}
	}
	return res, nil
}

// bufferDriver converts the waveform at a buffer's input into the behavioural
// Thevenin driver for the stage at its output.
//
// The buffer is modelled as two cascaded inverter stages.  Each stage is a
// CMOS current integrator: its pull-down (pull-up) network conducts a current
// that follows a velocity-saturated law of the input overdrive above the
// device threshold, and that current slews the stage's output node across the
// rail in a characteristic time InternalTau when fully on.  Because the
// output crossing time depends on the integral of a nonlinear function of the
// entire input waveform — not just on its 10-90% transition number — the
// model reproduces the curve-vs-ramp sensitivity of Section 3.1 and the
// input-slew dependence of the intrinsic delay, which are the two effects
// that make bottom-up buffered clock tree timing hard.
func bufferDriver(t *tech.Technology, b *circuit.BufferInst, in *waveform.Waveform, h float64) (*driver, error) {
	thresh := t.SwitchingThreshold * t.Vdd
	if _, err := in.CrossingTime(thresh); err != nil {
		return nil, fmt.Errorf("spice: buffer %s input never switches: %w", b.Name, err)
	}
	buf := b.Buffer
	vdd := t.Vdd
	vt := t.DeviceThreshold
	exp := t.DriveExponent

	// drive is the normalized transistor current for a gate voltage v (as a
	// fraction of Vdd) above the threshold vt.
	drive := func(v float64) float64 {
		if v <= vt {
			return 0
		}
		x := (v - vt) / (1 - vt)
		if x >= 1 {
			return 1
		}
		return math.Pow(x, exp)
	}

	// Evaluate the two-stage response on a uniform grid covering the input
	// waveform plus enough settling time for the internal stages.
	t0 := in.Times[0]
	tEnd := in.Times[len(in.Times)-1] + 10*buf.InternalTau + 5*buf.IntrinsicDelay + 50
	n := int(math.Ceil((tEnd-t0)/h)) + 1
	times := make([]float64, n)
	vals := make([]float64, n)
	// Before the input rises the first stage output sits at Vdd and the
	// second at ground.
	p := 1.0 // first inverter output (normalized)
	q := 0.0 // second inverter output (normalized)
	tau1 := buf.InternalTau
	tau2 := buf.InternalTau / 4
	start := -1.0
	for i := 0; i < n; i++ {
		tt := t0 + float64(i)*h
		vin := in.At(tt) / vdd
		// First inverter: NMOS (on when vin is high) discharges p, PMOS (on
		// when vin is low) charges it.
		p += h / tau1 * (drive(1-vin) - drive(vin))
		p = clampUnit(p)
		// Second inverter: input is p.
		q += h / tau2 * (drive(1-p) - drive(p))
		q = clampUnit(q)
		times[i] = tt + buf.IntrinsicDelay
		vals[i] = vdd * q
		if start < 0 && vals[i] > 0.01*vdd {
			start = times[i]
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("spice: buffer %s never switches within the simulated window", b.Name)
	}
	src := waveform.New(times, vals)
	return &driver{
		node:  b.Out,
		res:   buf.DriveRes,
		start: start,
		vsrc:  src.At,
	}, nil
}

func clampUnit(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// solveStage integrates one RC stage and records probe waveforms.
func solveStage(net *circuit.Netlist, t *tech.Technology, opt Options, st *stage, res *Result) error {
	n := len(st.nodes)
	index := make(map[circuit.NodeID]int, n)
	for i, id := range st.nodes {
		index[id] = i
	}

	// Sparse G entries and diagonal C.
	type entry struct {
		i, j int
		v    float64
	}
	var gEntries []entry
	cDiag := make([]float64, n)
	for _, r := range net.Resistors {
		ia, aok := index[r.A]
		ib, bok := index[r.B]
		if !aok && !bok {
			continue
		}
		g := 1 / r.Ohms
		switch {
		case aok && bok:
			gEntries = append(gEntries,
				entry{ia, ia, g}, entry{ib, ib, g}, entry{ia, ib, -g}, entry{ib, ia, -g})
		case aok: // B is ground (or outside the component, impossible for a valid netlist)
			if r.B != circuit.Ground {
				return fmt.Errorf("spice: resistor spans components (%d-%d)", r.A, r.B)
			}
			gEntries = append(gEntries, entry{ia, ia, g})
		case bok:
			if r.A != circuit.Ground {
				return fmt.Errorf("spice: resistor spans components (%d-%d)", r.A, r.B)
			}
			gEntries = append(gEntries, entry{ib, ib, g})
		}
	}
	for _, c := range net.Caps {
		if i, ok := index[c.Node]; ok {
			cDiag[i] += c.FF
		}
	}
	di, ok := index[st.drv.node]
	if !ok {
		return fmt.Errorf("spice: driver node %d not in its component", st.drv.node)
	}
	gd := 1 / st.drv.res
	gEntries = append(gEntries, entry{di, di, gd})

	h := opt.TimeStep
	// A = G + 2C/h (ohm*fF time units: C/h has C in fF, h in ps; conductance
	// is in 1/ohm, so C[fF]/h[ps] * 1e-3 matches 1/ohm units).
	const capScale = tech.PsPerOhmFF // fF/ps -> 1/ohm
	a := linalg.NewMatrix(n, n)
	for _, e := range gEntries {
		a.Add(e.i, e.j, e.v)
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, 2*cDiag[i]*capScale/h)
	}
	lu, err := linalg.Factor(a)
	if err != nil {
		return fmt.Errorf("spice: stage matrix singular: %w", err)
	}

	// Time stepping.
	vdd := t.Vdd
	settle := settleFraction * vdd
	tStart := st.drv.start - 5*h
	if tStart < 0 {
		tStart = 0
	}
	maxT := st.drv.start + maxWindow
	minT := st.drv.start + minWindow

	x := make([]float64, n)
	xNext := make([]float64, n)
	b := make([]float64, n)
	gx := make([]float64, n)

	// Recording buffers for probes.
	probeIdx := make([]int, len(st.probes))
	for i, p := range st.probes {
		probeIdx[i] = index[p]
	}
	times := []float64{tStart}
	probeVals := make([][]float64, len(st.probes))
	for i := range probeVals {
		probeVals[i] = []float64{0}
	}

	iPrev := gd * st.drv.vsrc(tStart)
	for tt := tStart; tt < maxT; {
		tNext := tt + h
		iNext := gd * st.drv.vsrc(tNext)
		// b = 2C/h x - G x + i(t) + i(t+h)
		for i := range gx {
			gx[i] = 0
		}
		for _, e := range gEntries {
			gx[e.i] += e.v * x[e.j]
		}
		for i := 0; i < n; i++ {
			b[i] = 2*cDiag[i]*capScale/h*x[i] - gx[i]
		}
		b[di] += iPrev + iNext
		if err := lu.SolveInto(b, xNext); err != nil {
			return fmt.Errorf("spice: time step failed: %w", err)
		}
		copy(x, xNext)
		tt = tNext
		iPrev = iNext

		times = append(times, tt)
		allSettled := true
		for i, pi := range probeIdx {
			v := x[pi]
			probeVals[i] = append(probeVals[i], v)
			if v < settle {
				allSettled = false
			}
		}
		if len(probeIdx) == 0 {
			allSettled = tt >= minT
		}
		if tt >= minT && allSettled {
			break
		}
	}

	for i, p := range st.probes {
		res.Node[p] = waveform.New(append([]float64(nil), times...), probeVals[i])
	}
	return nil
}

// components groups the non-ground nodes of the netlist into RC-connected
// components (connected through resistors only; buffers do not connect their
// input and output electrically), numbered in order of their lowest node id.
func components(net *circuit.Netlist) ([][]circuit.NodeID, map[circuit.NodeID]int, error) {
	adj := make(map[circuit.NodeID][]circuit.NodeID)
	for _, r := range net.Resistors {
		if r.Ohms <= 0 {
			return nil, nil, fmt.Errorf("spice: non-positive resistance between %d and %d", r.A, r.B)
		}
		if r.A == circuit.Ground || r.B == circuit.Ground {
			continue
		}
		adj[r.A] = append(adj[r.A], r.B)
		adj[r.B] = append(adj[r.B], r.A)
	}
	// Every node mentioned anywhere participates.
	all := make(map[circuit.NodeID]bool)
	for _, r := range net.Resistors {
		if r.A != circuit.Ground {
			all[r.A] = true
		}
		if r.B != circuit.Ground {
			all[r.B] = true
		}
	}
	for _, c := range net.Caps {
		if c.Node != circuit.Ground {
			all[c.Node] = true
		}
	}
	for _, b := range net.Buffers {
		all[b.In] = true
		all[b.Out] = true
	}
	for _, s := range net.Sources {
		all[s.Out] = true
	}
	for _, s := range net.Sinks {
		all[s.Node] = true
	}

	ids := make([]circuit.NodeID, 0, len(all))
	//ctslint:allow determinism -- the keys are sorted right below, before anything reads them
	for id := range all {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	compOf := make(map[circuit.NodeID]int, len(ids))
	var comps [][]circuit.NodeID
	for _, start := range ids {
		if _, seen := compOf[start]; seen {
			continue
		}
		c := len(comps)
		comps = append(comps, nil)
		stack := []circuit.NodeID{start}
		compOf[start] = c
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comps[c] = append(comps[c], cur)
			for _, nb := range adj[cur] {
				if _, seen := compOf[nb]; !seen {
					compOf[nb] = c
					stack = append(stack, nb)
				}
			}
		}
	}
	return comps, compOf, nil
}

func makeStimulus(shape StimulusShape, vdd, start, slew, step, horizon float64) *waveform.Waveform {
	switch shape {
	case StimulusRamp:
		return waveform.Ramp(vdd, start, slew, step, horizon)
	case StimulusStep:
		return waveform.Step(vdd, start, step, horizon)
	default:
		return waveform.Curve(vdd, start, slew, step, horizon)
	}
}

func analyticStimulus(shape StimulusShape, vdd, start, slew float64) func(float64) float64 {
	switch shape {
	case StimulusRamp:
		full := slew / 0.8
		return func(t float64) float64 {
			switch {
			case t <= start:
				return 0
			case t >= start+full:
				return vdd
			default:
				return vdd * (t - start) / full
			}
		}
	case StimulusStep:
		return func(t float64) float64 {
			if t < start {
				return 0
			}
			return vdd
		}
	default:
		tau := slew / curveRiseFactor
		return func(t float64) float64 {
			if t <= start {
				return 0
			}
			x := (t - start) / tau
			return vdd * (1 - math.Exp(-x)*(1+x))
		}
	}
}
