// Package charlib implements the delay/slew library of Chapter 3: the
// characterization of single-wire and branch components by simulation, the
// polynomial surface/hyperplane fits over (input slew, wire length[s]), and
// the lookup API the clock tree synthesis engine uses for timing analysis.
//
// Two construction modes are provided:
//
//   - Characterize runs the transient simulator (internal/spice, the SPICE
//     substitute) over sweeps of input slew and wire lengths for every
//     combination of driving and load buffer, then fits 3rd/4th-order
//     polynomials exactly as Section 3.2 describes.  This is the accurate
//     library used by the experiment harness.
//
//   - NewAnalytic builds a closed-form library from two-moment metrics and
//     the buffer parameters.  It has the same API and is orders of magnitude
//     faster to construct, which makes it the default for unit tests and a
//     baseline for the "library vs. closed-form model" ablation.
//
// Component conventions (Figure 3.3): a component starts at the input pin of
// its driving buffer and ends at the input pin of its load buffer (or at a
// sink, approximated by the library buffer of closest input capacitance).
// BufferDelay is measured from the driving buffer's input pin to its output
// pin; WireDelay from the output pin to the far end of the wire; OutputSlew
// is the 10-90% transition at the far end.
package charlib

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/circuit"
	"repro/internal/fit"
	"repro/internal/spice"
	"repro/internal/tech"
)

// SingleWireTiming is the result of a single-wire component lookup.
type SingleWireTiming struct {
	// BufferDelay is the driving buffer's input-to-output-pin delay in ps.
	BufferDelay float64
	// WireDelay is the output-pin-to-far-end delay in ps.
	WireDelay float64
	// OutputSlew is the 10-90% transition at the far end in ps.
	OutputSlew float64
}

// Total returns the component's total delay (buffer plus wire).
func (t SingleWireTiming) Total() float64 { return t.BufferDelay + t.WireDelay }

// BranchTiming is the result of a branch component lookup (Figure 3.5): a
// driving buffer whose output splits into a left and a right wire.
type BranchTiming struct {
	// BufferDelay is the driving buffer's input-to-output-pin delay in ps.
	BufferDelay float64
	// LeftDelay and RightDelay are the output-pin-to-branch-end delays in ps.
	LeftDelay, RightDelay float64
	// LeftSlew and RightSlew are the 10-90% transitions at the branch ends.
	LeftSlew, RightSlew float64
}

// SingleFits holds the fitted surfaces for one (driving buffer, load buffer)
// pair: each is a polynomial in (input slew, wire length).
type SingleFits struct {
	BufferDelay *fit.Poly
	WireDelay   *fit.Poly
	WireSlew    *fit.Poly
	// Quality records the fit quality per surface ("buffer", "wire", "slew").
	Quality map[string]fit.Quality
}

// BranchFits holds the fitted hyperplanes for one driving buffer: each is a
// polynomial in (input slew, left length, right length).
type BranchFits struct {
	BufferDelay *fit.Poly
	LeftDelay   *fit.Poly
	RightDelay  *fit.Poly
	LeftSlew    *fit.Poly
	RightSlew   *fit.Poly
	Quality     map[string]fit.Quality
}

// SinglePoint is one measured sample of the single-wire characterization
// sweep; the collection of points underlies Figure 3.4.
type SinglePoint struct {
	Drive, Load string
	InputSlew   float64
	Length      float64
	BufferDelay float64
	WireDelay   float64
	WireSlew    float64
}

// BranchPoint is one measured sample of the branch characterization sweep;
// the collection of points underlies Figures 3.6 and 3.7.
type BranchPoint struct {
	Drive                 string
	InputSlew             float64
	LeftLen, RightLen     float64
	BufferDelay           float64
	LeftDelay, RightDelay float64
	LeftSlew, RightSlew   float64
}

// Library is the delay/slew library: either characterized (fitted on
// simulation sweeps) or analytic (closed-form fallback).
type Library struct {
	// TechName records the technology the library was built for.
	TechName string
	// Analytic is true for the closed-form fallback library.
	Analytic bool
	// SlewRange and LengthRange are the characterized input ranges; lookups
	// clamp their arguments into these ranges to avoid extrapolation.
	SlewRange   [2]float64
	LengthRange [2]float64
	// Single maps "drive|load" buffer name pairs to their fitted surfaces.
	Single map[string]*SingleFits
	// Branch maps the driving buffer name to its fitted hyperplanes.
	Branches map[string]*BranchFits
	// SinglePoints and BranchPoints hold the raw characterization samples
	// when the library was built with Config.KeepSamples.
	SinglePoints []SinglePoint
	BranchPoints []BranchPoint

	tech *tech.Technology
}

// Config controls a characterization run.
type Config struct {
	// InputWireLengths are the lengths of the slew-shaping input wire
	// (Linput in Figure 3.3) used to generate a spread of realistic input
	// slews.  Zero selects a 5-point default.
	InputWireLengths []float64
	// WireLengths are the swept component wire lengths (L in Figure 3.3).
	// Zero selects a 7-point default covering the buffer insertion range.
	WireLengths []float64
	// BranchLengths are the swept branch lengths for Figure 3.5 components.
	// Zero selects a 4-point default.
	BranchLengths []float64
	// Degree is the polynomial degree of the fits (3 or 4 per the paper).
	// Zero selects 3.
	Degree int
	// TimeStep is the simulator step in ps.  Zero selects 0.5.
	TimeStep float64
	// KeepSamples retains the raw sweep data in the library.
	KeepSamples bool
}

func (c Config) withDefaults() Config {
	if len(c.InputWireLengths) == 0 {
		c.InputWireLengths = []float64{1, 250, 550, 900, 1300}
	}
	if len(c.WireLengths) == 0 {
		c.WireLengths = []float64{50, 300, 600, 900, 1200, 1600, 2000}
	}
	if len(c.BranchLengths) == 0 {
		c.BranchLengths = []float64{100, 500, 1000, 1500}
	}
	if c.Degree == 0 {
		c.Degree = 3
	}
	if c.TimeStep == 0 {
		c.TimeStep = 0.5
	}
	return c
}

// key builds the map key for a (drive, load) buffer pair.
func key(drive, load string) string { return drive + "|" + load }

// clampInputs limits lookup arguments to the characterized ranges.
func (l *Library) clampInputs(slew, length float64) (float64, float64) {
	s := math.Min(math.Max(slew, l.SlewRange[0]), l.SlewRange[1])
	ln := math.Min(math.Max(length, l.LengthRange[0]), l.LengthRange[1])
	return s, ln
}

// SingleWire returns the timing of a single-wire component: the drive buffer,
// a wire of the given length (um) and a load of loadCap (fF), for the given
// input slew at the drive buffer's input pin (ps).
func (l *Library) SingleWire(drive tech.Buffer, loadCap, inputSlew, length float64) SingleWireTiming {
	if l.Analytic {
		return l.analyticSingle(drive, loadCap, inputSlew, length)
	}
	load := l.tech.ClosestBufferByCap(loadCap)
	f, ok := l.Single[key(drive.Name, load.Name)]
	if !ok {
		return l.analyticSingle(drive, loadCap, inputSlew, length)
	}
	s, ln := l.clampInputs(inputSlew, length)
	out := SingleWireTiming{
		BufferDelay: f.BufferDelay.Eval(s, ln),
		WireDelay:   f.WireDelay.Eval(s, ln),
		OutputSlew:  f.WireSlew.Eval(s, ln),
	}
	return sanitizeSingle(out)
}

// Branch returns the timing of a branch component: the drive buffer's output
// splits into a left wire of length lLeft ending in a load of capLeft and a
// right wire of length lRight ending in capRight.
func (l *Library) Branch(drive tech.Buffer, inputSlew, lLeft, lRight, capLeft, capRight float64) BranchTiming {
	if l.Analytic {
		return l.analyticBranch(drive, inputSlew, lLeft, lRight, capLeft, capRight)
	}
	f, ok := l.Branches[drive.Name]
	if !ok {
		return l.analyticBranch(drive, inputSlew, lLeft, lRight, capLeft, capRight)
	}
	s, _ := l.clampInputs(inputSlew, l.LengthRange[0])
	// The branch sweep uses a fixed reference load; differences in the actual
	// load capacitance are mapped to equivalent extra wire length.
	refCap := l.referenceBranchLoad().InputCap
	adjL := l.equivalentLength(lLeft, capLeft, refCap)
	adjR := l.equivalentLength(lRight, capRight, refCap)
	clampLen := func(x float64) float64 {
		return math.Min(math.Max(x, l.LengthRange[0]), l.LengthRange[1])
	}
	adjL, adjR = clampLen(adjL), clampLen(adjR)
	out := BranchTiming{
		BufferDelay: f.BufferDelay.Eval(s, adjL, adjR),
		LeftDelay:   f.LeftDelay.Eval(s, adjL, adjR),
		RightDelay:  f.RightDelay.Eval(s, adjL, adjR),
		LeftSlew:    f.LeftSlew.Eval(s, adjL, adjR),
		RightSlew:   f.RightSlew.Eval(s, adjL, adjR),
	}
	return sanitizeBranch(out)
}

// MaxWireLength returns the longest wire (um) the drive buffer can drive into
// loadCap while keeping the far-end slew at or below slewLimit, assuming the
// given input slew at the buffer.  It returns 0 if even a minimal wire
// violates the limit.
func (l *Library) MaxWireLength(drive tech.Buffer, loadCap, inputSlew, slewLimit float64) float64 {
	lo, hi := 0.0, l.LengthRange[1]
	if l.SingleWire(drive, loadCap, inputSlew, lo+1).OutputSlew > slewLimit {
		return 0
	}
	if l.SingleWire(drive, loadCap, inputSlew, hi).OutputSlew <= slewLimit {
		return hi
	}
	for i := 0; i < 40 && hi-lo > 1; i++ {
		mid := (lo + hi) / 2
		if l.SingleWire(drive, loadCap, inputSlew, mid).OutputSlew <= slewLimit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// BestBufferFor returns the library buffer whose far-end slew is closest to
// (but not exceeding) the slew limit for the given wire, implementing the
// "intelligent buffer sizing" criterion of Section 4.2.2.  The boolean is
// false if no buffer meets the limit.
func (l *Library) BestBufferFor(loadCap, inputSlew, length, slewLimit float64) (tech.Buffer, bool) {
	var best tech.Buffer
	bestSlack := math.Inf(1)
	found := false
	for _, b := range l.tech.Buffers {
		s := l.SingleWire(b, loadCap, inputSlew, length).OutputSlew
		if s > slewLimit {
			continue
		}
		slack := slewLimit - s
		if slack < bestSlack {
			best, bestSlack, found = b, slack, true
		}
	}
	return best, found
}

func (l *Library) referenceBranchLoad() tech.Buffer {
	return l.tech.Buffers[len(l.tech.Buffers)/2]
}

// equivalentLength converts a load capacitance difference into extra (or
// less) wire length so that off-reference loads can reuse the reference
// branch fits.
func (l *Library) equivalentLength(length, loadCap, refCap float64) float64 {
	return length + (loadCap-refCap)/l.tech.UnitCap
}

func sanitizeSingle(t SingleWireTiming) SingleWireTiming {
	t.BufferDelay = math.Max(t.BufferDelay, 0.1)
	t.WireDelay = math.Max(t.WireDelay, 0)
	t.OutputSlew = math.Max(t.OutputSlew, 0.1)
	return t
}

func sanitizeBranch(t BranchTiming) BranchTiming {
	t.BufferDelay = math.Max(t.BufferDelay, 0.1)
	t.LeftDelay = math.Max(t.LeftDelay, 0)
	t.RightDelay = math.Max(t.RightDelay, 0)
	t.LeftSlew = math.Max(t.LeftSlew, 0.1)
	t.RightSlew = math.Max(t.RightSlew, 0.1)
	return t
}

// ---------------------------------------------------------------------------
// Analytic (closed-form) library
// ---------------------------------------------------------------------------

// NewAnalytic builds the closed-form fallback library for the technology.
func NewAnalytic(t *tech.Technology) *Library {
	return &Library{
		TechName:    t.Name,
		Analytic:    true,
		SlewRange:   [2]float64{5, 400},
		LengthRange: [2]float64{1, 6000},
		Single:      map[string]*SingleFits{},
		Branches:    map[string]*BranchFits{},
		tech:        t,
	}
}

// analyticSingle computes single-wire timing from two-moment metrics plus the
// behavioural buffer parameters.
func (l *Library) analyticSingle(drive tech.Buffer, loadCap, inputSlew, length float64) SingleWireTiming {
	t := l.tech
	cw := t.WireCap(length)
	rw := t.WireRes(length)
	// Two-node pi approximation of the wire as seen from the buffer output.
	m1Out := drive.DriveRes * (cw + loadCap)
	m1End := m1Out + rw*(cw/2+loadCap)
	tOut := (cw/2)*m1Out + (cw/2+loadCap)*m1End
	m2Out := drive.DriveRes * tOut
	m2End := m2Out + rw*(cw/2+loadCap)*m1End
	delayOut := d2m(m1Out, m2Out)
	delayEnd := d2m(m1End, m2End)
	// The buffer's internal edge rate adds to the step slew of the RC network.
	edge := 1.2 * drive.InternalTau
	outSlew := math.Sqrt(slewStep(m1End, m2End)*slewStep(m1End, m2End) + edge*edge)
	return sanitizeSingle(SingleWireTiming{
		BufferDelay: drive.IntrinsicDelay + 0.9*drive.InternalTau + 0.18*inputSlew + delayOut,
		WireDelay:   math.Max(delayEnd-delayOut, 0),
		OutputSlew:  outSlew,
	})
}

// d2m is the two-moment (D2M) step delay in ps, moments.Analysis.DelayD2M's
// expression.
func d2m(m1, m2 float64) float64 {
	if m2 <= 0 {
		return math.Ln2 * m1 * tech.PsPerOhmFF
	}
	return math.Ln2 * m1 * m1 / math.Sqrt(m2) * tech.PsPerOhmFF
}

// slewStep is the 10-90% step slew in ps, moments.Analysis.SlewStep's
// expression.
func slewStep(m1, m2 float64) float64 {
	v := 2*m2 - m1*m1
	if v < 0 {
		v = 0
	}
	return tech.Ln9 * math.Sqrt(v) * tech.PsPerOhmFF
}

// analyticBranch computes branch timing from the first two moments of the
// two-arm RC tree: a root driven through the buffer's DriveRes, and per arm
// the π-segment ladder circuit.AddWire builds (int(l/100)+1 segments, none
// when l <= 0) ending in the arm's load.  The moments are computed in closed
// form with the float additions in exactly the order moments.Analyze makes
// them on that netlist, so the timing is bit-identical to building it, at no
// allocation for arms up to branchStackSegs segments.
//
// The order: a node's grounded capacitance sums its caps in netlist order —
// the root (0 + cL/2) + cR/2, then the load of an arm of length <= 0; an
// interior arm node (0 + c/2) + c/2; an arm end (0 + c/2) + load.  The
// breadth-first order is root, L1, R1, L2, R2, ..., so the root's downstream
// sums are ((0 + R1's) + L1's) + its own term, and along an arm a node's sum
// is its child's plus its own term.  An arm without segments contributes
// zeros, and adding zero to these sums is exact.
func (l *Library) analyticBranch(drive tech.Buffer, inputSlew, lLeft, lRight, capLeft, capRight float64) BranchTiming {
	var stack [2][branchStackSegs]float64
	left := newBranchArm(l.tech, lLeft, capLeft, stack[0][:])
	right := newBranchArm(l.tech, lRight, capRight, stack[1][:])

	capRoot := left.half + right.half + left.rootLoad + right.rootLoad
	m1Root := drive.DriveRes * (right.downCap() + left.downCap() + capRoot)
	left.firstMoment(m1Root)
	right.firstMoment(m1Root)
	m2Root := drive.DriveRes * (right.weighted() + left.weighted() + capRoot*m1Root)
	m1L, m2L := left.endMoments(m2Root)
	m1R, m2R := right.endMoments(m2Root)

	rootDelay := d2m(m1Root, m2Root)
	edge := 1.2 * drive.InternalTau
	rss := func(a, b float64) float64 { return math.Sqrt(a*a + b*b) }
	return sanitizeBranch(BranchTiming{
		BufferDelay: drive.IntrinsicDelay + 0.9*drive.InternalTau + 0.18*inputSlew + rootDelay,
		LeftDelay:   math.Max(d2m(m1L, m2L)-rootDelay, 0),
		RightDelay:  math.Max(d2m(m1R, m2R)-rootDelay, 0),
		LeftSlew:    rss(slewStep(m1L, m2L), edge),
		RightSlew:   rss(slewStep(m1R, m2R), edge),
	})
}

// branchStackSegs is the arm length in π segments (6,399 µm at 100 µm per
// segment) up to which analyticBranch keeps its per-node values on the
// stack; longer arms allocate them.
const branchStackSegs = 64

// branchArm is one arm of the branch RC tree: n π segments of resistance r,
// each putting half its capacitance on either end, or, with n = 0, only a
// load at the root.  v holds one value per arm node, nearest the root first:
// its downstream capacitance, then its first moment, then its weighted
// capacitance sum, each pass overwriting the one before.
type branchArm struct {
	n        int
	r        float64
	half     float64 // half a segment's capacitance
	mid      float64 // an interior node's grounded capacitance
	end      float64 // the far-end node's grounded capacitance
	rootLoad float64 // the load, when it sits at the root
	m1End    float64
	v        []float64
}

func newBranchArm(t *tech.Technology, length, load float64, stack []float64) branchArm {
	n := int(length/100) + 1
	if length <= 0 || n < 1 {
		// circuit.AddWire lays no segment: the load sits at the root.
		return branchArm{rootLoad: load}
	}
	seg := length / float64(n)
	h := t.WireCap(seg) / 2
	v := stack
	if n > len(v) {
		v = make([]float64, n)
	}
	return branchArm{n: n, r: t.WireRes(seg), half: h, mid: h + h, end: h + load, v: v[:n]}
}

// downCap fills v with each node's downstream capacitance, far end first,
// and returns the first node's.
func (a *branchArm) downCap() float64 {
	if a.n == 0 {
		return 0
	}
	d := a.end
	a.v[a.n-1] = d
	for i := a.n - 2; i >= 0; i-- {
		d += a.mid
		a.v[i] = d
	}
	return d
}

// firstMoment turns v into each node's first moment, from the root's.
func (a *branchArm) firstMoment(m1Root float64) {
	m := m1Root
	for i := range a.v {
		m += a.r * a.v[i]
		a.v[i] = m
	}
	a.m1End = m
}

// weighted turns v into each node's weighted capacitance sum (capacitance
// times first moment, summed downstream), far end first, and returns the
// first node's.
func (a *branchArm) weighted() float64 {
	if a.n == 0 {
		return 0
	}
	w := a.end * a.v[a.n-1]
	a.v[a.n-1] = w
	for i := a.n - 2; i >= 0; i-- {
		w += a.mid * a.v[i]
		a.v[i] = w
	}
	return w
}

// endMoments returns the first and second moment at the arm's far end (the
// root, for an arm without segments).
func (a *branchArm) endMoments(m2Root float64) (m1, m2 float64) {
	m2 = m2Root
	for _, w := range a.v {
		m2 += a.r * w
	}
	return a.m1End, m2
}

// ---------------------------------------------------------------------------
// Simulation-based characterization
// ---------------------------------------------------------------------------

// Characterize builds the library by sweeping the single-wire and branch
// characterization circuits with the transient simulator and fitting
// polynomial surfaces/hyperplanes to the measurements (Section 3.2).
func Characterize(t *tech.Technology, cfg Config) (*Library, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	lib := &Library{
		TechName: t.Name,
		Single:   map[string]*SingleFits{},
		Branches: map[string]*BranchFits{},
		tech:     t,
	}

	minSlew, maxSlew := math.Inf(1), math.Inf(-1)
	maxLen := 0.0
	for _, l := range cfg.WireLengths {
		maxLen = math.Max(maxLen, l)
	}
	for _, l := range cfg.BranchLengths {
		maxLen = math.Max(maxLen, l)
	}

	// Single-wire sweep: every (drive, load) pair.
	for _, drive := range t.Buffers {
		for _, load := range t.Buffers {
			var slews, lengths, bufD, wireD, wireS []float64
			for _, linput := range cfg.InputWireLengths {
				for _, length := range cfg.WireLengths {
					pt, err := measureSingle(t, cfg, drive, load, linput, length)
					if err != nil {
						return nil, fmt.Errorf("charlib: single %s->%s linput=%v L=%v: %w",
							drive.Name, load.Name, linput, length, err)
					}
					slews = append(slews, pt.InputSlew)
					lengths = append(lengths, pt.Length)
					bufD = append(bufD, pt.BufferDelay)
					wireD = append(wireD, pt.WireDelay)
					wireS = append(wireS, pt.WireSlew)
					minSlew = math.Min(minSlew, pt.InputSlew)
					maxSlew = math.Max(maxSlew, pt.InputSlew)
					if cfg.KeepSamples {
						lib.SinglePoints = append(lib.SinglePoints, pt)
					}
				}
			}
			sf, err := fitSingle(slews, lengths, bufD, wireD, wireS, cfg.Degree)
			if err != nil {
				return nil, fmt.Errorf("charlib: fitting %s->%s: %w", drive.Name, load.Name, err)
			}
			lib.Single[key(drive.Name, load.Name)] = sf
		}
	}

	// Branch sweep: per driving buffer with the reference load on both arms.
	refLoad := t.Buffers[len(t.Buffers)/2]
	for _, drive := range t.Buffers {
		var slews, lls, lrs, bufD, ld, rd, ls, rs []float64
		for _, linput := range cfg.InputWireLengths {
			for _, ll := range cfg.BranchLengths {
				for _, lr := range cfg.BranchLengths {
					pt, err := measureBranch(t, cfg, drive, refLoad, linput, ll, lr)
					if err != nil {
						return nil, fmt.Errorf("charlib: branch %s linput=%v L=(%v,%v): %w",
							drive.Name, linput, ll, lr, err)
					}
					slews = append(slews, pt.InputSlew)
					lls = append(lls, pt.LeftLen)
					lrs = append(lrs, pt.RightLen)
					bufD = append(bufD, pt.BufferDelay)
					ld = append(ld, pt.LeftDelay)
					rd = append(rd, pt.RightDelay)
					ls = append(ls, pt.LeftSlew)
					rs = append(rs, pt.RightSlew)
					minSlew = math.Min(minSlew, pt.InputSlew)
					maxSlew = math.Max(maxSlew, pt.InputSlew)
					if cfg.KeepSamples {
						lib.BranchPoints = append(lib.BranchPoints, pt)
					}
				}
			}
		}
		bf, err := fitBranch(slews, lls, lrs, bufD, ld, rd, ls, rs, cfg.Degree)
		if err != nil {
			return nil, fmt.Errorf("charlib: fitting branch %s: %w", drive.Name, err)
		}
		lib.Branches[drive.Name] = bf
	}

	lib.SlewRange = [2]float64{minSlew, maxSlew}
	lib.LengthRange = [2]float64{1, maxLen}
	return lib, nil
}

// measureSingle simulates the Figure 3.3 circuit: source -> input buffer ->
// slew-shaping wire -> driving buffer -> wire L -> load buffer.
func measureSingle(t *tech.Technology, cfg Config, drive, load tech.Buffer, linput, length float64) (SinglePoint, error) {
	shaper := t.Buffers[len(t.Buffers)/2]
	net := circuit.New()
	src := net.AddSource("clk", t.SourceDriveRes)
	binOut := net.AddBuffer("binput", shaper, src)
	driveIn := net.AddWire(t, binOut, linput, 100)
	driveOut := net.AddBuffer("bdrive", drive, driveIn)
	wireEnd := net.AddWire(t, driveOut, length, 100)
	loadOut := net.AddBuffer("bload", load, wireEnd)
	net.AddSink("term", loadOut, t.SinkCapDefault)

	res, err := spice.Simulate(net, t, spice.Options{TimeStep: cfg.TimeStep, SourceSlew: 30})
	if err != nil {
		return SinglePoint{}, err
	}
	inSlew, err := res.SlewAt(driveIn)
	if err != nil {
		return SinglePoint{}, err
	}
	dIn, err := res.DelayTo(driveIn)
	if err != nil {
		return SinglePoint{}, err
	}
	dOut, err := res.DelayTo(driveOut)
	if err != nil {
		return SinglePoint{}, err
	}
	dEnd, err := res.DelayTo(wireEnd)
	if err != nil {
		return SinglePoint{}, err
	}
	endSlew, err := res.SlewAt(wireEnd)
	if err != nil {
		return SinglePoint{}, err
	}
	return SinglePoint{
		Drive: drive.Name, Load: load.Name,
		InputSlew:   inSlew,
		Length:      length,
		BufferDelay: dOut - dIn,
		WireDelay:   dEnd - dOut,
		WireSlew:    endSlew,
	}, nil
}

// measureBranch simulates the Figure 3.5 circuit: the driving buffer's output
// splits into two wires of lengths ll and lr, each ending in the reference
// load buffer.
func measureBranch(t *tech.Technology, cfg Config, drive, refLoad tech.Buffer, linput, ll, lr float64) (BranchPoint, error) {
	shaper := t.Buffers[len(t.Buffers)/2]
	net := circuit.New()
	src := net.AddSource("clk", t.SourceDriveRes)
	binOut := net.AddBuffer("binput", shaper, src)
	driveIn := net.AddWire(t, binOut, linput, 100)
	driveOut := net.AddBuffer("bdrive", drive, driveIn)
	leftEnd := net.AddWire(t, driveOut, ll, 100)
	rightEnd := net.AddWire(t, driveOut, lr, 100)
	leftOut := net.AddBuffer("bleft", refLoad, leftEnd)
	rightOut := net.AddBuffer("bright", refLoad, rightEnd)
	net.AddSink("tl", leftOut, t.SinkCapDefault)
	net.AddSink("tr", rightOut, t.SinkCapDefault)

	res, err := spice.Simulate(net, t, spice.Options{TimeStep: cfg.TimeStep, SourceSlew: 30})
	if err != nil {
		return BranchPoint{}, err
	}
	inSlew, err := res.SlewAt(driveIn)
	if err != nil {
		return BranchPoint{}, err
	}
	dIn, err := res.DelayTo(driveIn)
	if err != nil {
		return BranchPoint{}, err
	}
	dOut, err := res.DelayTo(driveOut)
	if err != nil {
		return BranchPoint{}, err
	}
	dLeft, err := res.DelayTo(leftEnd)
	if err != nil {
		return BranchPoint{}, err
	}
	dRight, err := res.DelayTo(rightEnd)
	if err != nil {
		return BranchPoint{}, err
	}
	sLeft, err := res.SlewAt(leftEnd)
	if err != nil {
		return BranchPoint{}, err
	}
	sRight, err := res.SlewAt(rightEnd)
	if err != nil {
		return BranchPoint{}, err
	}
	return BranchPoint{
		Drive:     drive.Name,
		InputSlew: inSlew,
		LeftLen:   ll, RightLen: lr,
		BufferDelay: dOut - dIn,
		LeftDelay:   dLeft - dOut, RightDelay: dRight - dOut,
		LeftSlew: sLeft, RightSlew: sRight,
	}, nil
}

func fitSingle(slews, lengths, bufD, wireD, wireS []float64, degree int) (*SingleFits, error) {
	b, err := fit.FitSurface(slews, lengths, bufD, degree)
	if err != nil {
		return nil, err
	}
	w, err := fit.FitSurface(slews, lengths, wireD, degree)
	if err != nil {
		return nil, err
	}
	s, err := fit.FitSurface(slews, lengths, wireS, degree)
	if err != nil {
		return nil, err
	}
	xs := make([][]float64, len(slews))
	for i := range slews {
		xs[i] = []float64{slews[i], lengths[i]}
	}
	return &SingleFits{
		BufferDelay: b, WireDelay: w, WireSlew: s,
		Quality: map[string]fit.Quality{
			"buffer": b.Assess(xs, bufD),
			"wire":   w.Assess(xs, wireD),
			"slew":   s.Assess(xs, wireS),
		},
	}, nil
}

func fitBranch(slews, lls, lrs, bufD, ld, rd, ls, rs []float64, degree int) (*BranchFits, error) {
	fb, err := fit.FitHyper(slews, lls, lrs, bufD, degree)
	if err != nil {
		return nil, err
	}
	fld, err := fit.FitHyper(slews, lls, lrs, ld, degree)
	if err != nil {
		return nil, err
	}
	frd, err := fit.FitHyper(slews, lls, lrs, rd, degree)
	if err != nil {
		return nil, err
	}
	fls, err := fit.FitHyper(slews, lls, lrs, ls, degree)
	if err != nil {
		return nil, err
	}
	frs, err := fit.FitHyper(slews, lls, lrs, rs, degree)
	if err != nil {
		return nil, err
	}
	xs := make([][]float64, len(slews))
	for i := range slews {
		xs[i] = []float64{slews[i], lls[i], lrs[i]}
	}
	return &BranchFits{
		BufferDelay: fb, LeftDelay: fld, RightDelay: frd, LeftSlew: fls, RightSlew: frs,
		Quality: map[string]fit.Quality{
			"buffer":     fb.Assess(xs, bufD),
			"left":       fld.Assess(xs, ld),
			"right":      frd.Assess(xs, rd),
			"left_slew":  fls.Assess(xs, ls),
			"right_slew": frs.Assess(xs, rs),
		},
	}, nil
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

// libraryJSON is the on-disk representation of a library.
type libraryJSON struct {
	// Tags spell out the historical default names so the on-disk format
	// stays stable even if the Go identifiers are ever renamed.
	TechName    string                 `json:"TechName"`
	Analytic    bool                   `json:"Analytic"`
	SlewRange   [2]float64             `json:"SlewRange"`
	LengthRange [2]float64             `json:"LengthRange"`
	Single      map[string]*SingleFits `json:"Single"`
	Branch      map[string]*BranchFits `json:"Branch"`
}

// Save writes the library to a JSON file.
func (l *Library) Save(path string) error {
	data, err := json.MarshalIndent(libraryJSON{
		TechName:    l.TechName,
		Analytic:    l.Analytic,
		SlewRange:   l.SlewRange,
		LengthRange: l.LengthRange,
		Single:      l.Single,
		Branch:      l.Branches,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("charlib: marshal: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Select resolves the CLI-flag triple shared by the cts and ctsd commands:
// a saved characterized-library file when path is set, the analytic closed
// form when analytic is set, and a fresh default characterization otherwise.
func Select(t *tech.Technology, analytic bool, path string) (*Library, error) {
	if path != "" {
		return Load(path, t)
	}
	if analytic {
		return NewAnalytic(t), nil
	}
	return Characterize(t, Config{})
}

// Load reads a library from a JSON file and binds it to the technology.
func Load(path string, t *tech.Technology) (*Library, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("charlib: read: %w", err)
	}
	var lj libraryJSON
	if err := json.Unmarshal(data, &lj); err != nil {
		return nil, fmt.Errorf("charlib: unmarshal: %w", err)
	}
	if lj.TechName != t.Name {
		return nil, fmt.Errorf("charlib: library built for technology %q, not %q", lj.TechName, t.Name)
	}
	if lj.Single == nil && !lj.Analytic {
		return nil, errors.New("charlib: library file has no single-wire fits")
	}
	lib := &Library{
		TechName:    lj.TechName,
		Analytic:    lj.Analytic,
		SlewRange:   lj.SlewRange,
		LengthRange: lj.LengthRange,
		Single:      lj.Single,
		Branches:    lj.Branch,
		tech:        t,
	}
	if lib.Single == nil {
		lib.Single = map[string]*SingleFits{}
	}
	if lib.Branches == nil {
		lib.Branches = map[string]*BranchFits{}
	}
	return lib, nil
}
