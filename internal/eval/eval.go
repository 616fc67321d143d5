// Package eval regenerates every table and figure of the paper's evaluation
// (Chapter 5) plus the motivating and characterization figures (1.1, 3.2,
// 3.4, 3.6/3.7).  Each experiment returns a plain data structure and a text
// rendering so the command-line harness, the Go benchmarks and the tests can
// share one implementation.
package eval

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/circuit"
	"repro/internal/clocktree"
	"repro/internal/dme"
	"repro/internal/spice"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// Config carries the shared experiment settings.
type Config struct {
	// Tech is the technology; nil selects tech.Default().
	Tech *tech.Technology
	// Library is the delay/slew library used for synthesis; nil builds the
	// characterized library (the paper's configuration).
	Library *charlib.Library
	// SlewLimit is the hard constraint (default 100 ps).
	SlewLimit float64
	// MaxSinks truncates each benchmark to at most this many sinks
	// (0 = full size); used to keep test and benchmark runs fast.
	MaxSinks int
	// SimStep is the verification time step in ps (default 1).
	SimStep float64
	// Benchmarks restricts the benchmark set (nil = the full suite of the
	// corresponding table).
	Benchmarks []string
	// Workers bounds the cts.RunBatch worker pool that synthesizes the
	// table benchmarks concurrently (0 = GOMAXPROCS).
	Workers int
	// Topology selects the pairing strategy for every synthesized table
	// entry (default cts.TopologyGreedy, the paper's indexed matching);
	// the DME baselines always use the paper's greedy pairing.  Routing is
	// always cts.RoutingFlat, the paper's full-resolution maze.
	Topology cts.TopologyStrategy
	// Observer taps the synthesis event stream of every table run (nil =
	// no observation).  A cts.MetricsObserver here aggregates eval runs
	// into the same per-stage stats a ctsd service exposes on /v1/stats.
	Observer cts.Observer
}

func (c Config) withDefaults() (Config, error) {
	if c.Tech == nil {
		c.Tech = tech.Default()
	}
	if c.SlewLimit <= 0 {
		c.SlewLimit = 100
	}
	if c.SimStep <= 0 {
		c.SimStep = 1
	}
	if c.Library == nil {
		lib, err := charlib.Characterize(c.Tech, charlib.Config{})
		if err != nil {
			return c, fmt.Errorf("eval: characterizing library: %w", err)
		}
		c.Library = lib
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Tables 5.1 and 5.2
// ---------------------------------------------------------------------------

// TableRow is one benchmark line of Table 5.1/5.2.
type TableRow struct {
	Name       string
	Sinks      int
	WorstSlew  float64 // ps, from transient verification
	Skew       float64 // ps, from transient verification
	MaxLatency float64 // ps, from transient verification
	Buffers    int
	WireLength float64 // um
	// BaselineSkew and BaselineWorstSlew come from the merge-node-only
	// buffered DME baseline (the comparison columns of Table 5.1).
	BaselineSkew      float64
	BaselineWorstSlew float64
}

// Table is a rendered experiment table.
type Table struct {
	Title string
	Rows  []TableRow
}

// Table51 regenerates Table 5.1 (GSRC benchmarks).
func Table51(ctx context.Context, cfg Config) (*Table, error) {
	cfg2, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	names := cfg2.Benchmarks
	if names == nil {
		names = bench.GSRCNames()
	}
	return runTable(ctx, cfg2, "Table 5.1: GSRC benchmarks", names)
}

// Table52 regenerates Table 5.2 (ISPD benchmarks).
func Table52(ctx context.Context, cfg Config) (*Table, error) {
	cfg2, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	names := cfg2.Benchmarks
	if names == nil {
		names = bench.ISPDNames()
	}
	return runTable(ctx, cfg2, "Table 5.2: ISPD benchmarks", names)
}

// loadBenchmarks resolves the named benchmarks into cts batch items.
func loadBenchmarks(cfg Config, names []string) ([]bench.Benchmark, []cts.BatchItem, error) {
	bms := make([]bench.Benchmark, 0, len(names))
	items := make([]cts.BatchItem, 0, len(names))
	for _, name := range names {
		bm, err := bench.SyntheticScaled(name, cfg.MaxSinks)
		if err != nil {
			return nil, nil, err
		}
		bms = append(bms, bm)
		items = append(items, cts.BatchItem{Name: bm.Name, Sinks: bm.Sinks})
	}
	return bms, items, nil
}

// tableFlow assembles the synthesis pipeline shared by the table
// experiments, with the verify stage enabled so every batch result carries
// its simulated timing.  The RunBatch workers and the concurrent DME
// baselines already saturate the machine across benchmarks, so the intra-run
// merge fan-out is pinned to 1 to avoid stacking a second worker pool on
// every batch worker.
func tableFlow(cfg Config, extra ...cts.Option) (*cts.Flow, error) {
	opts := []cts.Option{
		cts.WithLibrary(cfg.Library),
		cts.WithSlewLimit(cfg.SlewLimit),
		cts.WithVerification(spice.Options{TimeStep: cfg.SimStep}),
		cts.WithTopologyStrategy(cfg.Topology),
		cts.WithParallelism(1),
	}
	if cfg.Observer != nil {
		opts = append(opts, cts.WithObserver(cfg.Observer))
	}
	opts = append(opts, extra...)
	return cts.New(cfg.Tech, opts...)
}

func runTable(ctx context.Context, cfg Config, title string, names []string) (*Table, error) {
	bms, items, err := loadBenchmarks(cfg, names)
	if err != nil {
		return nil, err
	}
	flow, err := tableFlow(cfg)
	if err != nil {
		return nil, err
	}

	// The per-benchmark DME baselines are independent of the main synthesis
	// and of each other; fan them out over the same worker budget while the
	// batch runs.
	type baseOut struct {
		skew, worstSlew float64
		err             error
	}
	baselines := make([]baseOut, len(bms))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range bms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			b := &baselines[i]
			b.skew, b.worstSlew, b.err = baseline(ctx, cfg, bms[i])
		}(i)
	}

	batch := flow.RunBatch(ctx, items, cfg.Workers)
	wg.Wait()

	out := &Table{Title: title}
	for i, br := range batch {
		if br.Err != nil {
			return nil, fmt.Errorf("eval: %s: %w", br.Name, br.Err)
		}
		if baselines[i].err != nil {
			return nil, fmt.Errorf("eval: %s: %w", br.Name, baselines[i].err)
		}
		res, vr := br.Result, br.Result.Verification
		out.Rows = append(out.Rows, TableRow{
			Name:              br.Name,
			Sinks:             len(bms[i].Sinks),
			WorstSlew:         vr.WorstSlew,
			Skew:              vr.Skew,
			MaxLatency:        vr.MaxLatency,
			Buffers:           res.Stats.Buffers,
			WireLength:        res.Stats.TotalWire,
			BaselineSkew:      baselines[i].skew,
			BaselineWorstSlew: baselines[i].worstSlew,
		})
	}
	return out, nil
}

// baseline synthesizes and verifies the merge-node-only buffered DME tree
// (the comparison columns of Table 5.1).
func baseline(ctx context.Context, cfg Config, bm bench.Benchmark) (skew, worstSlew float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	baseSinks := make([]dme.Sink, len(bm.Sinks))
	for i, s := range bm.Sinks {
		capFF := s.Cap
		if capFF <= 0 {
			capFF = cfg.Tech.SinkCapDefault
		}
		baseSinks[i] = dme.Sink{Name: s.Name, Pos: s.Pos, Cap: capFF}
	}
	baseTree, err := dme.Synthesize(ctx, cfg.Tech, baseSinks, dme.Options{SlewLimit: cfg.SlewLimit * 0.8})
	if err != nil {
		return 0, 0, fmt.Errorf("baseline: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	baseVR, err := clocktree.Verify(baseTree, spice.Options{TimeStep: cfg.SimStep})
	if err != nil {
		return 0, 0, fmt.Errorf("baseline verify: %w", err)
	}
	return baseVR.Skew, baseVR.WorstSlew, nil
}

// Render produces the text form of the table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-10s %7s %12s %10s %14s %9s %12s %14s %16s\n",
		"bench", "sinks", "worstSlew", "skew", "maxLatency", "buffers", "wire(mm)", "baseSkew", "baseWorstSlew")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %7d %9.1f ps %7.1f ps %11.1f ps %9d %12.2f %11.1f ps %13.1f ps\n",
			r.Name, r.Sinks, r.WorstSlew, r.Skew, r.MaxLatency, r.Buffers, r.WireLength/1000,
			r.BaselineSkew, r.BaselineWorstSlew)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 5.3: H-structure corrections
// ---------------------------------------------------------------------------

// CorrectionRow is one benchmark line of Table 5.3.
type CorrectionRow struct {
	Name            string
	OriginalSkew    float64 // ps
	ReEstimateSkew  float64 // ps
	ReEstimateRatio float64 // (re-estimate - original) / original
	CorrectionSkew  float64 // ps
	CorrectionRatio float64
	Flippings       int // flippings performed by the full correction
}

// CorrectionTable is the rendered Table 5.3.
type CorrectionTable struct {
	Rows []CorrectionRow
	// AvgReEstimateRatio and AvgCorrectionRatio are the averages the paper
	// quotes (-2.43% and -6.13%).
	AvgReEstimateRatio float64
	AvgCorrectionRatio float64
}

// Table53 regenerates Table 5.3 over the given benchmarks (default: the full
// 12-benchmark suite).  Each correction mode gets its own flow; within a
// mode the benchmarks synthesize concurrently.
func Table53(ctx context.Context, cfg Config) (*CorrectionTable, error) {
	cfg2, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	names := cfg2.Benchmarks
	if names == nil {
		names = bench.AllNames()
	}
	bms, items, err := loadBenchmarks(cfg2, names)
	if err != nil {
		return nil, err
	}

	skews := map[cts.Correction][]float64{}
	flippings := make([]int, len(bms))
	for _, mode := range []cts.Correction{cts.CorrectionNone, cts.CorrectionReEstimate, cts.CorrectionFull} {
		flow, err := tableFlow(cfg2, cts.WithCorrection(mode))
		if err != nil {
			return nil, err
		}
		for i, br := range flow.RunBatch(ctx, items, cfg2.Workers) {
			if br.Err != nil {
				return nil, fmt.Errorf("eval: %s %v: %w", br.Name, mode, br.Err)
			}
			skews[mode] = append(skews[mode], br.Result.Verification.Skew)
			if mode == cts.CorrectionFull {
				flippings[i] = br.Result.Flippings
			}
		}
	}

	out := &CorrectionTable{}
	for i, bm := range bms {
		row := CorrectionRow{
			Name:           bm.Name,
			OriginalSkew:   skews[cts.CorrectionNone][i],
			ReEstimateSkew: skews[cts.CorrectionReEstimate][i],
			CorrectionSkew: skews[cts.CorrectionFull][i],
			Flippings:      flippings[i],
		}
		if row.OriginalSkew > 0 {
			row.ReEstimateRatio = (row.ReEstimateSkew - row.OriginalSkew) / row.OriginalSkew
			row.CorrectionRatio = (row.CorrectionSkew - row.OriginalSkew) / row.OriginalSkew
		}
		out.Rows = append(out.Rows, row)
	}
	for _, r := range out.Rows {
		out.AvgReEstimateRatio += r.ReEstimateRatio
		out.AvgCorrectionRatio += r.CorrectionRatio
	}
	if n := float64(len(out.Rows)); n > 0 {
		out.AvgReEstimateRatio /= n
		out.AvgCorrectionRatio /= n
	}
	return out, nil
}

// Render produces the text form of Table 5.3.
func (t *CorrectionTable) Render() string {
	var b strings.Builder
	b.WriteString("Table 5.3: H-structure corrections\n")
	fmt.Fprintf(&b, "%-10s %14s %16s %9s %16s %9s %10s\n",
		"bench", "origSkew", "reEstSkew", "ratio", "corrSkew", "ratio", "flippings")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %11.1f ps %13.1f ps %8.1f%% %13.1f ps %8.1f%% %10d\n",
			r.Name, r.OriginalSkew, r.ReEstimateSkew, r.ReEstimateRatio*100,
			r.CorrectionSkew, r.CorrectionRatio*100, r.Flippings)
	}
	fmt.Fprintf(&b, "average ratios: re-estimation %.2f%%, correction %.2f%%\n",
		t.AvgReEstimateRatio*100, t.AvgCorrectionRatio*100)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 1.1: slew vs. wire length for two buffer sizes
// ---------------------------------------------------------------------------

// Figure11Point is one point of the Figure 1.1 sweep.
type Figure11Point struct {
	Length  float64 // um
	Slew20X float64 // ps
	Slew30X float64 // ps
}

// Figure11 sweeps wire length for 20X and 30X driving buffers and reports the
// wire output slew, demonstrating that buffer upsizing alone cannot control
// slew (Figure 1.1).
func Figure11(ctx context.Context, cfg Config, lengths []float64) ([]Figure11Point, error) {
	cfg2 := cfg
	if cfg2.Tech == nil {
		cfg2.Tech = tech.Default()
	}
	if lengths == nil {
		lengths = []float64{500, 1000, 1500, 2000, 3000, 4000, 5000, 6000}
	}
	t := cfg2.Tech
	b20, _ := t.BufferByName("BUF_X20")
	b30, _ := t.BufferByName("BUF_X30")
	var out []Figure11Point
	for _, l := range lengths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := Figure11Point{Length: l}
		for _, which := range []struct {
			buf  tech.Buffer
			dest *float64
		}{{b20, &p.Slew20X}, {b30, &p.Slew30X}} {
			net := circuit.New()
			src := net.AddSource("clk", t.SourceDriveRes)
			bufOut := net.AddBuffer("drv", which.buf, src)
			end := net.AddWire(t, bufOut, l, 100)
			net.AddSink("load", end, t.SinkCapDefault)
			res, err := spice.Simulate(net, t, spice.Options{TimeStep: 1})
			if err != nil {
				return nil, err
			}
			s, err := res.SlewAt(end)
			if err != nil {
				return nil, err
			}
			*which.dest = s
		}
		out = append(out, p)
	}
	return out, nil
}

// RenderFigure11 renders the Figure 1.1 series as text.
func RenderFigure11(points []Figure11Point) string {
	var b strings.Builder
	b.WriteString("Figure 1.1: wire output slew vs. length (buffer sizing alone cannot control slew)\n")
	fmt.Fprintf(&b, "%10s %14s %14s\n", "length(um)", "slew 20X (ps)", "slew 30X (ps)")
	for _, p := range points {
		fmt.Fprintf(&b, "%10.0f %14.1f %14.1f\n", p.Length, p.Slew20X, p.Slew30X)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 3.2: curve vs. ramp input
// ---------------------------------------------------------------------------

// Figure32Result summarizes the curve-vs-ramp experiment.
type Figure32Result struct {
	InputSlew float64 // ps, identical 10-90% slew of both stimuli
	// OutputShift is the difference of the output mid-rail crossing times
	// when the two stimuli start at the same instant.
	OutputShift float64
	// DelayError is the difference of the 50%-referenced delays (the error a
	// ramp approximation would make).
	DelayError float64
}

// Figure32 drives the Binput -> wire -> Bload circuit of Figure 3.1 with a
// curve and a ramp of equal slew and measures the response shift.
func Figure32(ctx context.Context, cfg Config) (*Figure32Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg2 := cfg
	if cfg2.Tech == nil {
		cfg2.Tech = tech.Default()
	}
	t := cfg2.Tech
	buf := t.Buffers[1]
	const slew = 150.0
	measure := func(shape spice.StimulusShape) (cross, delay float64, err error) {
		net := circuit.New()
		src := net.AddSource("clk", t.SourceDriveRes)
		bOut := net.AddBuffer("binput", buf, src)
		end := net.AddWire(t, bOut, 800, 100)
		lOut := net.AddBuffer("bload", buf, end)
		net.AddSink("term", lOut, t.SinkCapDefault)
		res, err := spice.Simulate(net, t, spice.Options{Shape: shape, SourceSlew: slew, TimeStep: 0.5})
		if err != nil {
			return 0, 0, err
		}
		w, _ := res.Waveform(lOut)
		cross, err = w.CrossingTime(t.SwitchingThreshold * t.Vdd)
		if err != nil {
			return 0, 0, err
		}
		delay, err = res.DelayTo(lOut)
		return cross, delay, err
	}
	cCross, cDelay, err := measure(spice.StimulusCurve)
	if err != nil {
		return nil, err
	}
	rCross, rDelay, err := measure(spice.StimulusRamp)
	if err != nil {
		return nil, err
	}
	return &Figure32Result{
		InputSlew:   slew,
		OutputShift: math.Abs(cCross - rCross),
		DelayError:  math.Abs(cDelay - rDelay),
	}, nil
}

// Render renders the Figure 3.2 result.
func (f *Figure32Result) Render() string {
	return fmt.Sprintf("Figure 3.2: curve vs. ramp input of equal %.0f ps slew\n"+
		"  output waveform shift: %.1f ps\n  50%%-referenced delay error: %.1f ps\n",
		f.InputSlew, f.OutputShift, f.DelayError)
}

// ---------------------------------------------------------------------------
// Figures 3.4, 3.6, 3.7: characterization surfaces
// ---------------------------------------------------------------------------

// SurfaceSample is one (x, y, value) sample of a characterized surface.
type SurfaceSample struct {
	InputSlew float64
	X, Y      float64 // wire length (3.4) or left/right lengths (3.6/3.7)
	Value     float64
}

// Figure34 returns the buffer intrinsic delay surface samples of the
// characterized library for the given driving buffer (Figure 3.4), evaluated
// on a regular (input slew, wire length) grid.
func Figure34(ctx context.Context, cfg Config, driveName string) ([]SurfaceSample, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg2, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := cfg2.Tech
	drive, ok := t.BufferByName(driveName)
	if !ok {
		drive = t.Buffers[0]
	}
	load := t.Buffers[len(t.Buffers)/2]
	var out []SurfaceSample
	for _, slew := range []float64{20, 50, 80, 110, 140} {
		for _, l := range []float64{100, 500, 1000, 1500, 2000} {
			tm := cfg2.Library.SingleWire(drive, load.InputCap, slew, l)
			out = append(out, SurfaceSample{InputSlew: slew, X: l, Value: tm.BufferDelay})
		}
	}
	return out, nil
}

// Figure36and37 returns the left- and right-branch wire delay surfaces of the
// branch library for the given driving buffer (Figures 3.6 and 3.7).
func Figure36and37(ctx context.Context, cfg Config, driveName string) (left, right []SurfaceSample, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cfg2, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	t := cfg2.Tech
	drive, ok := t.BufferByName(driveName)
	if !ok {
		drive = t.LargestBuffer()
	}
	refCap := t.Buffers[len(t.Buffers)/2].InputCap
	const slew = 80.0
	for _, ll := range []float64{200, 600, 1000, 1400} {
		for _, lr := range []float64{200, 600, 1000, 1400} {
			bt := cfg2.Library.Branch(drive, slew, ll, lr, refCap, refCap)
			left = append(left, SurfaceSample{InputSlew: slew, X: ll, Y: lr, Value: bt.LeftDelay})
			right = append(right, SurfaceSample{InputSlew: slew, X: ll, Y: lr, Value: bt.RightDelay})
		}
	}
	return left, right, nil
}

// RenderSurface renders surface samples as a text table.
func RenderSurface(title string, samples []SurfaceSample) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%12s %12s %12s %12s\n", "inputSlew", "x", "y", "value(ps)")
	for _, s := range samples {
		fmt.Fprintf(&b, "%12.1f %12.1f %12.1f %12.2f\n", s.InputSlew, s.X, s.Y, s.Value)
	}
	return b.String()
}
