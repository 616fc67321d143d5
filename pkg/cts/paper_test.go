package cts_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/charlib"
	"repro/internal/clocktree"
	"repro/internal/geom"
	"repro/internal/spice"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// The paper's properties of the synthesized tree, checked through the
// public flow: slew under the limit in library timing and in simulation,
// buffering that tracks the limit, and skew that stays a small fraction of
// the latency.

// synthesize runs a default-technology flow over the sinks.
func synthesize(t *testing.T, sinks []cts.Sink, opts ...cts.Option) *cts.Result {
	t.Helper()
	flow, err := cts.New(tech.Default(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Run(context.Background(), sinks)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSmallBenchmark(t *testing.T) {
	res := synthesize(t, randomSinks(1, 24, 8000))
	if err := res.Tree.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	if res.Stats.Sinks != 24 {
		t.Errorf("sinks = %d, want 24", res.Stats.Sinks)
	}
	if res.Stats.Buffers == 0 {
		t.Error("expected buffer insertion on an 8 mm die")
	}
	if res.Timing.WorstSlew > res.Settings.SlewLimit {
		t.Errorf("library-estimated worst slew %v exceeds the limit %v", res.Timing.WorstSlew, res.Settings.SlewLimit)
	}
	if res.Timing.Skew <= 0 || res.Timing.Skew > 0.25*res.Timing.MaxLatency {
		t.Errorf("skew %v ps should be positive and well below the latency %v ps", res.Timing.Skew, res.Timing.MaxLatency)
	}
	if res.Levels < 4 || res.Levels > 6 {
		t.Errorf("levels = %d for 24 sinks, expected about ceil(log2 24) = 5", res.Levels)
	}
}

func TestSynthesizedTreeMeetsSlewInSimulation(t *testing.T) {
	// The headline claim of Table 5.1/5.2: the simulated worst slew of the
	// synthesized tree stays within the 100 ps limit, and the skew remains a
	// small fraction of the latency.
	res := synthesize(t, randomSinks(7, 20, 10000))
	vr, err := res.Verify(&spice.Options{TimeStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if vr.WorstSlew > res.Settings.SlewLimit {
		t.Errorf("simulated worst slew %v ps exceeds the %v ps limit", vr.WorstSlew, res.Settings.SlewLimit)
	}
	if vr.Skew > 0.35*vr.MaxLatency {
		t.Errorf("simulated skew %v ps is too large a fraction of latency %v ps", vr.Skew, vr.MaxLatency)
	}
}

func TestAggressiveInsertionBeatsMergeNodeOnlyOnSlew(t *testing.T) {
	// On a large die the merge-node-only policy violates the slew limit
	// while the aggressive policy holds it (the paper's core argument).
	res := synthesize(t, randomSinks(13, 16, 14000))
	vr, err := res.Verify(&spice.Options{TimeStep: 2})
	if err != nil {
		t.Fatal(err)
	}
	if vr.WorstSlew > 100 {
		t.Errorf("aggressive insertion worst slew = %v ps, want <= 100", vr.WorstSlew)
	}
}

func TestCorrectionModesRunAndReport(t *testing.T) {
	sinks := randomSinks(3, 16, 6000)
	if base := synthesize(t, sinks, cts.WithCorrection(cts.CorrectionNone)); base.Flippings != 0 {
		t.Errorf("no-correction run reported %d flippings", base.Flippings)
	}
	for _, mode := range []cts.Correction{cts.CorrectionReEstimate, cts.CorrectionFull} {
		res := synthesize(t, sinks, cts.WithCorrection(mode))
		if err := res.Tree.Validate(); err != nil {
			t.Fatalf("%v: invalid tree: %v", mode, err)
		}
		if res.Stats.Sinks != len(sinks) {
			t.Errorf("%v: lost sinks (%d of %d)", mode, res.Stats.Sinks, len(sinks))
		}
		if res.Timing.WorstSlew > 100 {
			t.Errorf("%v: worst slew %v exceeds the limit", mode, res.Timing.WorstSlew)
		}
		if res.Flippings < 0 || res.Flippings > len(sinks) {
			t.Errorf("%v: implausible flipping count %d", mode, res.Flippings)
		}
	}
}

func TestRunWithExplicitSource(t *testing.T) {
	src := geom.Pt(0, 0)
	res := synthesize(t, randomSinks(5, 8, 5000), cts.WithSource(src))
	if res.Tree.Root.Pos != src {
		t.Errorf("source at %v, want %v", res.Tree.Root.Pos, src)
	}
	if res.Timing.WorstSlew > 100 {
		t.Errorf("worst slew %v with a remote source", res.Timing.WorstSlew)
	}
}

func TestTwoSinksAndDefaults(t *testing.T) {
	tt := tech.Default()
	sinks := []cts.Sink{{Pos: geom.Pt(0, 0)}, {Pos: geom.Pt(2500, 1500)}}
	res := synthesize(t, sinks, cts.WithLibrary(charlib.NewAnalytic(tt)))
	if res.Stats.Sinks != 2 || res.Levels != 1 {
		t.Errorf("stats = %+v levels = %d", res.Stats, res.Levels)
	}
	// Sinks without explicit capacitance receive the technology default.
	for _, s := range clocktree.Sinks(res.Tree.Root) {
		if s.SinkCap != tt.SinkCapDefault {
			t.Errorf("sink cap = %v, want default %v", s.SinkCap, tt.SinkCapDefault)
		}
	}
	if res.Timing.Skew > 10 {
		t.Errorf("two-sink skew = %v ps, want small", res.Timing.Skew)
	}
}

func TestTightSlewLimitInsertsMoreBuffers(t *testing.T) {
	sinks := randomSinks(17, 12, 9000)
	loose := synthesize(t, sinks, cts.WithSlewLimit(140))
	tight := synthesize(t, sinks, cts.WithSlewLimit(70))
	if tight.Stats.Buffers <= loose.Stats.Buffers {
		t.Errorf("tight limit used %d buffers, loose used %d; expected more buffers under the tighter limit",
			tight.Stats.Buffers, loose.Stats.Buffers)
	}
	if tight.Timing.WorstSlew > 70 {
		t.Errorf("tight-limit worst slew %v exceeds 70 ps", tight.Timing.WorstSlew)
	}
}

func TestSkewScalesReasonablyWithSinkCount(t *testing.T) {
	for _, n := range []int{8, 32} {
		res := synthesize(t, randomSinks(int64(n), n, 8000))
		if res.Timing.Skew > 0.2*res.Timing.MaxLatency+5 {
			t.Errorf("n=%d: skew %v vs latency %v", n, res.Timing.Skew, res.Timing.MaxLatency)
		}
		if math.IsNaN(res.Timing.MaxLatency) || res.Timing.MaxLatency <= 0 {
			t.Errorf("n=%d: bad latency %v", n, res.Timing.MaxLatency)
		}
	}
}
