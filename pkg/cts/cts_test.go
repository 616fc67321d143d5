package cts_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/spice"
	"repro/internal/tech"
	"repro/pkg/cts"
)

func randomSinks(seed int64, n int, span float64) []cts.Sink {
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]cts.Sink, n)
	for i := range sinks {
		sinks[i] = cts.Sink{Pos: geom.Pt(rng.Float64()*span, rng.Float64()*span)}
	}
	return sinks
}

func TestOptionDefaulting(t *testing.T) {
	tt := tech.Default()

	flow, err := cts.New(tt)
	if err != nil {
		t.Fatal(err)
	}
	s := flow.Settings()
	if s.SlewLimit != 100 || s.SlewTarget != 80 {
		t.Errorf("default slew limit/target = %v/%v, want 100/80", s.SlewLimit, s.SlewTarget)
	}
	if s.Alpha != 1 || s.Beta != 20 {
		t.Errorf("default alpha/beta = %v/%v, want 1/20", s.Alpha, s.Beta)
	}
	if s.GridSize != 45 {
		t.Errorf("default grid = %d, want 45", s.GridSize)
	}
	if s.Correction != cts.CorrectionNone {
		t.Errorf("default correction = %v, want none", s.Correction)
	}
	if flow.Library() == nil {
		t.Error("default flow has no library (analytic fallback expected)")
	}

	// The slew target follows a custom limit at the 80% margin.
	flow, err = cts.New(tt, cts.WithSlewLimit(140))
	if err != nil {
		t.Fatal(err)
	}
	if got := flow.Settings().SlewTarget; got != 112 {
		t.Errorf("slew target for 140 ps limit = %v, want 112", got)
	}

	// An explicit target wins over the derived one.
	flow, err = cts.New(tt, cts.WithSlewLimit(100), cts.WithSlewTarget(60))
	if err != nil {
		t.Fatal(err)
	}
	if got := flow.Settings().SlewTarget; got != 60 {
		t.Errorf("explicit slew target = %v, want 60", got)
	}

	// Alpha/beta default only when both are zero, mirroring the legacy
	// Options semantics.
	flow, err = cts.New(tt, cts.WithCostWeights(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s := flow.Settings(); s.Alpha != 2 || s.Beta != 0 {
		t.Errorf("explicit alpha/beta = %v/%v, want 2/0", s.Alpha, s.Beta)
	}
}

func TestNewValidation(t *testing.T) {
	tt := tech.Default()
	if _, err := cts.New(nil); err == nil {
		t.Error("expected error for nil technology")
	}
	bad := tech.Default()
	bad.UnitCap = 0
	if _, err := cts.New(bad); err == nil {
		t.Error("expected error for invalid technology")
	}
	if _, err := cts.New(tt, cts.WithSlewLimit(50), cts.WithSlewTarget(90)); err == nil {
		t.Error("expected error for target above limit")
	}
	// A custom stage replaces the default pairing, but the strategy value
	// is still part of the effective settings and so still validated.
	if _, err := cts.New(tt, cts.WithTopologyBuilder(&adjacentTopology{}), cts.WithTopologyStrategy(9)); err == nil {
		t.Error("expected error for an unknown topology strategy beside a custom builder")
	}
}

// TestSettingsEffective pins Effective to New: the same effective settings
// value for value, and the same error for every rejected input.
func TestSettingsEffective(t *testing.T) {
	for _, s := range []cts.Settings{
		{},
		{SlewLimit: 140},
		{SlewLimit: 100, SlewTarget: 60},
		{SlewLimit: -5, SlewTarget: -1},
		{SlewLimit: 50, SlewTarget: 90},
		{SlewTarget: 120},
		{Alpha: 2},
		{Beta: 5},
		{GridSize: -3},
		{GridSize: 90, Correction: cts.CorrectionFull},
		{Routing: cts.RoutingHierarchical},
		{Routing: 7},
		{Topology: cts.TopologyBipartition},
		{Topology: 9},
		{SlewTarget: 200, Routing: 7, Topology: 9},
	} {
		eff, effErr := s.Effective()
		flow, newErr := cts.New(tech.Default(),
			cts.WithSlewLimit(s.SlewLimit),
			cts.WithSlewTarget(s.SlewTarget),
			cts.WithCostWeights(s.Alpha, s.Beta),
			cts.WithGrid(s.GridSize),
			cts.WithCorrection(s.Correction),
			cts.WithTopologyStrategy(s.Topology),
			cts.WithRoutingStrategy(s.Routing),
		)
		switch {
		case (effErr == nil) != (newErr == nil):
			t.Errorf("%+v: Effective error %v, New error %v", s, effErr, newErr)
		case effErr != nil && effErr.Error() != newErr.Error():
			t.Errorf("%+v: Effective says %q, New says %q", s, effErr, newErr)
		case effErr == nil && eff != flow.Settings():
			t.Errorf("%+v: Effective %+v, New %+v", s, eff, flow.Settings())
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	flow, err := cts.New(tech.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := flow.Run(ctx, nil); err == nil {
		t.Error("expected error for empty sinks")
	}
	dup := []cts.Sink{{Name: "x", Pos: geom.Pt(0, 0)}, {Name: "x", Pos: geom.Pt(10, 10)}}
	if _, err := flow.Run(ctx, dup); err == nil {
		t.Error("expected error for duplicate sink names")
	}
}

func TestContextCancellationMidSynthesis(t *testing.T) {
	tt := tech.Default()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel from inside the observer as soon as the first level completes;
	// the per-level loop must notice and abort the run.
	flow, err := cts.New(tt, cts.WithObserver(func(e cts.Event) {
		if e.Kind == cts.EventLevelDone && e.Level == 1 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Run(ctx, randomSinks(11, 16, 8000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}

	// A context cancelled before the run starts aborts immediately.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	flow2, err := cts.New(tt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flow2.Run(pre, randomSinks(11, 8, 4000)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}

func TestObserverEventOrdering(t *testing.T) {
	tt := tech.Default()
	var events []cts.Event
	flow, err := cts.New(tt,
		cts.WithObserver(func(e cts.Event) { events = append(events, e) }),
		cts.WithVerification(spice.Options{TimeStep: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Run(context.Background(), randomSinks(5, 12, 6000))
	if err != nil {
		t.Fatal(err)
	}

	if len(events) < 2 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Kind != cts.EventFlowStart || events[0].Sinks != 12 {
		t.Errorf("first event = %+v, want flow-start with 12 sinks", events[0])
	}
	last := events[len(events)-1]
	if last.Kind != cts.EventFlowEnd || last.Err != nil || last.Elapsed <= 0 {
		t.Errorf("last event = %+v, want clean flow-end with elapsed time", last)
	}

	// Stage starts and ends must pair up in order, with no stage open across
	// a level boundary.
	var open []string
	levels := 0
	lastSubtrees := 12
	var stageOrder []string
	for _, e := range events {
		switch e.Kind {
		case cts.EventStageStart:
			open = append(open, e.Stage)
			stageOrder = append(stageOrder, e.Stage)
		case cts.EventStageEnd:
			if len(open) == 0 || open[len(open)-1] != e.Stage {
				t.Fatalf("stage end %q without matching start (open: %v)", e.Stage, open)
			}
			open = open[:len(open)-1]
		case cts.EventLevelDone:
			if len(open) != 0 {
				t.Fatalf("level %d finished with open stages %v", e.Level, open)
			}
			levels++
			if e.Level != levels {
				t.Errorf("level-done out of order: got level %d, want %d", e.Level, levels)
			}
			if e.Subtrees >= lastSubtrees {
				t.Errorf("level %d: %d sub-trees, expected fewer than %d", e.Level, e.Subtrees, lastSubtrees)
			}
			lastSubtrees = e.Subtrees
		}
	}
	if len(open) != 0 {
		t.Errorf("unclosed stages at flow end: %v", open)
	}
	if levels != res.Levels {
		t.Errorf("observed %d level-done events, result reports %d levels", levels, res.Levels)
	}
	if lastSubtrees != 1 {
		t.Errorf("final level left %d sub-trees, want 1", lastSubtrees)
	}

	// The per-level stages alternate topology -> mergeroute, and the run
	// closes with buffering, timing, verify.
	wantTail := []string{cts.StageBuffering, cts.StageTiming, cts.StageVerify}
	if len(stageOrder) != 2*levels+len(wantTail) {
		t.Fatalf("stage starts = %v, want %d per-level pairs + %v", stageOrder, levels, wantTail)
	}
	for i := 0; i < levels; i++ {
		if stageOrder[2*i] != cts.StageTopology || stageOrder[2*i+1] != cts.StageMergeRoute {
			t.Errorf("level %d stages = %v, want topology then mergeroute", i+1, stageOrder[2*i:2*i+2])
		}
	}
	for i, stage := range wantTail {
		if got := stageOrder[2*levels+i]; got != stage {
			t.Errorf("tail stage %d = %q, want %q", i, got, stage)
		}
	}
	if res.Verification == nil {
		t.Error("verification stage ran but Result.Verification is nil")
	}
}

// adjacentTopology is a deliberately naive TopologyBuilder: it pairs items
// in index order and seeds the last item when the count is odd.  It exists
// to prove the pipeline accepts swapped stages.
type adjacentTopology struct {
	calls int
}

func (a *adjacentTopology) Pair(ctx context.Context, items []cts.Item) ([]cts.Pairing, int, error) {
	a.calls++
	n := len(items)
	seed := -1
	if n%2 == 1 {
		seed = n - 1
		n--
	}
	var pairs []cts.Pairing
	for i := 0; i < n; i += 2 {
		pairs = append(pairs, cts.Pairing{A: i, B: i + 1})
	}
	return pairs, seed, nil
}

func TestCustomTopologyBuilderComposes(t *testing.T) {
	tt := tech.Default()
	builder := &adjacentTopology{}
	flow, err := cts.New(tt, cts.WithTopologyBuilder(builder))
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Run(context.Background(), randomSinks(21, 10, 6000))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatalf("invalid tree from custom topology: %v", err)
	}
	if res.Stats.Sinks != 10 {
		t.Errorf("sinks = %d, want 10", res.Stats.Sinks)
	}
	if builder.calls != res.Levels {
		t.Errorf("custom builder called %d times for %d levels", builder.calls, res.Levels)
	}
	if res.Timing.WorstSlew > flow.Settings().SlewLimit {
		t.Errorf("worst slew %v exceeds the limit even with a naive topology", res.Timing.WorstSlew)
	}
}

// brokenTopology returns a hand-crafted pairing to exercise the pipeline's
// coverage validation.
type brokenTopology struct {
	pairs []cts.Pairing
	seed  int
}

func (b *brokenTopology) Pair(ctx context.Context, items []cts.Item) ([]cts.Pairing, int, error) {
	return b.pairs, b.seed, nil
}

func TestFlowRejectsBadPairings(t *testing.T) {
	tt := tech.Default()
	sinks := randomSinks(31, 4, 4000)
	cases := map[string]*brokenTopology{
		"drops a sub-tree":   {pairs: []cts.Pairing{{A: 0, B: 1}}, seed: -1},
		"reuses a sub-tree":  {pairs: []cts.Pairing{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}}, seed: -1},
		"self pairing":       {pairs: []cts.Pairing{{A: 0, B: 0}, {A: 1, B: 2}}, seed: 3},
		"seed out of range":  {pairs: []cts.Pairing{{A: 0, B: 1}}, seed: 9},
		"index out of range": {pairs: []cts.Pairing{{A: 0, B: 7}, {A: 1, B: 2}}, seed: 3},
		"seed also paired":   {pairs: []cts.Pairing{{A: 0, B: 1}, {A: 2, B: 3}}, seed: 3},
	}
	for name, builder := range cases {
		flow, err := cts.New(tt, cts.WithTopologyBuilder(builder))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := flow.Run(context.Background(), sinks); err == nil {
			t.Errorf("%s: run succeeded, want a validation error", name)
		}
	}
}
