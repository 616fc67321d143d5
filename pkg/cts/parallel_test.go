package cts_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/clocktree"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// deck flattens a synthesized tree into its SPICE-style netlist text — a
// canonical, fully ordered rendering of every node, buffer and wire segment —
// so two runs can be compared for bit-identical structure.
func deck(t *testing.T, res *cts.Result, name string) string {
	t.Helper()
	net, _, err := clocktree.BuildNetlist(res.Tree, 100)
	if err != nil {
		t.Fatal(err)
	}
	return net.SpiceDeck(name)
}

// TestParallelMatchesSequential is the tentpole's equality guarantee: the
// fan-out level scheduler must produce a tree identical to the sequential
// path — same netlist, timing, wirelength and flip count — on the scaled
// r1-r3 benchmarks.  Run with -race to exercise the concurrent merge path.
func TestParallelMatchesSequential(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	for _, tc := range []struct {
		name       string
		maxSinks   int
		correction cts.Correction
	}{
		{"r1", 48, cts.CorrectionNone},
		{"r2", 48, cts.CorrectionNone},
		{"r3", 48, cts.CorrectionNone},
		// Correction exercises the trial-merge path, whose flip counts must
		// aggregate identically under the fan-out.
		{"r1", 32, cts.CorrectionFull},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s_%d_%s", tc.name, tc.maxSinks, tc.correction.String()), func(t *testing.T) {
			bm, err := bench.SyntheticScaled(tc.name, tc.maxSinks)
			if err != nil {
				t.Fatal(err)
			}
			run := func(parallelism int) *cts.Result {
				flow, err := cts.New(tt,
					cts.WithLibrary(lib),
					cts.WithCorrection(tc.correction),
					cts.WithParallelism(parallelism),
				)
				if err != nil {
					t.Fatal(err)
				}
				res, err := flow.Run(context.Background(), bm.Sinks)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq := run(1)
			par := run(8)

			if got, want := deck(t, par, tc.name), deck(t, seq, tc.name); got != want {
				t.Errorf("netlists differ between parallel and sequential runs (%d vs %d lines)",
					strings.Count(got, "\n"), strings.Count(want, "\n"))
			}
			if par.Flippings != seq.Flippings {
				t.Errorf("flippings = %d, want %d", par.Flippings, seq.Flippings)
			}
			if par.Levels != seq.Levels {
				t.Errorf("levels = %d, want %d", par.Levels, seq.Levels)
			}
			if !reflect.DeepEqual(par.Stats, seq.Stats) {
				t.Errorf("stats differ:\nparallel:   %+v\nsequential: %+v", par.Stats, seq.Stats)
			}
			if par.Timing.Skew != seq.Timing.Skew ||
				par.Timing.WorstSlew != seq.Timing.WorstSlew ||
				par.Timing.MaxLatency != seq.Timing.MaxLatency ||
				par.Timing.MinLatency != seq.Timing.MinLatency {
				t.Errorf("timing differs: parallel %+v, sequential %+v", par.Timing, seq.Timing)
			}
			if par.Stats.TotalWire != seq.Stats.TotalWire {
				t.Errorf("wirelength = %v, want %v", par.Stats.TotalWire, seq.Stats.TotalWire)
			}
		})
	}
}

func TestWithParallelismDefaults(t *testing.T) {
	tt := tech.Default()
	flow, err := cts.New(tt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flow.Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default parallelism = %d, want GOMAXPROCS = %d", got, want)
	}
	flow, err = cts.New(tt, cts.WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := flow.Parallelism(); got != 3 {
		t.Errorf("parallelism = %d, want 3", got)
	}
}

// TestParallelObserverOrdering checks that the fan-out does not scramble the
// event stream: stage starts/ends still pair up and no stage stays open
// across a level boundary.
func TestParallelObserverOrdering(t *testing.T) {
	tt := tech.Default()
	var mu sync.Mutex
	var events []cts.Event
	flow, err := cts.New(tt,
		cts.WithParallelism(8),
		cts.WithObserver(func(e cts.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flow.Run(context.Background(), randomSinks(17, 24, 9000)); err != nil {
		t.Fatal(err)
	}
	var open []string
	for _, e := range events {
		switch e.Kind {
		case cts.EventStageStart:
			open = append(open, e.Stage)
		case cts.EventStageEnd:
			if len(open) == 0 || open[len(open)-1] != e.Stage {
				t.Fatalf("stage end %q without matching start (open: %v)", e.Stage, open)
			}
			open = open[:len(open)-1]
		case cts.EventLevelDone:
			if len(open) != 0 {
				t.Fatalf("level %d finished with open stages %v", e.Level, open)
			}
		}
	}
	if len(open) != 0 {
		t.Errorf("unclosed stages at flow end: %v", open)
	}
}

func TestParallelCancellation(t *testing.T) {
	tt := tech.Default()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flow, err := cts.New(tt, cts.WithParallelism(8), cts.WithObserver(func(e cts.Event) {
		if e.Kind == cts.EventLevelDone && e.Level == 1 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Run(ctx, randomSinks(23, 32, 9000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
}

func TestDuplicateSinkNameReporting(t *testing.T) {
	flow, err := cts.New(tech.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// An explicit name colliding with the default generated for an unnamed
	// sink must be reported as a generated-name collision, not as a plain
	// duplicate, and regardless of which sink comes first.
	for _, sinks := range [][]cts.Sink{
		{{Name: "sink_1"}, {}},
		{{}, {Name: "sink_0"}},
	} {
		sinks = append(sinks, randomSinks(3, 2, 500)...)
		_, err := flow.Run(ctx, sinks)
		if err == nil {
			t.Fatalf("sinks %+v: run succeeded, want a collision error", sinks)
		}
		if !strings.Contains(err.Error(), "generated default name") {
			t.Errorf("collision error %q does not name the generated default", err)
		}
	}

	// Explicit duplicates report both indices.
	dup := []cts.Sink{{Name: "x"}, {}, {Name: "x"}}
	if _, err := flow.Run(ctx, dup); err == nil || !strings.Contains(err.Error(), "sinks 0 and 2") {
		t.Errorf("explicit duplicate error = %v, want both indices reported", err)
	}
}

func TestMetricsObserver(t *testing.T) {
	tt := tech.Default()
	m := cts.NewMetricsObserver()
	flow, err := cts.New(tt, cts.WithObserver(m.Observe))
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Run(context.Background(), randomSinks(9, 20, 8000))
	if err != nil {
		t.Fatal(err)
	}

	s := m.Snapshot()
	if s.FlowsStarted != 1 || s.FlowsDone != 1 || s.FlowsFailed != 0 {
		t.Errorf("flow counters = %d/%d/%d, want 1/1/0", s.FlowsStarted, s.FlowsDone, s.FlowsFailed)
	}
	if s.Levels != res.Levels {
		t.Errorf("levels = %d, want %d", s.Levels, res.Levels)
	}
	if s.Pairs == 0 {
		t.Error("no pairs recorded")
	}
	for _, stage := range []string{cts.StageTopology, cts.StageMergeRoute} {
		sm, ok := s.Stages[stage]
		if !ok || sm.Count != res.Levels {
			t.Errorf("stage %s count = %d, want one per level (%d)", stage, sm.Count, res.Levels)
		}
		if sm.Total <= 0 || sm.Quantile(0.50) > sm.Quantile(0.99) {
			t.Errorf("stage %s aggregates inconsistent: %+v", stage, sm)
		}
		histTotal := 0
		for _, n := range sm.Buckets {
			histTotal += n
		}
		if histTotal != sm.Count {
			t.Errorf("stage %s histogram sums to %d, want %d", stage, histTotal, sm.Count)
		}
	}
	for _, stage := range []string{cts.StageBuffering, cts.StageTiming} {
		if sm := s.Stages[stage]; sm.Count != 1 {
			t.Errorf("stage %s count = %d, want 1", stage, sm.Count)
		}
	}
	if _, ok := s.Stages[cts.StageVerify]; ok {
		t.Error("verify stage recorded although verification was disabled")
	}

	// A failed run shows up in the failure counter.
	if _, err := flow.Run(context.Background(), nil); err == nil {
		t.Fatal("empty run succeeded")
	}
	if s := m.Snapshot(); s.FlowsFailed != 1 {
		t.Errorf("failures = %d, want 1", s.FlowsFailed)
	}

	// The snapshot is a copy: mutating it must not corrupt the observer.
	snap := m.Snapshot()
	snap.Stages[cts.StageTopology] = cts.StageMetrics{}
	if m.Snapshot().Stages[cts.StageTopology].Count == 0 {
		t.Error("snapshot mutation leaked into the observer")
	}

	if len(cts.HistogramBounds()) == 0 {
		t.Error("histogram bounds must be exposed")
	}
}
