package cts_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// loadScaled returns the r1-r3 GSRC benchmarks truncated for test speed.
func loadScaled(t *testing.T, maxSinks int) []cts.BatchItem {
	t.Helper()
	var items []cts.BatchItem
	for _, name := range []string{"r1", "r2", "r3"} {
		bm, err := bench.SyntheticScaled(name, maxSinks)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, cts.BatchItem{Name: bm.Name, Sinks: bm.Sinks})
	}
	return items
}

func TestRunBatchMatchesSequentialRuns(t *testing.T) {
	tt := tech.Default()
	items := loadScaled(t, 24)
	var mu sync.Mutex
	byItem := map[string][]cts.Event{}
	flow, err := cts.New(tt, cts.WithObserver(func(e cts.Event) {
		mu.Lock()
		byItem[e.Item] = append(byItem[e.Item], e)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	sequential := make([]*cts.Result, len(items))
	for i, item := range items {
		res, err := flow.Run(ctx, item.Sinks)
		if err != nil {
			t.Fatalf("%s: %v", item.Name, err)
		}
		sequential[i] = res
	}

	batch := flow.RunBatch(ctx, items, 3)
	if len(batch) != len(items) {
		t.Fatalf("batch returned %d results for %d items", len(batch), len(items))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Name, br.Err)
		}
		if br.Name != items[i].Name {
			t.Errorf("result %d is %q, want input order %q", i, br.Name, items[i].Name)
		}
		seq, got := sequential[i], br.Result
		if got.Timing.Skew != seq.Timing.Skew || got.Timing.WorstSlew != seq.Timing.WorstSlew {
			t.Errorf("%s: concurrent timing (skew %v, slew %v) != sequential (skew %v, slew %v)",
				br.Name, got.Timing.Skew, got.Timing.WorstSlew, seq.Timing.Skew, seq.Timing.WorstSlew)
		}
		if got.Stats.Buffers != seq.Stats.Buffers || got.Stats.TotalWire != seq.Stats.TotalWire {
			t.Errorf("%s: concurrent stats %+v != sequential %+v", br.Name, got.Stats, seq.Stats)
		}
		if got.Levels != seq.Levels || got.Flippings != seq.Flippings {
			t.Errorf("%s: levels/flippings %d/%d != sequential %d/%d",
				br.Name, got.Levels, got.Flippings, seq.Levels, seq.Flippings)
		}
	}

	// Interleaved batch events still form a well-ordered stream per item.
	for _, item := range items {
		events := byItem[item.Name]
		if len(events) == 0 {
			t.Errorf("%s: no batch events captured", item.Name)
			continue
		}
		if events[0].Kind != cts.EventFlowStart || events[len(events)-1].Kind != cts.EventFlowEnd {
			t.Errorf("%s: per-item event stream not bracketed by flow start/end", item.Name)
		}
	}
}

// TestRunBatchMatchesLegacySynthesize pins RunBatch on one shared flow to
// the one-flow-per-design runs that the legacy one-shot call made.
func TestRunBatchMatchesLegacySynthesize(t *testing.T) {
	tt := tech.Default()
	items := loadScaled(t, 24)
	flow, err := cts.New(tt)
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range flow.RunBatch(context.Background(), items, 0) {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Name, br.Err)
		}
		single, err := cts.New(tt)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := single.Run(context.Background(), items[i].Sinks)
		if err != nil {
			t.Fatalf("%s single run: %v", br.Name, err)
		}
		if br.Result.Timing.Skew != legacy.Timing.Skew ||
			br.Result.Timing.WorstSlew != legacy.Timing.WorstSlew ||
			br.Result.Stats.Buffers != legacy.Stats.Buffers ||
			br.Result.Stats.TotalWire != legacy.Stats.TotalWire {
			t.Errorf("%s: batch output differs from a single-flow run:\n  batch:  skew %v slew %v buffers %d wire %v\n  single: skew %v slew %v buffers %d wire %v",
				br.Name,
				br.Result.Timing.Skew, br.Result.Timing.WorstSlew, br.Result.Stats.Buffers, br.Result.Stats.TotalWire,
				legacy.Timing.Skew, legacy.Timing.WorstSlew, legacy.Stats.Buffers, legacy.Stats.TotalWire)
		}
	}
}

func TestRunBatchIsolatesPerItemErrors(t *testing.T) {
	tt := tech.Default()
	flow, err := cts.New(tt)
	if err != nil {
		t.Fatal(err)
	}
	items := []cts.BatchItem{
		{Name: "good", Sinks: randomSinks(1, 8, 4000)},
		{Name: "bad", Sinks: nil}, // empty sink set must fail alone
		{Name: "alsogood", Sinks: randomSinks(2, 8, 4000)},
	}
	results := flow.RunBatch(context.Background(), items, 2)
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy items failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("empty item did not report an error")
	}
	if results[0].Result == nil || results[2].Result == nil {
		t.Error("healthy items returned no result")
	}
}

func TestRunBatchHonorsCancellation(t *testing.T) {
	tt := tech.Default()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	flow, err := cts.New(tt)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range flow.RunBatch(ctx, loadScaled(t, 16), 2) {
		if !errors.Is(br.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", br.Name, br.Err)
		}
	}
}
