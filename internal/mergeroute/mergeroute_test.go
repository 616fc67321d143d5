package mergeroute

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/charlib"
	"repro/internal/clocktree"
	"repro/internal/geom"
	"repro/internal/tech"
)

func newMerger(t *testing.T) (*Merger, *tech.Technology) {
	t.Helper()
	tt := tech.Default()
	m, err := New(tt, Config{Lib: charlib.NewAnalytic(tt), SlewTarget: 80})
	if err != nil {
		t.Fatal(err)
	}
	return m, tt
}

func TestMergeTwoSinksBalances(t *testing.T) {
	m, tt := newMerger(t)
	a := SinkSubtree("a", geom.Pt(0, 0), tt.SinkCapDefault)
	b := SinkSubtree("b", geom.Pt(3000, 0), tt.SinkCapDefault)
	merged, err := m.Merge(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Root.Buffer == nil {
		t.Error("merge node must carry a buffer")
	}
	if merged.Skew() > 5 {
		t.Errorf("merged skew = %v ps for two equal sinks, want small", merged.Skew())
	}
	// Both sinks must be reachable below the merge node.
	if got := len(clocktree.Sinks(merged.Root)); got != 2 {
		t.Errorf("sinks below merge = %d, want 2", got)
	}
	// A 3 mm separation cannot be driven by a single buffer under an 80 ps
	// target in this technology, so buffers must appear along the paths.
	buffers := 0
	clocktree.Walk(merged.Root, func(n *clocktree.Node) {
		if n.Buffer != nil {
			buffers++
		}
	})
	if buffers < 2 {
		t.Errorf("expected aggressive buffer insertion along a 3 mm span, got %d buffers", buffers)
	}
	if merged.Level != 1 || merged.Children[0] != a || merged.Children[1] != b {
		t.Error("merged sub-tree bookkeeping wrong")
	}
}

func TestMergeRespectsSlewEverywhere(t *testing.T) {
	m, tt := newMerger(t)
	lib := m.cfg.Lib
	a := SinkSubtree("a", geom.Pt(0, 0), tt.SinkCapDefault)
	b := SinkSubtree("b", geom.Pt(4000, 2500), tt.SinkCapDefault)
	merged, err := m.Merge(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Wrap in a tree so the timing engine can check slews at every stage load.
	tree := clocktree.New(tt, merged.Pos())
	tree.Root.AddChild(merged.Root, 0)
	tm, err := clocktree.Analyze(tree, lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm.WorstSlew > 100 {
		t.Errorf("worst slew %v ps exceeds the 100 ps limit", tm.WorstSlew)
	}
}

func TestBalanceStageSnakesUnequalSubtrees(t *testing.T) {
	m, tt := newMerger(t)
	a := SinkSubtree("a", geom.Pt(0, 0), tt.SinkCapDefault)
	b := SinkSubtree("b", geom.Pt(300, 0), tt.SinkCapDefault)
	// Make b artificially slow, as if it already carried a deep sub-tree.
	b.MinDelay, b.MaxDelay = 400, 400
	merged, err := m.Merge(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	// The two sides must end up balanced within a few ps despite the 400 ps
	// head start of side b; that requires wire snaking on side a.
	if merged.Skew() > 420 {
		t.Errorf("skew = %v; merge did not balance at all", merged.Skew())
	}
	if merged.MaxDelay < 400 {
		t.Errorf("merged max delay %v cannot be smaller than the slower input", merged.MaxDelay)
	}
	snakes := 0
	clocktree.Walk(merged.Root, func(n *clocktree.Node) {
		if n.Name == "snake" {
			snakes++
		}
	})
	if snakes == 0 {
		t.Error("expected wire-snaking nodes for a 400 ps imbalance over a 300 um span")
	}
	if merged.Skew() > 60 {
		t.Errorf("merged skew = %v ps; balance + binary search should do better", merged.Skew())
	}
}

func TestMergeCoLocatedRoots(t *testing.T) {
	m, tt := newMerger(t)
	a := SinkSubtree("a", geom.Pt(500, 500), tt.SinkCapDefault)
	b := SinkSubtree("b", geom.Pt(500, 500), tt.SinkCapDefault)
	merged, err := m.Merge(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Skew() > 1 {
		t.Errorf("co-located sinks should merge with ~0 skew, got %v", merged.Skew())
	}
}

func TestMergeErrorsAndDetach(t *testing.T) {
	m, tt := newMerger(t)
	if _, err := m.Merge(context.Background(), nil, SinkSubtree("x", geom.Pt(0, 0), 10)); err == nil {
		t.Error("expected error for nil sub-tree")
	}
	if _, err := New(tt, Config{}); err == nil {
		t.Error("expected error for missing library")
	}
	a := SinkSubtree("a", geom.Pt(0, 0), tt.SinkCapDefault)
	b := SinkSubtree("b", geom.Pt(900, 0), tt.SinkCapDefault)
	if _, err := m.Merge(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}
	if a.Root.Parent == nil || b.Root.Parent == nil {
		t.Fatal("merge should attach the sub-tree roots")
	}
	Detach(a, b)
	if a.Root.Parent != nil || b.Root.Parent != nil {
		t.Error("Detach should clear the parent links")
	}
}

func TestEstimatePathDelayMonotone(t *testing.T) {
	m, tt := newMerger(t)
	short := m.estimatePathDelay(500, tt.SinkCapDefault)
	long := m.estimatePathDelay(5000, tt.SinkCapDefault)
	if short <= 0 || long <= short {
		t.Errorf("path delay estimates not monotone: %v, %v", short, long)
	}
	if m.estimatePathDelay(0, tt.SinkCapDefault) != 0 {
		t.Error("zero distance should cost zero delay")
	}
}

func TestMaxDrivableLenCachedAndOrdered(t *testing.T) {
	m, tt := newMerger(t)
	small := m.maxDrivableLen(tt.SinkCapDefault)
	again := m.maxDrivableLen(tt.SinkCapDefault)
	if small != again {
		t.Error("memoized value changed between calls")
	}
	if small <= 0 {
		t.Error("max drivable length must be positive")
	}
	huge := m.maxDrivableLen(2000)
	if huge > small {
		t.Errorf("a 2 pF load should not be drivable farther than a 20 fF load (%v vs %v)", huge, small)
	}
}

func TestGridSizing(t *testing.T) {
	m, _ := newMerger(t)
	small := m.buildGrid(geom.Pt(0, 0), geom.Pt(500, 500))
	large := m.buildGrid(geom.Pt(0, 0), geom.Pt(20000, 20000))
	if small.nx < 2 || small.ny < 2 {
		t.Error("grid must have at least 2 cells per dimension")
	}
	// The dynamic adjustment must keep grid steps well below the maximum
	// drivable length even for a 20 mm pair.
	maxLen := m.maxDrivableLen(m.tech.LargestBuffer().InputCap)
	if large.cellSize > maxLen {
		t.Errorf("grid step %v exceeds the maximum drivable length %v", large.cellSize, maxLen)
	}
	if large.nx*large.ny <= small.nx*small.ny {
		t.Error("a much larger region should use more grid cells")
	}
	if math.IsNaN(large.cellSize) || large.cellSize <= 0 {
		t.Error("bad cell size")
	}
}

func TestMergeCancellation(t *testing.T) {
	m, tt := newMerger(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := SinkSubtree("a", geom.Pt(0, 0), tt.SinkCapDefault)
	b := SinkSubtree("b", geom.Pt(6000, 4000), tt.SinkCapDefault)
	if _, err := m.Merge(ctx, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A cancelled merge must leave the inputs unattached and re-mergeable.
	if a.Root.Parent != nil || b.Root.Parent != nil {
		t.Error("cancelled merge attached the sub-tree roots")
	}
	if _, err := m.Merge(context.Background(), a, b); err != nil {
		t.Fatalf("re-merge after cancellation: %v", err)
	}
}

// TestConcurrentMergesMatchSequential drives one shared Merger from many
// goroutines over disjoint pairs (the intra-level fan-out of pkg/cts) and
// checks the results are bit-identical to a fresh sequential Merger's.  Run
// with -race to exercise the shared memo cache.
func TestConcurrentMergesMatchSequential(t *testing.T) {
	tt := tech.Default()
	mkPairs := func() [][2]*Subtree {
		var pairs [][2]*Subtree
		for i := 0; i < 24; i++ {
			fi := float64(i)
			a := SinkSubtree("a", geom.Pt(fi*137, fi*71), tt.SinkCapDefault+float64(i%5))
			b := SinkSubtree("b", geom.Pt(fi*137+900+50*fi, fi*53+400), tt.SinkCapDefault+float64(i%3))
			pairs = append(pairs, [2]*Subtree{a, b})
		}
		return pairs
	}

	seq, _ := newMerger(t)
	want := make([]*Subtree, 24)
	for i, p := range mkPairs() {
		merged, err := seq.Merge(context.Background(), p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = merged
	}

	par, _ := newMerger(t)
	pairs := mkPairs()
	got := make([]*Subtree, len(pairs))
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	for i := range pairs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = par.Merge(context.Background(), pairs[i][0], pairs[i][1])
		}(i)
	}
	wg.Wait()
	for i := range pairs {
		if errs[i] != nil {
			t.Fatalf("pair %d: %v", i, errs[i])
		}
		if got[i].MinDelay != want[i].MinDelay || got[i].MaxDelay != want[i].MaxDelay ||
			got[i].LoadCap != want[i].LoadCap || got[i].Root.Pos != want[i].Root.Pos {
			t.Errorf("pair %d: concurrent merge differs from sequential: %+v vs %+v",
				i, got[i], want[i])
		}
	}
}

func TestSinkSubtreeFields(t *testing.T) {
	s := SinkSubtree("ff1", geom.Pt(10, 20), 17)
	if s.Root.Kind != clocktree.KindSink || s.Root.SinkCap != 17 || s.LoadCap != 17 {
		t.Errorf("sink sub-tree wrong: %+v", s)
	}
	if s.Skew() != 0 || s.Level != 0 {
		t.Error("fresh sink sub-tree must have zero skew and level")
	}
}
