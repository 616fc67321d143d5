package mergeroute

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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
	if merged.Children[0] != a || merged.Children[1] != b {
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

func TestMergeErrors(t *testing.T) {
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
}

// TestMergeAttachesOnlyInputRoots pins what Merge changes in its inputs: the
// parent link and wire length of the two input roots, and nothing else
// reachable from them, neither a node's fields or children nor a skeleton
// Subtree.  The correction router undoes a trial merge by restoring just
// those attachments.
func TestMergeAttachesOnlyInputRoots(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	sink := func(name string, x, y float64) *Subtree {
		return SinkSubtree(name, geom.Pt(x, y), tt.SinkCapDefault)
	}
	// mergeAll merges a power-of-two list of sub-trees pairwise, level by
	// level, into one composite.
	mergeAll := func(t *testing.T, m *Merger, subs ...*Subtree) *Subtree {
		for len(subs) > 1 {
			next := subs[:0:0]
			for i := 0; i < len(subs); i += 2 {
				merged, err := m.Merge(context.Background(), subs[i], subs[i+1])
				if err != nil {
					t.Fatal(err)
				}
				next = append(next, merged)
			}
			subs = next
		}
		return subs[0]
	}
	cases := []struct {
		name  string
		snake bool
		build func(t *testing.T, m *Merger) (a, b *Subtree)
	}{
		{"two sinks", false, func(t *testing.T, m *Merger) (*Subtree, *Subtree) {
			return sink("a", 0, 0), sink("b", 3000, 1200)
		}},
		{"sub-cell separation", false, func(t *testing.T, m *Merger) (*Subtree, *Subtree) {
			return sink("a", 500, 500), sink("b", 500.25, 500)
		}},
		{"composites", false, func(t *testing.T, m *Merger) (*Subtree, *Subtree) {
			return mergeAll(t, m, sink("a1", 0, 0), sink("a2", 800, 300)),
				mergeAll(t, m, sink("b1", 11500, 11200), sink("b2", 12000, 12000))
		}},
		// The deep composite's delay dwarfs what a 30 um path absorbs, so
		// balance snakes the sink before routing.
		{"deep composite beside a sink", true, func(t *testing.T, m *Merger) (*Subtree, *Subtree) {
			deep := mergeAll(t, m,
				sink("d0", 0, 0), sink("d1", 1500, 200), sink("d2", 300, 1800), sink("d3", 2000, 2100),
				sink("d4", 3500, 400), sink("d5", 4200, 1500), sink("d6", 3100, 3600), sink("d7", 4400, 4000))
			return deep, sink("near", deep.Pos().X+30, deep.Pos().Y)
		}},
	}
	for _, tc := range cases {
		for _, hier := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hierarchical=%v", tc.name, hier), func(t *testing.T) {
				m, err := New(tt, Config{Lib: lib, Hierarchical: hier})
				if err != nil {
					t.Fatal(err)
				}
				a, b := tc.build(t, m)
				nodes := map[*clocktree.Node]clocktree.Node{}
				subtrees := map[*Subtree]Subtree{}
				var walk func(s *Subtree)
				walk = func(s *Subtree) {
					if s == nil {
						return
					}
					subtrees[s] = *s
					walk(s.Children[0])
					walk(s.Children[1])
				}
				for _, s := range []*Subtree{a, b} {
					walk(s)
					clocktree.Walk(s.Root, func(n *clocktree.Node) {
						snap := *n
						snap.Children = slices.Clone(n.Children)
						nodes[n] = snap
					})
				}

				merged, err := m.Merge(context.Background(), a, b)
				if err != nil {
					t.Fatal(err)
				}
				for s, want := range subtrees {
					if *s != want {
						t.Errorf("skeleton sub-tree changed: %+v, want %+v", *s, want)
					}
				}
				for n, want := range nodes {
					got := *n
					if n == a.Root || n == b.Root {
						want.Parent, want.WireLen = got.Parent, got.WireLen
					}
					if got.Name != want.Name || got.Kind != want.Kind || got.Pos != want.Pos ||
						got.SinkCap != want.SinkCap || got.Buffer != want.Buffer || got.Parent != want.Parent ||
						got.WireLen != want.WireLen || !slices.Equal(got.Children, want.Children) {
						t.Errorf("node %q at %v changed: %+v, want %+v", n.Name, n.Pos, got, want)
					}
				}
				snakes := 0
				clocktree.Walk(merged.Root, func(n *clocktree.Node) {
					if n.Name == "snake" {
						snakes++
					}
				})
				if tc.snake && snakes == 0 {
					t.Error("no snake node: the case does not exercise balance")
				}
			})
		}
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
	if s.Skew() != 0 {
		t.Error("fresh sink sub-tree must have zero skew")
	}
}
