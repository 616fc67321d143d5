package mergeroute

import (
	"context"
	"testing"

	"repro/internal/charlib"
	"repro/internal/geom"
	"repro/internal/tech"
)

// mergeAllocCeiling is the pinned allocation budget of one steady-state
// Merge call on a ~2 mm pair at the default grid, about 3x the measured 15
// objects.  The pooled scratch arena keeps the maze itself allocation-free
// and the binary search times its branches in closed form, so what remains
// is the merged tree escaping to the caller: path nodes, inserted buffers,
// snaking segments and the two input sinks.  A netlist per branch timing
// (97 objects per call) or an allocation per relaxed cell exceeds it.
const mergeAllocCeiling = 45

// TestMergeAllocationsStayPooled is the regression guard of the zero-alloc
// inner-loop work: allocations per Merge with the pooled arena must stay
// under mergeAllocCeiling.  A per-relaxation allocation would add thousands
// per call (the default grid relaxes ~2,100 cells twice) and trip this
// immediately.
func TestMergeAllocationsStayPooled(t *testing.T) {
	tt := tech.Default()
	m, err := New(tt, Config{Lib: charlib.NewAnalytic(tt)})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the memo cache and the scratch pool so the measurement sees the
	// steady state, not first-call growth.
	warmA := SinkSubtree("a", geom.Pt(0, 0), tt.SinkCapDefault)
	warmB := SinkSubtree("b", geom.Pt(1000, 1000), tt.SinkCapDefault)
	if _, err := m.Merge(context.Background(), warmA, warmB); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(20, func() {
		a := SinkSubtree("a", geom.Pt(0, 0), tt.SinkCapDefault)
		b := SinkSubtree("b", geom.Pt(1000, 1000), tt.SinkCapDefault)
		if _, err := m.Merge(context.Background(), a, b); err != nil {
			t.Error(err)
		}
	})
	if allocs > mergeAllocCeiling {
		t.Errorf("Merge allocates %.0f objects per call, over the pinned ceiling %d — "+
			"did a per-cell allocation return to the maze loop?", allocs, mergeAllocCeiling)
	}
	t.Logf("Merge allocations per call: %.0f (ceiling %d)", allocs, mergeAllocCeiling)
}
