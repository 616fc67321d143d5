package cts_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// flowAllocCeiling is the pinned allocation budget of one Flow.Run of
// SyntheticSized(256) at parallelism 1 with the analytic library, about 1.5x
// the measured 2,691 objects: the tree the merge stage returns, timing and
// the result.  A netlist per branch timing (63,746 objects per run) or an
// allocation per relaxed maze cell overruns it many times.
const flowAllocCeiling = 4000

// TestFlowRunAllocations is the flow-level guard of the merge stage's
// allocation work; internal/mergeroute's TestMergeAllocationsStayPooled
// pins one Merge call.
func TestFlowRunAllocations(t *testing.T) {
	tt := tech.Default()
	bm, err := bench.SyntheticSized(256)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := cts.New(tt, cts.WithLibrary(charlib.NewAnalytic(tt)), cts.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := flow.Run(context.Background(), bm.Sinks); err != nil {
			t.Error(err)
		}
	})
	if allocs > flowAllocCeiling {
		t.Errorf("Flow.Run allocates %.0f objects per run, over the pinned ceiling %d — "+
			"did a per-merge netlist or a per-relaxation allocation return?", allocs, flowAllocCeiling)
	}
	t.Logf("Flow.Run allocations per run: %.0f (ceiling %d)", allocs, flowAllocCeiling)
}
