package cts_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/geom"
	"repro/internal/mergeroute"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// stubMerger is a do-nothing MergeRouter; only its type matters (the
// WithSubtreeCache incompatibility check fires at construction).
type stubMerger struct{}

func (stubMerger) Merge(ctx context.Context, a, b *mergeroute.Subtree) (*mergeroute.Subtree, int, error) {
	return a, 0, nil
}

// incrementalGoldenDecks pins the delta path's output bit for bit: sha256 of
// the deck synthesized by RunIncremental for the scaled r1-r3 benchmarks
// with 1% of sinks moved (bench.Perturb seed 1) against a base run of the
// unperturbed deck.  The hashes were recorded from a from-scratch Run of the
// perturbed sink sets — the two paths must agree exactly, so a change here
// is a determinism-contract break, not a test update.
var incrementalGoldenDecks = map[string]string{
	"r1": "02c847ad6e7e8288c78b00a93fd51171c30cadc3fe8572bf52610d77a33fa822",
	"r2": "341ed75b5404dd880b2d4bab51603ecc6736953eba34fead49df8d38640adee3",
	"r3": "c8f74999c4e5f962140491c43743a9873e41e22bf8c64b024943c3ba9da79ec9",
}

// TestIncrementalBitIdenticalGolden is the tentpole's hard contract: on the
// scaled r1-r3 decks with 1% of sinks perturbed, RunIncremental against a
// cached base run must produce a result bit-identical to a from-scratch Run
// of the perturbed sinks — same deck bytes (pinned above), same flip count,
// same timing — while actually reusing cached sub-trees.
func TestIncrementalBitIdenticalGolden(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	for _, name := range []string{"r1", "r2", "r3"} {
		t.Run(name, func(t *testing.T) {
			bm, err := bench.SyntheticScaled(name, 150)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := cts.New(tt, cts.WithLibrary(lib),
				cts.WithSubtreeCache(cts.NewMemorySubtreeCache(0)))
			if err != nil {
				t.Fatal(err)
			}
			base, err := cached.Run(context.Background(), bm.Sinks)
			if err != nil {
				t.Fatal(err)
			}
			// Plain Run through a cache-bearing flow must not move the
			// pre-existing flat goldens: write-through is invisible.
			if got := deckHash(t, base, name); got != flatGoldenDecks[name] {
				t.Fatalf("base deck hash %s, want pinned flat golden %s", got, flatGoldenDecks[name])
			}

			pert, err := bench.Perturb(bm, "move", 0.01, 1)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := cts.New(tt, cts.WithLibrary(lib))
			if err != nil {
				t.Fatal(err)
			}
			want, err := scratch.Run(context.Background(), pert.Sinks)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := cached.RunIncremental(context.Background(), base, pert.Sinks)
			if err != nil {
				t.Fatal(err)
			}

			wantHash, incHash := deckHash(t, want, name), deckHash(t, inc, name)
			if incHash != wantHash {
				t.Errorf("delta deck hash %s differs from from-scratch %s", incHash, wantHash)
			}
			if incHash != incrementalGoldenDecks[name] {
				t.Errorf("delta deck hash %s, want pinned %s", incHash, incrementalGoldenDecks[name])
			}
			if inc.Flippings != want.Flippings {
				t.Errorf("delta flip count %d, from-scratch %d", inc.Flippings, want.Flippings)
			}
			if inc.Timing.Skew != want.Timing.Skew || inc.Timing.WorstSlew != want.Timing.WorstSlew {
				t.Errorf("delta timing (%v, %v) differs from from-scratch (%v, %v)",
					inc.Timing.Skew, inc.Timing.WorstSlew, want.Timing.Skew, want.Timing.WorstSlew)
			}
			st := inc.Incremental
			if st == nil {
				t.Fatal("RunIncremental result carries no IncrementalStats")
			}
			merges := len(bm.Sinks) - 1
			if st.ReusedSubtrees == 0 || st.RecomputedMerges >= merges {
				t.Errorf("reuse stats %+v: want >0 reused and <%d recomputed", st, merges)
			}
			if st.Diff == nil || *st.Diff != (cts.SinkDiff{Moved: 1}) {
				t.Errorf("diff = %+v, want exactly one moved sink", st.Diff)
			}
		})
	}
}

// TestIncrementalHarvestColdCache runs the base through one flow and the
// delta through another whose cache starts empty: RunIncremental must
// harvest the base result's sub-trees into the cold cache and still reuse
// them.
func TestIncrementalHarvestColdCache(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	bm, err := bench.SyntheticScaled("r1", 96)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cts.New(tt, cts.WithLibrary(lib),
		cts.WithSubtreeCache(cts.NewMemorySubtreeCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	base, err := warm.Run(context.Background(), bm.Sinks)
	if err != nil {
		t.Fatal(err)
	}

	cold := cts.NewMemorySubtreeCache(0)
	flow, err := cts.New(tt, cts.WithLibrary(lib), cts.WithSubtreeCache(cold))
	if err != nil {
		t.Fatal(err)
	}
	pert, err := bench.Perturb(bm, "move", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := flow.RunIncremental(context.Background(), base, pert.Sinks)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Incremental.ReusedSubtrees == 0 {
		t.Error("cold cache reused nothing; harvest of the base result failed")
	}
	scratch, err := cts.New(tt, cts.WithLibrary(lib))
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratch.Run(context.Background(), pert.Sinks)
	if err != nil {
		t.Fatal(err)
	}
	if deckHash(t, inc, "r1") != deckHash(t, want, "r1") {
		t.Error("harvested delta run differs from from-scratch")
	}
}

// TestIncrementalHarvestFollowsCorrection holds the delta path to a
// from-scratch run under H-structure correction, which re-pairs
// grandchildren, so that a flipped merge's skeleton no longer holds the two
// inputs the level loop keyed it by.  A delta must write the from-scratch
// deck with the from-scratch flip count whether its base ran through the
// delta's own flow or is harvested into a fresh flow's empty cache, and an
// identical replay into an empty cache must reuse every merge of the base.
func TestIncrementalHarvestFollowsCorrection(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	for _, tc := range []struct {
		bench      string
		correction string // a ParseCorrection token
		kind       string // the Perturb kind; "" replays the base's sinks
		seed       int64
		cold       bool // harvest the base into a fresh flow's empty cache
		short      bool
	}{
		{"r5", "reestimate", "add", 2, false, true},
		{"r3", "reestimate", "move", 3, false, false},
		{"r3", "reestimate", "move", 3, true, false},
		{"r3", "reestimate", "drop", 5, true, false},
		{"r1", "reestimate", "", 0, true, true},
		{"r2", "reestimate", "", 0, true, false},
		{"r3", "reestimate", "", 0, true, false},
		{"r1", "full", "", 0, true, false},
		{"r2", "full", "", 0, true, false},
		{"r3", "full", "", 0, true, false},
	} {
		step, harvest := "replay", "own"
		if tc.kind != "" {
			step = fmt.Sprintf("%s_%d", tc.kind, tc.seed)
		}
		if tc.cold {
			harvest = "cold"
		}
		t.Run(fmt.Sprintf("%s/%s/%s/%s", tc.bench, tc.correction, step, harvest), func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("-short keeps the r5 row and one replay")
			}
			corr, err := cts.ParseCorrection(tc.correction)
			if err != nil {
				t.Fatal(err)
			}
			newFlow := func(opts ...cts.Option) *cts.Flow {
				f, err := cts.New(tt, append(opts, cts.WithLibrary(lib), cts.WithCorrection(corr))...)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			bm, err := bench.SyntheticScaled(tc.bench, 150)
			if err != nil {
				t.Fatal(err)
			}
			flow := newFlow(cts.WithSubtreeCache(cts.NewMemorySubtreeCache(0)))
			base, err := flow.Run(context.Background(), bm.Sinks)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cold {
				flow = newFlow(cts.WithSubtreeCache(cts.NewMemorySubtreeCache(0)))
			}

			want, sinks := base, bm.Sinks
			if tc.kind != "" {
				pert, err := bench.Perturb(bm, tc.kind, 0.02, tc.seed)
				if err != nil {
					t.Fatal(err)
				}
				if want, err = newFlow().Run(context.Background(), pert.Sinks); err != nil {
					t.Fatal(err)
				}
				sinks = pert.Sinks
			}
			inc, err := flow.RunIncremental(context.Background(), base, sinks)
			if err != nil {
				t.Fatal(err)
			}
			if got, w := deckHash(t, inc, tc.bench), deckHash(t, want, tc.bench); got != w {
				t.Errorf("delta deck hash %s differs from from-scratch %s", got, w)
			}
			if inc.Flippings != want.Flippings {
				t.Errorf("delta flip count %d, from-scratch %d", inc.Flippings, want.Flippings)
			}
			if st := inc.Incremental; tc.kind == "" && st.RecomputedMerges != 0 {
				t.Errorf("identical replay recomputed %d of %d merges, want 0",
					st.RecomputedMerges, st.RecomputedMerges+st.ReusedSubtrees)
			}
		})
	}
}

// TestIncrementalAddDropAndReplay covers the remaining edit kinds end to
// end, plus the degenerate replays: an identical resubmission recomputes
// nothing, and added/dropped sinks keep the bit-identity contract.
func TestIncrementalAddDropAndReplay(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	bm, err := bench.SyntheticScaled("r2", 96)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := cts.New(tt, cts.WithLibrary(lib),
		cts.WithSubtreeCache(cts.NewMemorySubtreeCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	base, err := flow.Run(context.Background(), bm.Sinks)
	if err != nil {
		t.Fatal(err)
	}

	replay, err := flow.RunIncremental(context.Background(), base, bm.Sinks)
	if err != nil {
		t.Fatal(err)
	}
	if st := replay.Incremental; st.RecomputedMerges != 0 || st.ReusedSubtrees != len(bm.Sinks)-1 {
		t.Errorf("identical replay stats %+v, want all %d merges reused", st, len(bm.Sinks)-1)
	}
	if *replay.Incremental.Diff != (cts.SinkDiff{}) {
		t.Errorf("identical replay diff %+v, want empty", replay.Incremental.Diff)
	}

	scratch, err := cts.New(tt, cts.WithLibrary(lib))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"add", "drop"} {
		t.Run(kind, func(t *testing.T) {
			pert, err := bench.Perturb(bm, kind, 0.05, 3)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scratch.Run(context.Background(), pert.Sinks)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := flow.RunIncremental(context.Background(), base, pert.Sinks)
			if err != nil {
				t.Fatal(err)
			}
			if deckHash(t, inc, "r2") != deckHash(t, want, "r2") {
				t.Errorf("%s delta differs from from-scratch", kind)
			}
			d, n := inc.Incremental.Diff, len(bm.Sinks)/20
			if kind == "add" && (d == nil || *d != (cts.SinkDiff{Added: n})) {
				t.Errorf("diff %+v, want %d added", d, n)
			}
			if kind == "drop" && (d == nil || *d != (cts.SinkDiff{Removed: n})) {
				t.Errorf("diff %+v, want %d removed", d, n)
			}
		})
	}
}

// corruptingCache returns values with a flipped byte: the flow must detect
// the damage in the codec, treat every lookup as a miss, and still produce
// the correct tree (a corrupt cache may cost time, never correctness).
type corruptingCache struct{ inner *cts.MemorySubtreeCache }

func (c corruptingCache) Get(key string) ([]byte, bool) {
	v, ok := c.inner.Get(key)
	if !ok {
		return nil, false
	}
	bad := append([]byte(nil), v...)
	bad[len(bad)/2] ^= 0xff
	return bad, true
}

func (c corruptingCache) Put(key string, value []byte) { c.inner.Put(key, value) }

func TestIncrementalCorruptCacheFallsBack(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	bm, err := bench.SyntheticScaled("r1", 48)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := cts.New(tt, cts.WithLibrary(lib),
		cts.WithSubtreeCache(corruptingCache{inner: cts.NewMemorySubtreeCache(0)}))
	if err != nil {
		t.Fatal(err)
	}
	base, err := flow.Run(context.Background(), bm.Sinks)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := flow.RunIncremental(context.Background(), base, bm.Sinks)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Incremental.ReusedSubtrees != 0 {
		t.Errorf("reused %d corrupt sub-trees", inc.Incremental.ReusedSubtrees)
	}
	if inc.Incremental.RecomputedMerges != len(bm.Sinks)-1 {
		t.Errorf("recomputed %d merges, want all %d", inc.Incremental.RecomputedMerges, len(bm.Sinks)-1)
	}
	if deckHash(t, inc, "r1") != deckHash(t, base, "r1") {
		t.Error("corrupt-cache run diverged from the base tree")
	}
}

func TestRunIncrementalErrors(t *testing.T) {
	tt := tech.Default()
	plain, err := cts.New(tt)
	if err != nil {
		t.Fatal(err)
	}
	sinks := []cts.Sink{{Name: "a"}, {Name: "b", Pos: geom.Pt(1000, 0)}}
	if _, err := plain.RunIncremental(context.Background(), nil, sinks); err == nil ||
		!strings.Contains(err.Error(), "WithSubtreeCache") {
		t.Errorf("no-cache RunIncremental error = %v, want WithSubtreeCache guidance", err)
	}

	cachedA, err := cts.New(tt, cts.WithSubtreeCache(cts.NewMemorySubtreeCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	base, err := cachedA.Run(context.Background(), sinks)
	if err != nil {
		t.Fatal(err)
	}
	other, err := cts.New(tt, cts.WithSubtreeCache(cts.NewMemorySubtreeCache(0)), cts.WithGrid(60))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.RunIncremental(context.Background(), base, sinks); err == nil ||
		!strings.Contains(err.Error(), "settings") {
		t.Errorf("settings-mismatch error = %v", err)
	}

	if _, err := cts.New(tt, cts.WithSubtreeCache(cts.NewMemorySubtreeCache(0)),
		cts.WithMergeRouter(stubMerger{})); err == nil {
		t.Error("New accepted WithSubtreeCache alongside a custom MergeRouter")
	}
}

func TestMemorySubtreeCacheLRU(t *testing.T) {
	c := cts.NewMemorySubtreeCache(100)
	val := func(n int) []byte { return make([]byte, n) }
	c.Put("a", val(40))
	c.Put("b", val(40))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before budget pressure")
	}
	c.Put("c", val(40)) // evicts b (a was just refreshed)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order broken")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	c.Put("huge", val(200)) // larger than the whole budget: not kept
	if _, ok := c.Get("huge"); ok {
		t.Error("over-budget value was kept")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 80 || st.Evictions != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
	unbounded := cts.NewMemorySubtreeCache(0)
	unbounded.Put("x", val(1<<20))
	if _, ok := unbounded.Get("x"); !ok {
		t.Error("unbounded cache dropped a value")
	}
}

// deckHash is deck() reduced to its pinned sha256 form.
func deckHash(t *testing.T, res *cts.Result, name string) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256([]byte(deck(t, res, name))))
}
