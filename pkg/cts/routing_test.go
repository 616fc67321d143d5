package cts_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/mergeroute"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// flatGoldenDecks pins the RoutingFlat output bit for bit: sha256 of the
// SPICE-style deck of the scaled r1-r3 benchmarks synthesized with default
// settings and the analytic library.  These hashes were recorded from the
// pre-hierarchical router; the flat strategy — pooled arena, hand-rolled
// heap and all — must keep reproducing them exactly.  A change here is a
// determinism-contract break (and invalidates every cached CanonicalKey
// result), not a test update.
var flatGoldenDecks = map[string]string{
	"r1": "71d03114fd86102d2da1f48140caa69ffa36bec58f61b71629e7c88a0f2d0981",
	"r2": "394b34593884f4aa94a5fc037c5b8c99774916fb38250e06eb21f98ee3fa6cca",
	"r3": "bbb93efc01417c47d47ded624f721a1a4b5d23cd62893dfd1fec8e0b54c9e52c",
}

// TestRoutingFlatBitIdenticalToPrePR synthesizes scaled r1-r3 with the
// default (flat) routing strategy and compares the deck hashes against the
// pre-PR goldens above.
func TestRoutingFlatBitIdenticalToPrePR(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	for _, name := range []string{"r1", "r2", "r3"} {
		t.Run(name, func(t *testing.T) {
			bm, err := bench.SyntheticScaled(name, 150)
			if err != nil {
				t.Fatal(err)
			}
			flow, err := cts.New(tt, cts.WithLibrary(lib))
			if err != nil {
				t.Fatal(err)
			}
			res, err := flow.Run(context.Background(), bm.Sinks)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(deck(t, res, name))))
			if got != flatGoldenDecks[name] {
				t.Errorf("flat deck hash = %s, want pinned %s (wire %.6f, skew %.9f)",
					got, flatGoldenDecks[name], res.Stats.TotalWire, res.Timing.Skew)
			}
		})
	}
}

// sizedGoldens pins both routing strategies at the scale of the cold
// synthesis benchmark: a seeded 1% move of bench.SyntheticSized(1024), run
// with default settings and the analytic library.  result is the sha256 of
// the Result JSON with Elapsed zeroed, deck the sha256 of the SPICE-style
// deck, and cells the grid cells the maze router expanded for the run
// (mergeroute.WorkStats).  The scaled r1-r3 decks above rarely place a
// buffer mid-segment; these designs do on most merges, and that branch is
// where the relaxation loop rebuilds its state.  As with flatGoldenDecks, a
// change here is a determinism-contract break, not a test update; cells
// may only move with a change to the search itself.
var sizedGoldens = map[cts.RoutingStrategy]struct {
	result, deck string
	cells        uint64
}{
	cts.RoutingFlat: {
		result: "df59057c43b20db1b204d08c7a214f113d6d50a089566cac9da868c7f1598915",
		deck:   "426c5a179d45cde6cc5183869d0992acba851396ce0daf7e92e0ee90134764eb",
		cells:  2246430,
	},
	// The corridor pass engages only on grids of hierMinCells and more, and
	// on this design every corridor-routed merge lands where flat routing
	// does: the deck matches flat, the work count does not.
	cts.RoutingHierarchical: {
		result: "56b9bbd6a45faaeefae9b376d707a74bdf399b1faf16907c2e212ad92167b7f6",
		deck:   "426c5a179d45cde6cc5183869d0992acba851396ce0daf7e92e0ee90134764eb",
		cells:  2199710,
	},
}

// TestRoutingSizedGoldens synthesizes the 1,024-sink design with each
// routing strategy and compares result, deck and work count with the
// goldens above.  The work count is read as a delta of the process-wide
// counter, which holds because no test in this package runs in parallel.
func TestRoutingSizedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("1,024-sink synthesis per strategy; runs in the full suite")
	}
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	base, err := bench.SyntheticSized(1024)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := bench.Perturb(base, "move", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, routing := range []cts.RoutingStrategy{cts.RoutingFlat, cts.RoutingHierarchical} {
		t.Run(routing.String(), func(t *testing.T) {
			want := sizedGoldens[routing]
			flow, err := cts.New(tt, cts.WithLibrary(lib), cts.WithRoutingStrategy(routing))
			if err != nil {
				t.Fatal(err)
			}
			cells0 := mergeroute.WorkStats()
			res, err := flow.Run(context.Background(), bm.Sinks)
			if err != nil {
				t.Fatal(err)
			}
			cells := mergeroute.WorkStats() - cells0
			res.Elapsed = 0
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != want.result {
				t.Errorf("result JSON hash = %s, want pinned %s\n%s", got, want.result, js)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(deck(t, res, bm.Name)))); got != want.deck {
				t.Errorf("deck hash = %s, want pinned %s", got, want.deck)
			}
			if cells != want.cells {
				t.Errorf("expanded cells = %d, want pinned %d", cells, want.cells)
			}
		})
	}
}

// correctionGoldens pins both H-structure correction modes under both
// routing strategies: the flip count and deck hash of SyntheticScaled(name,
// 150) with default settings and the analytic library.  Full correction
// routes and discards trial merges of the grandchild pairings, so these are
// what a change to how the correction router undoes a trial must keep.  As
// with flatGoldenDecks, a change here is a determinism-contract break, not a
// test update.
var correctionGoldens = map[string]struct {
	flips int
	deck  string
}{
	"r1/reestimate/flat":          {8, "825d6bf2e8a1f1aeb4fcc67b74e4eb8fac67f7ad224294d0e1d32599c6296319"},
	"r1/reestimate/hierarchical":  {8, "825d6bf2e8a1f1aeb4fcc67b74e4eb8fac67f7ad224294d0e1d32599c6296319"},
	"r1/full/flat":                {50, "0242763b0a6c517ede49caa382677175c7681b9702072b29b68d311899d34070"},
	"r1/full/hierarchical":        {50, "0242763b0a6c517ede49caa382677175c7681b9702072b29b68d311899d34070"},
	"r2/reestimate/flat":          {9, "7c6de86c401d610a48671a96713584e0a6c91a5efbd747734f5409d683df9b52"},
	"r2/reestimate/hierarchical":  {10, "dd9dc9c2b64195dd9e8ecfb3c0aafc34f6899554936528beedd12ebc24207dd2"},
	"r2/full/flat":                {53, "eef9cf7387591cf71a9eb83bd55b0f4a48ed50ef42639d3e4dd3071c20610153"},
	"r2/full/hierarchical":        {53, "156497c1b505e3eb47aef4bfe58653ebc8ac272c286f78b5e0f8c5d20be1e5bd"},
	"r3/reestimate/flat":          {9, "fdfae3c6761e48909dbc8c736913ec93ce5526097b1977043ac783b1425fd8be"},
	"r3/reestimate/hierarchical":  {8, "1bc6c4245347beb95340b99a05ddcf68d2891daaf7f2ea28f2e1f361e2cce569"},
	"r3/full/flat":                {41, "b99c59313a3b6da8e6cc8c12588dff67914811ed0151d4ce0ff2981ae0131997"},
	"r3/full/hierarchical":        {44, "ad30610925674179533e872d35a800e5b42541a7923d116994fa8a85a8051b74"},
	"f11/reestimate/flat":         {9, "20b880c8bba4eaa504b66058b18aea7568ab6b5af796d61227ffcfa4d55a24e9"},
	"f11/reestimate/hierarchical": {9, "20b880c8bba4eaa504b66058b18aea7568ab6b5af796d61227ffcfa4d55a24e9"},
	"f11/full/flat":               {42, "eb4eba47516dcde9a457d0d1ddca23237ebe3a6cc68f01ca57a4089e9fe24f7f"},
	"f11/full/hierarchical":       {42, "87c723b014bea8c92bcdf558b49e58c4e9c53a6869c28392b0de34c9d628968c"},
}

// TestCorrectionGoldens runs every correctionGoldens row; -short keeps r1.
func TestCorrectionGoldens(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	designs := []string{"r1", "r2", "r3", "f11"}
	if testing.Short() {
		designs = designs[:1]
	}
	for _, name := range designs {
		bm, err := bench.SyntheticScaled(name, 150)
		if err != nil {
			t.Fatal(err)
		}
		for _, token := range []string{"reestimate", "full"} {
			corr, err := cts.ParseCorrection(token)
			if err != nil {
				t.Fatal(err)
			}
			for _, routing := range []cts.RoutingStrategy{cts.RoutingFlat, cts.RoutingHierarchical} {
				label := fmt.Sprintf("%s/%s/%v", name, token, routing)
				t.Run(label, func(t *testing.T) {
					want := correctionGoldens[label]
					flow, err := cts.New(tt, cts.WithLibrary(lib),
						cts.WithCorrection(corr), cts.WithRoutingStrategy(routing))
					if err != nil {
						t.Fatal(err)
					}
					res, err := flow.Run(context.Background(), bm.Sinks)
					if err != nil {
						t.Fatal(err)
					}
					if res.Flippings != want.flips {
						t.Errorf("flips = %d, want pinned %d", res.Flippings, want.flips)
					}
					if got := deckHash(t, res, name); got != want.deck {
						t.Errorf("deck hash = %s, want pinned %s", got, want.deck)
					}
				})
			}
		}
	}
}

// TestRoutingHierarchicalFlow checks the hierarchical strategy end to end at
// the pipeline level: it must synthesize a valid tree, echo its strategy in
// the result settings, be deterministic across runs, stay within the
// wirelength bound of flat, and address a different cache key than flat so
// cached results never mix strategies.
func TestRoutingHierarchicalFlow(t *testing.T) {
	tt := tech.Default()
	lib := charlib.NewAnalytic(tt)
	bm, err := bench.SyntheticScaled("r1", 96)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := cts.New(tt, cts.WithLibrary(lib))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := cts.New(tt, cts.WithLibrary(lib),
		cts.WithRoutingStrategy(cts.RoutingHierarchical))
	if err != nil {
		t.Fatal(err)
	}

	rf, err := flat.Run(context.Background(), bm.Sinks)
	if err != nil {
		t.Fatal(err)
	}
	rh1, err := hier.Run(context.Background(), bm.Sinks)
	if err != nil {
		t.Fatal(err)
	}
	rh2, err := hier.Run(context.Background(), bm.Sinks)
	if err != nil {
		t.Fatal(err)
	}

	if rh1.Settings.Routing != cts.RoutingHierarchical {
		t.Errorf("settings echo strategy %v, want hierarchical", rh1.Settings.Routing)
	}
	if err := rh1.Tree.Validate(); err != nil {
		t.Errorf("hierarchical tree invalid: %v", err)
	}
	if rh1.Timing.WorstSlew > rh1.Settings.SlewLimit {
		t.Errorf("hierarchical worst slew %v exceeds the limit %v",
			rh1.Timing.WorstSlew, rh1.Settings.SlewLimit)
	}
	if d1, d2 := deck(t, rh1, "r1"), deck(t, rh2, "r1"); d1 != d2 {
		t.Error("hierarchical synthesis not deterministic across runs")
	}
	// The mergeroute property corpus pins the per-merge bound at 1.10; whole
	// trees mix corridor-routed and fallback merges, so the same bound holds.
	if rh1.Stats.TotalWire > 1.10*rf.Stats.TotalWire {
		t.Errorf("hierarchical wire %v exceeds 1.10x flat wire %v",
			rh1.Stats.TotalWire, rf.Stats.TotalWire)
	}
	if kf, kh := cts.CanonicalKey(flat.Settings(), bm.Sinks), cts.CanonicalKey(hier.Settings(), bm.Sinks); kf == kh {
		t.Error("flat and hierarchical settings share a cache key; cached results would mix strategies")
	}
}

func TestRoutingStrategyParseAndJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want cts.RoutingStrategy
		ok   bool
	}{
		{"flat", cts.RoutingFlat, true},
		{"", cts.RoutingFlat, true},
		{"hierarchical", cts.RoutingHierarchical, true},
		{"corridor", cts.RoutingFlat, false},
	} {
		got, err := cts.ParseRoutingStrategy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseRoutingStrategy(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, s := range []cts.RoutingStrategy{cts.RoutingFlat, cts.RoutingHierarchical} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%q", s.String()); string(b) != want {
			t.Errorf("marshal %v = %s, want %s", s, b, want)
		}
		var back cts.RoutingStrategy
		if err := json.Unmarshal(b, &back); err != nil || back != s {
			t.Errorf("round trip %v = (%v, %v)", s, back, err)
		}
	}
	// Settings JSON carries the strategy token.
	b, err := json.Marshal(cts.Settings{Routing: cts.RoutingHierarchical})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"routing":"hierarchical"`) {
		t.Errorf("settings JSON missing strategy token: %s", b)
	}
	// An out-of-range strategy is rejected at construction, not at run time.
	if _, err := cts.New(tech.Default(), cts.WithRoutingStrategy(cts.RoutingStrategy(99))); err == nil {
		t.Error("expected New to reject an unknown routing strategy")
	}
}
