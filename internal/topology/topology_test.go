package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestMatchPairsEverythingWhenEven(t *testing.T) {
	items := []Item{
		{Pos: geom.Pt(0, 0)}, {Pos: geom.Pt(10, 0)},
		{Pos: geom.Pt(1000, 1000)}, {Pos: geom.Pt(1010, 1000)},
	}
	pairs, seed := Match(items, 1, 0)
	if seed != -1 {
		t.Errorf("seed = %d, want -1 for even count", seed)
	}
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2", len(pairs))
	}
	// The two natural clusters must be paired together.
	for _, p := range pairs {
		d := items[p.A].Pos.Manhattan(items[p.B].Pos)
		if d > 20 {
			t.Errorf("pair (%d,%d) spans %v um; clustering failed", p.A, p.B, d)
		}
	}
}

func TestMatchSeedIsMaxDelay(t *testing.T) {
	items := []Item{
		{Pos: geom.Pt(0, 0), Delay: 10},
		{Pos: geom.Pt(100, 0), Delay: 90},
		{Pos: geom.Pt(0, 100), Delay: 20},
	}
	pairs, seed := Match(items, 1, 0)
	if seed != 1 {
		t.Errorf("seed = %d, want the max-delay item 1", seed)
	}
	if len(pairs) != 1 || (pairs[0].A != 0 && pairs[0].B != 0) {
		t.Errorf("unexpected pairs %v", pairs)
	}
}

func TestMatchDelayTermSteersPairing(t *testing.T) {
	// Four items at the corners of a square: with alpha only, pairing is by
	// distance; with a strong beta, items with similar delays pair up even if
	// they are farther apart.
	items := []Item{
		{Pos: geom.Pt(0, 0), Delay: 0},
		{Pos: geom.Pt(0, 100), Delay: 100},
		{Pos: geom.Pt(1000, 0), Delay: 100},
		{Pos: geom.Pt(1000, 100), Delay: 0},
	}
	pairsDist, _ := Match(items, 1, 0)
	for _, p := range pairsDist {
		if items[p.A].Pos.Manhattan(items[p.B].Pos) > 200 {
			t.Errorf("distance-only matching chose a long pair %v", p)
		}
	}
	pairsDelay, _ := Match(items, 0.001, 10)
	for _, p := range pairsDelay {
		if items[p.A].Delay != items[p.B].Delay {
			t.Errorf("delay-weighted matching paired different delays: %v", p)
		}
	}
}

func TestMatchProperties(t *testing.T) {
	f := func(seedVal int64, count uint8) bool {
		n := int(count%20) + 2
		rng := rand.New(rand.NewSource(seedVal))
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Pos:   geom.Pt(rng.Float64()*5000, rng.Float64()*5000),
				Delay: rng.Float64() * 200,
			}
		}
		pairs, seed := Match(items, 1, 0.5)
		used := make(map[int]bool)
		if seed >= 0 {
			used[seed] = true
		}
		for _, p := range pairs {
			if used[p.A] || used[p.B] || p.A == p.B {
				return false
			}
			used[p.A], used[p.B] = true, true
		}
		// Every item is either matched or the unique seed.
		if len(used) != n {
			return false
		}
		// Parity: odd counts produce a seed, even counts do not.
		return (n%2 == 1) == (seed >= 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMatchEdgeCases(t *testing.T) {
	if pairs, seed := Match(nil, 1, 1); pairs != nil || seed != -1 {
		t.Error("empty input should produce no pairs and no seed")
	}
	one := []Item{{Pos: geom.Pt(1, 1)}}
	if pairs, seed := Match(one, 1, 1); len(pairs) != 0 || seed != 0 {
		t.Error("single item should become the seed")
	}
}

func TestLevels(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {8, 3}, {9, 4}, {267, 9}} {
		if got := Levels(tc.n); got != tc.want {
			t.Errorf("Levels(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
