package cts_test

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/pkg/cts"
)

// corpusRand is the same tiny deterministic LCG the mergeroute property
// corpus uses: no global state, identical sequences on every run.
type corpusRand uint64

func (r *corpusRand) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(uint32(*r>>33)) / (1 << 32)
}

func (r *corpusRand) intn(n int) int { return int(r.next() * float64(n)) }

// TestSubtreeKeyProperties drives a 200-instance random corpus through the
// SubtreeKey contract: the key must be invariant under sink reordering and
// input-slice aliasing (the input slice is never mutated), and distinct
// under any perturbation of a coordinate, a capacitance, a settings field or
// the child-key list.
func TestSubtreeKeyProperties(t *testing.T) {
	rng := corpusRand(20260807)
	for instance := 0; instance < 200; instance++ {
		n := 1 + rng.intn(20)
		sinks := make([]cts.Sink, n)
		for i := range sinks {
			sinks[i] = cts.Sink{
				Name: fmt.Sprintf("s%d_%d", instance, i),
				Pos:  geom.Pt(rng.next()*10000, rng.next()*10000),
				Cap:  10 + rng.next()*30,
			}
		}
		s := cts.Settings{
			SlewLimit:  80 + rng.next()*40,
			SlewTarget: 60 + rng.next()*20,
			Alpha:      1 + rng.next(),
			Beta:       10 + rng.next()*20,
			GridSize:   30 + rng.intn(60),
		}
		childKeys := []string{"", "left", "right"}[:rng.intn(4)]
		key := cts.SubtreeKey(s, sinks, childKeys...)

		// Invariance: a rotated (and, via repeated rotation, arbitrarily
		// reordered) copy keys identically.
		rot := rng.intn(n)
		reordered := append(append([]cts.Sink{}, sinks[rot:]...), sinks[:rot]...)
		if got := cts.SubtreeKey(s, reordered, childKeys...); got != key {
			t.Fatalf("instance %d: key changed under reordering", instance)
		}

		// Aliasing: the function must canonicalize into a private copy, so
		// the caller's slice comes back in its original order and a second
		// call over the same backing array still matches.
		before := fmt.Sprintf("%v", sinks)
		_ = cts.SubtreeKey(s, sinks, childKeys...)
		if after := fmt.Sprintf("%v", sinks); after != before {
			t.Fatalf("instance %d: SubtreeKey reordered the caller's slice", instance)
		}
		if got := cts.SubtreeKey(s, sinks[:n:n], childKeys...); got != key {
			t.Fatalf("instance %d: key changed under slice aliasing", instance)
		}

		// Distinctness: every single-field perturbation must move the key.
		pi := rng.intn(n)
		perturb := func(label string, mutate func(c []cts.Sink)) {
			c := append([]cts.Sink{}, sinks...)
			mutate(c)
			if cts.SubtreeKey(s, c, childKeys...) == key {
				t.Fatalf("instance %d: key unchanged under %s perturbation", instance, label)
			}
		}
		perturb("coordinate", func(c []cts.Sink) { c[pi].Pos.X = math.Nextafter(c[pi].Pos.X, math.Inf(1)) })
		perturb("capacitance", func(c []cts.Sink) { c[pi].Cap = math.Nextafter(c[pi].Cap, math.Inf(1)) })
		perturb("name", func(c []cts.Sink) { c[pi].Name += "x" })
		perturb("membership", func(c []cts.Sink) { c[pi] = cts.Sink{Name: "other", Pos: c[pi].Pos, Cap: c[pi].Cap} })

		s2 := s
		s2.GridSize++
		if cts.SubtreeKey(s2, sinks, childKeys...) == key {
			t.Fatalf("instance %d: key unchanged under settings perturbation", instance)
		}
		s3 := s
		s3.SlewTarget = math.Nextafter(s3.SlewTarget, 0)
		if cts.SubtreeKey(s3, sinks, childKeys...) == key {
			t.Fatalf("instance %d: key unchanged under slew-target perturbation", instance)
		}
		if cts.SubtreeKey(s, sinks, append(append([]string{}, childKeys...), "extra")...) == key {
			t.Fatalf("instance %d: key unchanged under extra child key", instance)
		}
		if len(childKeys) == 2 {
			if cts.SubtreeKey(s, sinks, childKeys[1], childKeys[0]) == key {
				t.Fatalf("instance %d: key unchanged under child-key swap", instance)
			}
		}
	}
}

// TestSubtreeKeyLeafVsMerge pins the structural separations that do not fit
// the random corpus: a leaf and a merge over the same sinks must differ, and
// the empty child-key list must not alias a single empty child key.
func TestSubtreeKeyLeafVsMerge(t *testing.T) {
	s := cts.Settings{SlewLimit: 100, SlewTarget: 80, Alpha: 1, Beta: 20, GridSize: 45}
	sinks := []cts.Sink{{Name: "a", Pos: geom.Pt(1, 2), Cap: 20}}
	leaf := cts.SubtreeKey(s, sinks)
	if merge := cts.SubtreeKey(s, sinks, "ka", "kb"); merge == leaf {
		t.Error("leaf key equals merge key over the same sinks")
	}
	if cts.SubtreeKey(s, sinks, "") == leaf {
		t.Error("empty child key aliases the no-children leaf key")
	}
}

// TestCacheKeysPinned pins the exact bytes both cache keys hash.  The other
// key tests check only self-consistency, so an encoding slip (a reordered
// settings field, a renamed enum token, a changed length prefix) would pass
// them while silently cold-starting every persisted cache and splitting a
// cluster that runs two builds.  Every enum token feeds both keys, so the
// second row is the oracle for the non-default tokens.
func TestCacheKeysPinned(t *testing.T) {
	sinks := []cts.Sink{
		{Name: "a", Pos: geom.Pt(10, 20), Cap: 15},
		{Name: "b\x00", Pos: geom.Pt(-3.5, 1e9), Cap: 0},
	}
	for _, tc := range []struct {
		name                   string
		in                     cts.Settings
		json                   string
		canonical, merge, leaf string
	}{
		{
			name:      "defaults",
			json:      `{"slewLimit":100,"slewTarget":80,"alpha":1,"beta":20,"gridSize":45,"correction":"none","topology":"greedy","routing":"flat"}`,
			canonical: "8cd67522dae34a60a0dfc877714fdc2baaab788415a569cb9545d24505aa6ea8",
			merge:     "ab826be529305fb6836af9cd7b323f28d1c44ed00bb173cc2f96c561509fd3d7",
			leaf:      "2340c3f5e0194747fd8bc040b8dae0b65d16fb7299c0a1b22f017a10308a79e1",
		},
		{
			name: "full-bipartition-hierarchical",
			in: cts.Settings{Correction: cts.CorrectionFull, Topology: cts.TopologyBipartition,
				Routing: cts.RoutingHierarchical},
			json:      `{"slewLimit":100,"slewTarget":80,"alpha":1,"beta":20,"gridSize":45,"correction":"full","topology":"bipartition","routing":"hierarchical"}`,
			canonical: "d0214a2e2c076afd8ae218fd7d98c792c28604aae39bb136d5e7f86c250ad9d5",
			merge:     "8f203c796d5cb4b6bd7cf80ad1d36e171ce19cb9acba77d810d811cb69073894",
			leaf:      "dec693a9eb39053597899ee91d4cc2bdbce1f5c9fc930f28de2089690f06fbee",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.in.Effective()
			if err != nil {
				t.Fatal(err)
			}
			if b, err := json.Marshal(s); err != nil || string(b) != tc.json {
				t.Errorf("settings JSON = %s (%v), want %s", b, err, tc.json)
			}
			if got := cts.CanonicalKey(s, sinks); got != tc.canonical {
				t.Errorf("CanonicalKey = %s, want %s", got, tc.canonical)
			}
			if got := cts.SubtreeKey(s, sinks, "k1", "k2"); got != tc.merge {
				t.Errorf("merge SubtreeKey = %s, want %s", got, tc.merge)
			}
			if got := cts.SubtreeKey(s, sinks[:1]); got != tc.leaf {
				t.Errorf("leaf SubtreeKey = %s, want %s", got, tc.leaf)
			}
		})
	}
}
