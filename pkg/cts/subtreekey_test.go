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
// two subtree-key derivations: a leaf key must move under any perturbation
// of the sink's name, a coordinate, its capacitance or a settings field, a
// merge key under a swap or change of its child keys or a settings change,
// and no leaf key may equal a merge key.
func TestSubtreeKeyProperties(t *testing.T) {
	rng := corpusRand(20260807)
	for instance := 0; instance < 200; instance++ {
		sink := cts.Sink{
			Name: fmt.Sprintf("s%d", instance),
			Pos:  geom.Pt(rng.next()*10000, rng.next()*10000),
			Cap:  10 + rng.next()*30,
		}
		s := cts.Settings{
			SlewLimit:  80 + rng.next()*40,
			SlewTarget: 60 + rng.next()*20,
			Alpha:      1 + rng.next(),
			Beta:       10 + rng.next()*20,
			GridSize:   30 + rng.intn(60),
		}
		leaf := cts.LeafKey(s, sink)
		left, right := cts.LeafKey(s, cts.Sink{Name: "l", Pos: sink.Pos}), leaf
		merge := cts.MergeKey(s, left, right)

		up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
		for label, mutate := range map[string]func(c *cts.Sink){
			"name":        func(c *cts.Sink) { c.Name += "x" },
			"x":           func(c *cts.Sink) { c.Pos.X = up(c.Pos.X) },
			"y":           func(c *cts.Sink) { c.Pos.Y = up(c.Pos.Y) },
			"capacitance": func(c *cts.Sink) { c.Cap = up(c.Cap) },
		} {
			c := sink
			mutate(&c)
			if cts.LeafKey(s, c) == leaf {
				t.Fatalf("instance %d: leaf key unchanged under %s perturbation", instance, label)
			}
		}
		for label, mutate := range map[string]func(c *cts.Settings){
			"slew limit":  func(c *cts.Settings) { c.SlewLimit = up(c.SlewLimit) },
			"slew target": func(c *cts.Settings) { c.SlewTarget = math.Nextafter(c.SlewTarget, 0) },
			"alpha":       func(c *cts.Settings) { c.Alpha = up(c.Alpha) },
			"beta":        func(c *cts.Settings) { c.Beta = up(c.Beta) },
			"grid":        func(c *cts.Settings) { c.GridSize++ },
			"correction":  func(c *cts.Settings) { c.Correction = cts.CorrectionFull },
			"topology":    func(c *cts.Settings) { c.Topology = cts.TopologyBipartition },
			"routing":     func(c *cts.Settings) { c.Routing = cts.RoutingHierarchical },
		} {
			c := s
			mutate(&c)
			if cts.LeafKey(c, sink) == leaf {
				t.Fatalf("instance %d: leaf key unchanged under %s perturbation", instance, label)
			}
			if cts.MergeKey(c, left, right) == merge {
				t.Fatalf("instance %d: merge key unchanged under %s perturbation", instance, label)
			}
		}

		if cts.MergeKey(s, right, left) == merge {
			t.Fatalf("instance %d: merge key unchanged under child-key swap", instance)
		}
		if cts.MergeKey(s, left, left) == merge || cts.MergeKey(s, right, right) == merge ||
			cts.MergeKey(s, left, merge) == merge {
			t.Fatalf("instance %d: merge key unchanged under a changed child key", instance)
		}
		for _, m := range []string{merge, cts.MergeKey(s, leaf, leaf), cts.MergeKey(s, "", "")} {
			if m == leaf {
				t.Fatalf("instance %d: leaf key equals a merge key", instance)
			}
		}
	}
}

// TestSubtreeKeyLeafVsMerge pins the structural separations that do not fit
// the random corpus: a leaf whose name spells a merge's child keys, and an
// empty-named leaf against a merge of two empty keys, must key apart from
// the merge, and moving bytes between the two child keys must move the
// merge key.
func TestSubtreeKeyLeafVsMerge(t *testing.T) {
	s := cts.Settings{SlewLimit: 100, SlewTarget: 80, Alpha: 1, Beta: 20, GridSize: 45}
	if cts.LeafKey(s, cts.Sink{}) == cts.MergeKey(s, "", "") {
		t.Error("empty leaf key equals the merge key of two empty keys")
	}
	if cts.LeafKey(s, cts.Sink{Name: "ka" + "kb"}) == cts.MergeKey(s, "ka", "kb") {
		t.Error("leaf key equals a merge key over its name's halves")
	}
	if cts.MergeKey(s, "kak", "b") == cts.MergeKey(s, "ka", "kb") {
		t.Error("merge key aliases child keys split at another byte")
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
			merge:     "7e8dc0942e2810baeb171b6f18db5cf3ed8b650bcc6e0db3450e545fbfc905bc",
			leaf:      "a2f5c09751d556860d450a1aed16398baf14b5e22124e6680651beea67673a83",
		},
		{
			name: "full-bipartition-hierarchical",
			in: cts.Settings{Correction: cts.CorrectionFull, Topology: cts.TopologyBipartition,
				Routing: cts.RoutingHierarchical},
			json:      `{"slewLimit":100,"slewTarget":80,"alpha":1,"beta":20,"gridSize":45,"correction":"full","topology":"bipartition","routing":"hierarchical"}`,
			canonical: "d0214a2e2c076afd8ae218fd7d98c792c28604aae39bb136d5e7f86c250ad9d5",
			merge:     "0a7e510618ecea860ab9728f8ff5084ee96e49f9e2d568a83ab4a79c44df8346",
			leaf:      "88b2467d45aec2b86667b43a716bb07b0c9b1a359d493cd07a55ad07e45df530",
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
			if got := cts.MergeKey(s, "k1", "k2"); got != tc.merge {
				t.Errorf("merge key = %s, want %s", got, tc.merge)
			}
			if got := cts.LeafKey(s, sinks[0]); got != tc.leaf {
				t.Errorf("leaf key = %s, want %s", got, tc.leaf)
			}
		})
	}
}
