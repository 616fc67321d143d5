package cts_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/pkg/cts"
)

// TestSettingsJSONRoundTrip pins the Settings wire contract the ctsd service
// depends on: marshal → unmarshal → equal, for every field including the
// Topology strategy.
func TestSettingsJSONRoundTrip(t *testing.T) {
	cases := []cts.Settings{
		{SlewLimit: 100, SlewTarget: 80, Alpha: 1, Beta: 20, GridSize: 45,
			Correction: cts.CorrectionNone, Topology: cts.TopologyGreedy, Routing: cts.RoutingFlat},
		{SlewLimit: 140, SlewTarget: 90.5, Alpha: 2.25, Beta: 0, GridSize: 61,
			Correction: cts.CorrectionReEstimate, Topology: cts.TopologyBipartition, Routing: cts.RoutingHierarchical},
		{SlewLimit: 80, SlewTarget: 64, Alpha: 0.5, Beta: 40, GridSize: 33,
			Correction: cts.CorrectionFull, Topology: cts.TopologyGreedy, Routing: cts.RoutingHierarchical},
	}
	for i, in := range cases {
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var out cts.Settings
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("case %d: unmarshal %s: %v", i, data, err)
		}
		if out != in {
			t.Errorf("case %d: round trip %s:\n got %+v\nwant %+v", i, data, out, in)
		}
	}

	// The enum fields travel as their canonical tokens, not as bare ints.
	data, err := json.Marshal(cts.Settings{Correction: cts.CorrectionFull, Topology: cts.TopologyBipartition,
		Routing: cts.RoutingHierarchical})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["correction"] != "full" {
		t.Errorf("correction wire token = %v, want \"full\"", raw["correction"])
	}
	if raw["topology"] != "bipartition" {
		t.Errorf("topology wire token = %v, want \"bipartition\"", raw["topology"])
	}
	if raw["routing"] != "hierarchical" {
		t.Errorf("routing wire token = %v, want \"hierarchical\"", raw["routing"])
	}
}

func TestEventWire(t *testing.T) {
	e := cts.Event{
		Kind: cts.EventStageEnd, Item: "r1", Stage: cts.StageMergeRoute,
		Level: 3, Subtrees: 4, Pairs: 2, Flips: 1,
		Elapsed: 1500 * time.Microsecond, Err: errors.New("boom"),
	}
	w := e.Wire()
	if w.Kind != "stage-end" || w.Stage != cts.StageMergeRoute || w.Level != 3 {
		t.Errorf("wire event = %+v", w)
	}
	if w.ElapsedMs != 1.5 {
		t.Errorf("wire elapsedMs = %v, want 1.5", w.ElapsedMs)
	}
	if w.Error != "boom" {
		t.Errorf("wire error = %q, want boom", w.Error)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back cts.WireEvent
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != w {
		t.Errorf("wire round trip: got %+v, want %+v", back, w)
	}
}

func TestCanonicalKey(t *testing.T) {
	s := cts.Settings{SlewLimit: 100, SlewTarget: 80, Alpha: 1, Beta: 20, GridSize: 45}
	sinks := []cts.Sink{
		{Name: "a", Pos: geom.Pt(10, 20), Cap: 15},
		{Name: "b", Pos: geom.Pt(30, 40), Cap: 25},
	}
	key := cts.CanonicalKey(s, sinks)
	if len(key) != 64 {
		t.Fatalf("key %q is not a hex sha256", key)
	}
	if got := cts.CanonicalKey(s, append([]cts.Sink(nil), sinks...)); got != key {
		t.Errorf("identical request hashed differently: %s vs %s", got, key)
	}

	// Any perturbation — settings, order, a coordinate ulp, a name split —
	// must change the key.
	s2 := s
	s2.Beta = 21
	perturbed := map[string]string{
		"settings":   cts.CanonicalKey(s2, sinks),
		"order":      cts.CanonicalKey(s, []cts.Sink{sinks[1], sinks[0]}),
		"coordinate": cts.CanonicalKey(s, []cts.Sink{{Name: "a", Pos: geom.Pt(10.0000000001, 20), Cap: 15}, sinks[1]}),
		"name-shift": cts.CanonicalKey(s, []cts.Sink{{Name: "ab", Pos: sinks[0].Pos, Cap: 15}, {Name: "", Pos: sinks[1].Pos, Cap: 25}}),
		"truncated":  cts.CanonicalKey(s, sinks[:1]),
	}
	seen := map[string]string{key: "base"}
	for what, k := range perturbed {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s: %s", what, prev, k)
		}
		seen[k] = what
	}
}

// TestCanonicalKeyPanicsOnUnvalidatedSettings: json.Marshal cannot encode a
// non-finite setting, and a key that dropped that error would hash no
// settings bytes at all, so every such request would share one key.
func TestCanonicalKeyPanicsOnUnvalidatedSettings(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Settings.Effective") {
			t.Errorf("recovered %v, want a panic naming Settings.Effective", r)
		}
	}()
	cts.CanonicalKey(cts.Settings{Alpha: math.NaN()}, []cts.Sink{{Name: "a"}, {Name: "b", Pos: geom.Pt(10, 0)}})
}

func TestValidateSinks(t *testing.T) {
	nan := func(s cts.Sink) cts.Sink { s.Pos.X = math.NaN(); return s }
	ok := []cts.Sink{{Name: "a", Pos: geom.Pt(0, 0)}, {Name: "b", Pos: geom.Pt(5, 5)}}
	cases := []struct {
		name  string
		sinks []cts.Sink
		code  string
		index int
		other int
	}{
		{"valid", ok, "", 0, 0},
		{"empty", nil, cts.SinkErrEmpty, -1, -1},
		{"duplicate", []cts.Sink{{Name: "x"}, {Name: "y"}, {Name: "x"}}, cts.SinkErrDuplicateName, 2, 0},
		{"generated-collision", []cts.Sink{{Name: "sink_1"}, {}}, cts.SinkErrGeneratedCollision, 1, 0},
		{"nan", []cts.Sink{ok[0], nan(ok[1])}, cts.SinkErrNonFinite, 1, -1},
	}
	for _, tc := range cases {
		err := cts.ValidateSinks(tc.sinks)
		if tc.code == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		var se *cts.SinkSetError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v is not a *SinkSetError", tc.name, err)
			continue
		}
		if se.Code != tc.code || se.Index != tc.index || se.Other != tc.other {
			t.Errorf("%s: got code=%s index=%d other=%d, want %s/%d/%d",
				tc.name, se.Code, se.Index, se.Other, tc.code, tc.index, tc.other)
		}
	}
}
