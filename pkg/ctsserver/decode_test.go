package ctsserver

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/pkg/cts"
)

// sameRequest reports how got differs from want, the json.Unmarshal
// reference: reflect.DeepEqual, which keeps nil and empty sink slices
// apart, and the bits of every coordinate and capacitance, so -0 counts.
func sameRequest(got, want JobRequest) string {
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("got %+v, want %+v", got, want)
	}
	for i, s := range got.Sinks {
		w := want.Sinks[i]
		for _, v := range [][2]float64{{s.X, w.X}, {s.Y, w.Y}, {s.Cap, w.Cap}} {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				return fmt.Sprintf("sink %d: got %+v, want %+v (bits differ)", i, s, w)
			}
		}
	}
	return ""
}

// FuzzDecodeJobRequest holds decodeJobRequest to json.Unmarshal into
// JobRequest on any input: it never panics, it accepts exactly what the
// reference accepts and rejects with the reference's error text, and an
// accepted value equals the reference's (see sameRequest).  When
// cts.ValidateSinks also accepts the sinks, none is NaN or infinite and no
// name repeats.  The seed corpus under testdata/fuzz/FuzzDecodeJobRequest
// holds client-shaped bodies and the odd shapes that must fall back.
func FuzzDecodeJobRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeJobRequest(data)
		var want JobRequest
		wantErr := json.Unmarshal(data, &want)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, want %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if diff := sameRequest(got, want); diff != "" {
			t.Fatal(diff)
		}
		sinks := SinksToCTS(got.Sinks)
		if cts.ValidateSinks(sinks) != nil {
			return
		}
		names := make(map[string]bool, len(sinks))
		for i, s := range sinks {
			for _, v := range []float64{s.Pos.X, s.Pos.Y, s.Cap} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("sink %d %+v: non-finite value passed validation", i, s)
				}
			}
			name := s.Name
			if name == "" {
				name = fmt.Sprintf("sink_%d", i)
			}
			if names[name] {
				t.Fatalf("sink %d: name %q repeats after validation", i, name)
			}
			names[name] = true
		}
	})
}

// marshaledRequests returns a seeded spread of the requests clients send:
// the cts -server, ctsload and ctsbench shapes, zero caps (omitted on the
// wire), nil and empty sink sets, every settings strategy, and random
// mixes of the optional fields.  Names avoid the bytes json.Marshal
// escapes, which the hand path leaves to encoding/json.
func marshaledRequests(t *testing.T) []JobRequest {
	t.Helper()
	r1, err := bench.SyntheticScaled("r1", 24)
	if err != nil {
		t.Fatal(err)
	}
	wire := SinksFromCTS(r1.Sinks)
	full := cts.Settings{SlewLimit: 100, SlewTarget: 80, Alpha: 1, Beta: 20, GridSize: 45,
		Correction: cts.CorrectionFull, Topology: cts.TopologyBipartition, Routing: cts.RoutingHierarchical}
	reqs := []JobRequest{
		{},
		{Sinks: []Sink{}},
		{Name: r1.Name, Sinks: wire, Settings: &full, Verify: true, Priority: PriorityHigh,
			Deadline: "2026-01-02T15:04:05Z", BaseJob: "job-7"}, // cts -server, every field set
		{Name: r1.Name, Sinks: wire, Settings: &cts.Settings{}}, // cts -server, defaults
		{Name: "ctsload", Sinks: wire, Priority: PriorityLow},   // ctsload
		{Sinks: wire, BaseJob: "gwjob-a-3"},                     // ctsbench and the gateway's re-encode
	}
	rng := rand.New(rand.NewSource(1))
	const nameBytes = "abcXYZ019_-./:[]()|{}!#$%'*+,;=?@^`~ "
	number := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(rng.Intn(40000) - 20000)
		case 3:
			return math.Ldexp(rng.Float64(), rng.Intn(2000)-1000) // 'e' form at both ends
		case 4:
			return []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, 1e21, 1e-7}[rng.Intn(4)]
		}
		return (rng.Float64() - 0.25) * 20000
	}
	for len(reqs) < 300 {
		req := JobRequest{Verify: rng.Intn(2) == 0}
		if n := rng.Intn(12); n > 0 {
			req.Sinks = make([]Sink, n-1)
		}
		for i := range req.Sinks {
			name := make([]byte, rng.Intn(8))
			for j := range name {
				name[j] = nameBytes[rng.Intn(len(nameBytes))]
			}
			req.Sinks[i] = Sink{Name: string(name), X: number(), Y: number()}
			if rng.Intn(2) == 0 {
				req.Sinks[i].Cap = number()
			}
		}
		if rng.Intn(2) == 0 {
			req.Settings = &cts.Settings{SlewLimit: number(), SlewTarget: number(), Alpha: number(), Beta: number(),
				GridSize: rng.Intn(100), Correction: cts.Correction(rng.Intn(3)),
				Topology: cts.TopologyStrategy(rng.Intn(2)), Routing: cts.RoutingStrategy(rng.Intn(2))}
		}
		pick := func(options ...string) string { return options[rng.Intn(len(options))] }
		req.Name = pick("", "r1", "syn1024", "a b")
		req.Priority = Priority(pick("", "low", "normal", "high", "urgent"))
		req.Deadline = pick("", "2026-10-17T10:00:00Z", "tomorrow")
		req.BaseJob = pick("", "job-12", "gwjob-x-1")
		reqs = append(reqs, req)
	}
	return reqs
}

// TestParseJobRequestTakesMarshaledBodies pins what the hand path covers:
// every body json.Marshal writes from a client-shaped JobRequest, compact
// or indented, takes it and decodes to the json.Unmarshal value.  A body
// that quietly fell back to encoding/json would still decode right, so only
// this test sees the fast path lost.
func TestParseJobRequestTakesMarshaledBodies(t *testing.T) {
	for i, req := range marshaledRequests(t) {
		compact, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, indented} {
			got, ok := parseJobRequest(body)
			if !ok {
				t.Fatalf("request %d: the hand path refused %s", i, body)
			}
			var want JobRequest
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatal(err)
			}
			if diff := sameRequest(got, want); diff != "" {
				t.Fatalf("request %d: %s\nbody %s", i, diff, body)
			}
		}
	}
}

// TestParseJobRequestFallsBack pins the shapes the hand path leaves to
// encoding/json: those where encoding/json's answer needs more than the
// hand path reads (case folding, last-wins duplicates, nulls, escapes,
// non-ASCII names), and every error.
func TestParseJobRequestFallsBack(t *testing.T) {
	for _, body := range []string{
		``, `null`, `[]`, `{"sinks":[]} x`, `{"sinks":[]}{"sinks":[]}`,
		`{"SINKS":[]}`, `{"sinks":[{"X":1}]}`, `{"other":1}`,
		`{"sinks":[{"x":1,"x":2}]}`, `{"sinks":[],"sinks":[]}`, `{"verify":true,"verify":false}`,
		`{"sinks":[{"x":null}]}`, `{"sinks":[null]}`,
		`{"sinks":[{"name":"a\u0062"}]}`, `{"sinks":[{"name":"é"}]}`, `{"sinks":[{"name":"a` + "\t" + `"}]}`,
		`{"sinks":[{"x":1e999}]}`, `{"sinks":[{"x":01}]}`, `{"sinks":[{"x":.5}]}`, `{"sinks":[{"x":1.}]}`,
		`{"sinks":[{"x":"1"}]}`, `{"sinks":{}}`, `{"verify":"yes"}`, `{"settings":{"routing":"maze"}}`,
		`{"settings":{"unknown":` + strings.Repeat("[", maxSkipDepth) + strings.Repeat("]", maxSkipDepth) + `}}`,
		`{"sinks":[{}],}`, `{"sinks":[{},]}`, `{"sinks":[{}`,
	} {
		if parseOK(body) {
			t.Errorf("the hand path took %q", body)
		}
	}
}

// TestDecodeKeysMatchTags holds the hand path's keys to the json tags of
// JobRequest and Sink: every tagged field has exactly one key, spelled as
// its tag, that fills that field and, alone in a body, takes the hand
// path.  A renamed or added wire field fails here until decode.go knows
// it.
func TestDecodeKeysMatchTags(t *testing.T) {
	check := func(v reflect.Value, keys []string, field func(k int) any, wrap func(member string) string) {
		t.Helper()
		typ := v.Type()
		if len(keys) != typ.NumField() {
			t.Errorf("%s has %d fields, the hand path knows keys %q", typ, typ.NumField(), keys)
		}
		for i := range typ.NumField() {
			tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			var from []string
			for k, key := range keys {
				if reflect.ValueOf(field(k)).Pointer() == v.Field(i).Addr().Pointer() {
					from = append(from, key)
				}
			}
			if len(from) != 1 || from[0] != tag {
				t.Errorf("%s.%s (json %q): the hand path fills it from keys %q", typ, typ.Field(i).Name, tag, from)
			}
			zero, err := json.Marshal(v.Field(i).Interface())
			if err != nil {
				t.Fatal(err)
			}
			if body := wrap(fmt.Sprintf("%q:%s", tag, zero)); !parseOK(body) {
				t.Errorf("%s.%s: the hand path refused %s", typ, typ.Field(i).Name, body)
			}
		}
	}
	var req JobRequest
	check(reflect.ValueOf(&req).Elem(), requestKeys, func(k int) any { return requestField(&req, k) },
		func(member string) string { return "{" + member + "}" })
	var s Sink
	check(reflect.ValueOf(&s).Elem(), sinkKeys, func(k int) any { return sinkField(&s, k) },
		func(member string) string { return `{"sinks":[{` + member + `}]}` })
}

// parseOK reports whether the hand path takes body.
func parseOK(body string) bool {
	_, ok := parseJobRequest([]byte(body))
	return ok
}

// BenchmarkDecodeJobRequest times the hand decoder against json.Unmarshal
// on cache_hits-shaped bodies (the synthetic designs' wire sinks, no other
// field) at 160, 1,024 and 16,384 sinks.
func BenchmarkDecodeJobRequest(b *testing.B) {
	for _, n := range []int{160, 1024, 16384} {
		bm, err := bench.SyntheticSized(n)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(JobRequest{Sinks: SinksFromCTS(bm.Sinks)})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := parseJobRequest(body); !ok {
			b.Fatalf("%d sinks: the hand path refused the body", n)
		}
		for _, dec := range []struct {
			name string
			run  func([]byte) error
		}{
			{"hand", func(data []byte) error { _, err := decodeJobRequest(data); return err }},
			{"encoding_json", func(data []byte) error { var req JobRequest; return json.Unmarshal(data, &req) }},
		} {
			b.Run(fmt.Sprintf("sinks=%d/%s", n, dec.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for b.Loop() {
					if err := dec.run(body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
