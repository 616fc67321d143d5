package cts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"time"
)

// WireEvent is the JSON wire form of an observer Event, used by service
// front-ends that stream progress to remote clients (repro/pkg/ctsserver
// sends them as Server-Sent Events).  Elapsed is carried in milliseconds and
// the run error as a plain string so the type round-trips through JSON.
type WireEvent struct {
	// Kind is the EventKind token ("flow-start", "stage-end", …).
	Kind string `json:"kind"`
	// Item labels the batch item the event belongs to, when batching.
	Item string `json:"item,omitempty"`
	// Stage names the pipeline stage for stage-start/stage-end events.
	Stage string `json:"stage,omitempty"`
	// Level is the 1-based topology level, 0 outside the level loop.
	Level int `json:"level,omitempty"`
	// Sinks is the run's sink count (flow-start events).
	Sinks int `json:"sinks,omitempty"`
	// Subtrees is the number of sub-tree roots remaining after the level.
	Subtrees int `json:"subtrees,omitempty"`
	// Pairs is the number of pairs merged at the level.
	Pairs int `json:"pairs,omitempty"`
	// Flips counts H-structure correction re-pairings at the level.
	Flips int `json:"flips,omitempty"`
	// Reused counts the level's merges served from the subtree cache.
	Reused int `json:"reused,omitempty"`
	// ElapsedMs is the event's elapsed wall-clock time in milliseconds.
	ElapsedMs float64 `json:"elapsedMs,omitempty"`
	// Error carries the run error of a terminal flow-end event.
	Error string `json:"error,omitempty"`
}

// Wire converts the event to its JSON wire form.
func (e Event) Wire() WireEvent {
	w := WireEvent{
		Kind:      e.Kind.String(),
		Item:      e.Item,
		Stage:     e.Stage,
		Level:     e.Level,
		Sinks:     e.Sinks,
		Subtrees:  e.Subtrees,
		Pairs:     e.Pairs,
		Flips:     e.Flips,
		Reused:    e.Reused,
		ElapsedMs: float64(e.Elapsed) / float64(time.Millisecond),
	}
	if e.Err != nil {
		w.Error = e.Err.Error()
	}
	return w
}

// CanonicalKey returns a stable, content-addressed identity for a synthesis
// request: a hex SHA-256 over the effective settings and the exact sink set
// (names, positions and capacitances at full float64 precision, in order).
// Two requests share a key exactly when a deterministic Flow would produce
// the identical Result for them, which is what makes the key usable as a
// result-cache address.  Pass effective settings (Settings.Effective, or
// what a Flow reports in Flow.Settings()), so that a request spelling out
// the defaults and one leaving them zero hash identically.  Settings that
// Effective rejects as non-finite have no key: CanonicalKey panics on them.
func CanonicalKey(s Settings, sinks []Sink) string {
	h := sha256.New()
	h.Write(settingsJSON(s))
	var buf [8]byte
	writeF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(sinks)))
	h.Write(buf[:])
	for _, sk := range sinks {
		// Names are length-prefixed, not terminated: a name is arbitrary
		// bytes (JSON permits NUL), and a terminator could be forged by the
		// following float bytes, aliasing two different requests.
		binary.LittleEndian.PutUint64(buf[:], uint64(len(sk.Name)))
		h.Write(buf[:])
		h.Write([]byte(sk.Name))
		writeF(sk.Pos.X)
		writeF(sk.Pos.Y)
		writeF(sk.Cap)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// settingsJSON is the settings bytes both cache keys hash.  Struct fields
// marshal in declaration order, so it is a deterministic byte sequence.
// json.Marshal fails only on a non-finite float, which Effective rejects, so
// a failure is a caller keying settings it never validated, and would
// otherwise give every such request one shared key.
func settingsJSON(s Settings) []byte {
	sj, err := json.Marshal(s)
	if err != nil {
		panic("cts: cache key over settings that Settings.Effective rejects: " + err.Error())
	}
	return sj
}
