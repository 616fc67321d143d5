package cts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
)

// SubtreeKey returns the Merkle-style content address of a merged sub-tree:
// a hex SHA-256 over the effective settings, the sub-tree's exact sink
// subset, and the keys of the two child sub-trees that were merged to form
// it.  Leaves (single sinks) have no child keys.
//
// The sink subset is canonicalized before hashing — sorted by name with the
// exact position/capacitance bits as tie-breakers, into a private copy — so
// the key is invariant under reordering and input-slice aliasing, and
// distinct under any coordinate, capacitance or settings perturbation (every
// float is hashed at full precision, as in CanonicalKey).  Child keys are
// hashed in merge order, which the deterministic topology stage fixes.
//
// Two sub-trees share a key exactly when the default (deterministic) merge
// pipeline would produce byte-identical trees for them, which is what makes
// the key usable as a subtree-cache address.  Like CanonicalKey, the key
// assumes a fixed technology and characterization library: a SubtreeCache
// must not be shared across different ones.  SubtreeKey panics on the
// settings CanonicalKey panics on.
func SubtreeKey(s Settings, sinks []Sink, childKeys ...string) string {
	sorted := make([]Sink, len(sinks))
	copy(sorted, sinks)
	sort.Slice(sorted, func(i, j int) bool { return sinkLess(sorted[i], sorted[j]) })
	return subtreeKeySorted(subtreeKeyPrefix(s), sorted, childKeys...)
}

// subtreeKeyPrefix serializes the settings-dependent hash prefix of
// SubtreeKey.  It is a pure function of the settings, so a Flow computes it
// once and reuses it across the tens of thousands of per-merge key
// computations of a run — the JSON marshal is reflective and would otherwise
// dominate the keying cost.
func subtreeKeyPrefix(s Settings) []byte {
	sj := settingsJSON(s)
	p := make([]byte, 0, len("cts-subtree-v1")+8+len(sj))
	p = append(p, "cts-subtree-v1"...)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(sj)))
	p = append(p, buf[:]...)
	return append(p, sj...)
}

// subtreeKeySorted is SubtreeKey's hashing core.  sorted must already be in
// sinkLess order: the incremental level loop maintains every subset sorted
// (leaves trivially, merges via mergeSortedSinks), which turns the per-merge
// O(m log m) canonicalization sort into an O(m) merge.
func subtreeKeySorted(prefix []byte, sorted []Sink, childKeys ...string) string {
	h := sha256.New()
	h.Write(prefix)
	var buf [8]byte
	writeF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(sorted)))
	h.Write(buf[:])
	for _, sk := range sorted {
		// Length-prefixed, not terminated, for the same aliasing reason as
		// CanonicalKey.
		binary.LittleEndian.PutUint64(buf[:], uint64(len(sk.Name)))
		h.Write(buf[:])
		h.Write([]byte(sk.Name))
		writeF(sk.Pos.X)
		writeF(sk.Pos.Y)
		writeF(sk.Cap)
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(childKeys)))
	h.Write(buf[:])
	for _, ck := range childKeys {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ck)))
		h.Write(buf[:])
		h.Write([]byte(ck))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// leafKey returns a sink's leaf SubtreeKey and its one-sink subset.
func (f *Flow) leafKey(s Sink) (string, []Sink) {
	sinks := []Sink{s}
	return subtreeKeySorted(f.subtreePrefix, sinks), sinks
}

// mergeKey returns the SubtreeKey of the merge of a and b, over their keys,
// and the sorted sink subset it covers.
func (f *Flow) mergeKey(a, b levelNode) (string, []Sink) {
	sinks := mergeSortedSinks(a.sinks, b.sinks)
	return subtreeKeySorted(f.subtreePrefix, sinks, a.key, b.key), sinks
}

// mergeSortedSinks merges two sinkLess-sorted slices into a fresh sorted
// slice.  Sink names are unique within a run (ValidateSinks), so ties cannot
// occur and the merge is the exact order sort.Slice would produce on the
// concatenation.
func mergeSortedSinks(a, b []Sink) []Sink {
	out := make([]Sink, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if sinkLess(a[i], b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sinkLess is a total order on sinks: by name, then by the exact bit
// patterns of position and capacitance (bit comparison keeps the order total
// even for values float comparison cannot order).
func sinkLess(a, b Sink) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if ax, bx := math.Float64bits(a.Pos.X), math.Float64bits(b.Pos.X); ax != bx {
		return ax < bx
	}
	if ay, by := math.Float64bits(a.Pos.Y), math.Float64bits(b.Pos.Y); ay != by {
		return ay < by
	}
	return math.Float64bits(a.Cap) < math.Float64bits(b.Cap)
}
