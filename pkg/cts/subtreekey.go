package cts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// A subtree-cache key is a Merkle-style content address, a hex SHA-256
// created only by the level loop: a leaf's key hashes the settings prefix
// and its sink (name, then position and capacitance at full float64
// precision, as in CanonicalKey); a merge's key hashes the prefix and its
// two inputs' keys in merge order.  The level loop merges two inputs
// deterministically, so by induction two merges that share a key produce
// byte-identical sub-trees, whatever H-structure correction does to the
// merged skeleton.  A distinct tag byte keeps leaf and merge messages
// apart.  Like CanonicalKey, the keys assume a fixed technology and
// characterization library: a SubtreeCache must not be shared across
// different ones.

// subtreeKeyPrefix serializes the settings-dependent hash prefix of every
// subtree key.  It is a pure function of the settings, so a Flow computes
// it once rather than re-marshaling the settings for every key.  It panics
// on the settings CanonicalKey panics on.  Its version stamp changes with
// the subtree codec's magic (internal/mergeroute/codec.go).
func subtreeKeyPrefix(s Settings) []byte {
	sj := settingsJSON(s)
	p := make([]byte, 0, len("cts-subtree-v2")+8+len(sj))
	p = append(p, "cts-subtree-v2"...)
	p = binary.LittleEndian.AppendUint64(p, uint64(len(sj)))
	return append(p, sj...)
}

// leafKey returns the key of the one-sink sub-tree s.
func leafKey(prefix []byte, s Sink) string {
	b := append(append(make([]byte, 0, len(prefix)+33+len(s.Name)), prefix...), 'L')
	// Length-prefixed, not terminated, for the same aliasing reason as
	// CanonicalKey.
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s.Name)))
	b = append(b, s.Name...)
	for _, v := range []float64{s.Pos.X, s.Pos.Y, s.Cap} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return hashKey(b)
}

// mergeKey returns the key of the merge of the sub-trees keyed a and b, in
// that order.
func mergeKey(prefix []byte, a, b string) string {
	m := append(append(make([]byte, 0, len(prefix)+17+len(a)+len(b)), prefix...), 'M')
	for _, k := range []string{a, b} {
		m = binary.LittleEndian.AppendUint64(m, uint64(len(k)))
		m = append(m, k...)
	}
	return hashKey(m)
}

func hashKey(msg []byte) string {
	sum := sha256.Sum256(msg)
	return hex.EncodeToString(sum[:])
}
