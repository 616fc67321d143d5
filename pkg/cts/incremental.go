package cts

import (
	"context"
	"errors"
	"math"
	"sort"
)

// This file is the incremental (ECO-style) re-synthesis path.  The levelized
// bottom-up flow makes incrementality a cache problem rather than a patching
// problem: pairing is deterministic and cheap (O(n log n)), so RunIncremental
// replays the whole topology and intercepts each pair-merge with a lookup by
// its Merkle key (subtreekey.go).  Every sub-tree untouched by the sink-set
// change keys identically to the base run and is decoded from the cache; only
// merges in the affected region — where a sink moved, appeared or vanished,
// plus the merge spine above it — miss and are actually routed.  Because a
// cached value is the byte-exact tree the original merge produced and a
// merge is a pure function of its two inputs, the delta result is
// bit-identical to a from-scratch run by construction: same CanonicalKey,
// same tree bytes, so ctsd's result caching stays sound.

// IncrementalStats reports subtree-cache reuse for a RunIncremental run.
type IncrementalStats struct {
	// ReusedSubtrees counts merges served from the subtree cache.  Each hit
	// covers its entire sub-tree, so a handful of hits near the root can
	// stand in for almost all of the base run's routing work.
	ReusedSubtrees int `json:"reusedSubtrees"`
	// RecomputedMerges counts merges that were actually routed.
	RecomputedMerges int `json:"recomputedMerges"`
	// Diff summarizes the sink-set change against the base result, when a
	// base was provided.
	Diff *SinkDiff `json:"diff,omitempty"`
}

// SinkDiff summarizes how one sink set differs from another.
type SinkDiff struct {
	// Added counts sinks present only in the new set.
	Added int `json:"added"`
	// Removed counts sinks present only in the old set.
	Removed int `json:"removed"`
	// Moved counts sinks whose name appears in both sets but whose position
	// or capacitance differs (at exact float64 bits).
	Moved int `json:"moved"`
}

// RunIncremental synthesizes the sinks like Run, but consults the flow's
// subtree cache (WithSubtreeCache, required) before routing each merge, so
// sub-trees unchanged since earlier runs are reused instead of re-routed.
// The result is bit-identical to what Run would produce for the same sinks.
//
// base, when non-nil, is a Result of a previous run of a flow with the same
// settings; its sub-trees are harvested into the cache first (a no-op when
// they are already present) and Result.Incremental.Diff reports the sink-set
// difference.  A nil base is valid and simply runs against whatever the
// cache already holds — the mode a server uses when jobs share one cache.
//
// Reuse requires stable sink names: a sub-tree's key covers its sinks'
// names, positions and capacitances, so renaming (or relying on positional
// sink_<n> defaults while inserting mid-slice) shifts every key.
func (f *Flow) RunIncremental(ctx context.Context, base *Result, sinks []Sink) (*Result, error) {
	if f.cfg.subtreeCache == nil {
		return nil, errors.New("cts: RunIncremental requires a subtree cache (WithSubtreeCache)")
	}
	if base != nil {
		if base.Settings != f.cfg.settings {
			return nil, errors.New("cts: base result was synthesized under different settings")
		}
		f.harvestBase(base)
	}
	res, err := f.run(ctx, "", sinks, true)
	if err != nil {
		return nil, err
	}
	if base != nil && base.effSinks != nil {
		d := DiffSinks(base.effSinks, res.effSinks)
		res.Incremental.Diff = &d
	}
	return res, nil
}

// harvestBase puts every sub-tree the base run keyed into the cache, under
// the key the base run gave it.  It lets an incremental run start from a
// base synthesized before the cache existed (or after the cache lost those
// entries); a key the cache already holds only refreshes its recency.
func (f *Flow) harvestBase(base *Result) {
	for _, e := range base.subtrees {
		f.cfg.subtreeCache.Put(e.key, e.value)
	}
}

// DiffSinks summarizes how the new sink set differs from the old one.  Both
// slices are read-only; names are matched exactly and positions and
// capacitances are compared at exact float64 bits, mirroring the leaf key.
func DiffSinks(old, new []Sink) SinkDiff {
	so := make([]Sink, len(old))
	copy(so, old)
	sn := make([]Sink, len(new))
	copy(sn, new)
	sort.Slice(so, func(i, j int) bool { return so[i].Name < so[j].Name })
	sort.Slice(sn, func(i, j int) bool { return sn[i].Name < sn[j].Name })
	var d SinkDiff
	i, j := 0, 0
	for i < len(so) && j < len(sn) {
		switch {
		case so[i].Name < sn[j].Name:
			d.Removed++
			i++
		case so[i].Name > sn[j].Name:
			d.Added++
			j++
		default:
			if !sinkSameBits(so[i], sn[j]) {
				d.Moved++
			}
			i++
			j++
		}
	}
	d.Removed += len(so) - i
	d.Added += len(sn) - j
	return d
}

// sinkSameBits reports whether two same-named sinks are geometrically
// identical at exact float64 bits (the equality the leaf key hashes by).
func sinkSameBits(a, b Sink) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
		math.Float64bits(a.Cap) == math.Float64bits(b.Cap)
}
