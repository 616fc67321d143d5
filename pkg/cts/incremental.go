package cts

import (
	"context"
	"errors"
	"math"
	"sort"

	"repro/internal/mergeroute"
)

// This file is the incremental (ECO-style) re-synthesis path.  The levelized
// bottom-up flow makes incrementality a cache problem rather than a patching
// problem: pairing is deterministic and cheap (O(n log n)), so RunIncremental
// replays the whole topology and intercepts each pair-merge with a lookup by
// its Merkle SubtreeKey.  Every sub-tree untouched by the sink-set change
// keys identically to the base run and is decoded from the cache; only
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

// subtreeMeta rides alongside a sub-tree through the level loop: its Merkle
// key and the effective (defaulted) sink subset it covers, kept in sinkLess
// order so each merge canonicalizes its subset with an O(m) sorted merge
// instead of a fresh sort.
type subtreeMeta struct {
	key   string
	sinks []Sink
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

// mergeLevelCached is the cache-aware counterpart of mergeLevel: it computes
// each pair's SubtreeKey, serves hits from the subtree cache (when lookup is
// set), routes the misses through the ordinary mergeLevel fan-out, and
// writes every routed merge back through.  Hit or miss, the per-pair results
// are bit-identical to mergeLevel's, so the level stays deterministic.  The
// reused return counts the pairs served from the cache, so the caller can
// report per-level hit counts on its events.
func (f *Flow) mergeLevelCached(ctx context.Context, merger MergeRouter, current []*mergeroute.Subtree, pairs []Pairing, track []subtreeMeta, lookup bool, stats *IncrementalStats) ([]*mergeroute.Subtree, []subtreeMeta, int, int, error) {
	cache := f.cfg.subtreeCache
	merged := make([]*mergeroute.Subtree, len(pairs))
	mtrack := make([]subtreeMeta, len(pairs))
	flips, reused := 0, 0
	var missPairs []Pairing
	var missIdx []int
	for i, p := range pairs {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, 0, err
		}
		a, b := track[p.A], track[p.B]
		subset := mergeSortedSinks(a.sinks, b.sinks)
		mtrack[i] = subtreeMeta{key: subtreeKeySorted(f.subtreePrefix, subset, a.key, b.key), sinks: subset}
		if lookup {
			if value, ok := cache.Get(mtrack[i].key); ok {
				if st, fl, err := mergeroute.DecodeSubtree(value); err == nil {
					merged[i] = st
					flips += fl
					reused++
					stats.ReusedSubtrees++
					continue
				}
				// An undecodable value is just a miss: the merge below
				// recomputes the sub-tree, so a corrupt cache can cost time
				// but never correctness.  The Put that follows does not
				// replace the bad entry (MemorySubtreeCache only refreshes a
				// resident key), so every later run recomputes this merge
				// too: a cache fed from outside should check values before
				// keeping them.
			}
		}
		missPairs = append(missPairs, p)
		missIdx = append(missIdx, i)
	}
	if len(missPairs) > 0 {
		computed, perFlips, err := f.mergeLevel(ctx, merger, current, missPairs)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		for k, idx := range missIdx {
			merged[idx] = computed[k]
			flips += perFlips[k]
			cache.Put(mtrack[idx].key, mergeroute.EncodeSubtree(computed[k], perFlips[k]))
		}
		if stats != nil {
			stats.RecomputedMerges += len(missPairs)
		}
	}
	return merged, mtrack, flips, reused, nil
}

// harvestEntry is one memoized merge of a base result: its Merkle key and
// the sub-tree node it addresses (encoded lazily, only when the cache is
// missing the key).
type harvestEntry struct {
	key   string
	node  *mergeroute.Subtree
	flips int
}

// harvestBase inserts the base result's sub-trees into the cache under
// their SubtreeKeys when absent.  It lets an incremental run start from a
// base synthesized before the cache existed (or after the cache lost those
// entries).  The Merkle walk — the O(n·depth) hashing pass — runs once per
// base and is memoized on the Result; subsequent harvests are a cheap
// key-presence sweep.
func (f *Flow) harvestBase(base *Result) {
	if base.rootSubtree == nil {
		return
	}
	base.harvestOnce.Do(func() {
		var walk func(s *mergeroute.Subtree) (string, []Sink)
		walk = func(s *mergeroute.Subtree) (string, []Sink) {
			if s.Children[0] == nil || s.Children[1] == nil {
				es := Sink{Name: s.Root.Name, Pos: s.Root.Pos, Cap: s.Root.SinkCap}
				subset := []Sink{es}
				return subtreeKeySorted(f.subtreePrefix, subset), subset
			}
			ka, sa := walk(s.Children[0])
			kb, sb := walk(s.Children[1])
			subset := mergeSortedSinks(sa, sb)
			key := subtreeKeySorted(f.subtreePrefix, subset, ka, kb)
			fl := 0
			if s.Flipped {
				fl = 1
			}
			base.harvestKeys = append(base.harvestKeys, harvestEntry{key: key, node: s, flips: fl})
			return key, subset
		}
		walk(base.rootSubtree)
	})
	cache := f.cfg.subtreeCache
	for _, e := range base.harvestKeys {
		if _, ok := cache.Get(e.key); !ok {
			cache.Put(e.key, mergeroute.EncodeSubtree(e.node, e.flips))
		}
	}
}

// DiffSinks summarizes how the new sink set differs from the old one.  Both
// slices are read-only; names are matched exactly and positions and
// capacitances are compared at exact float64 bits, mirroring SubtreeKey.
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
// identical at exact float64 bits (the equality SubtreeKey hashes by).
func sinkSameBits(a, b Sink) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
		math.Float64bits(a.Cap) == math.Float64bits(b.Cap)
}
