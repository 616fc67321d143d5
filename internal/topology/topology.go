// Package topology implements the levelized topology generation of Section
// 4.1.1: a nearest-neighbour graph over the current sub-tree roots with edge
// cost alpha*distance + beta*|delay difference| (equation 4.1), a greedy
// matching that repeatedly pairs the node farthest from the sink centroid
// with its cheapest partner, and seed-node selection (the node with maximum
// latency is carried unpaired into the next level when the count is odd).
//
// Pairing is pluggable through the Matcher interface.  Greedy is the default
// strategy: the paper's matching, accelerated to O(n log n) with the
// internal/spatial nearest-neighbour index and bit-identical to the O(n²)
// reference BruteForce.  Bipartition is an alternative recursive-geometric
// strategy that trades matching optimality for predictable divide-and-conquer
// structure.
package topology

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/spatial"
)

// Item is one candidate sub-tree root at the current level.
type Item struct {
	// Pos is the root location.
	Pos geom.Point
	// Delay is the root-to-sink latency of the sub-tree (its maximum delay).
	Delay float64
}

// Pair is a matched pair of item indices to be merged at this level.
type Pair struct {
	A, B int
}

// Cost is the nearest-neighbour edge cost of equation 4.1.
func Cost(a, b Item, alpha, beta float64) float64 {
	return alpha*a.Pos.Manhattan(b.Pos) + beta*math.Abs(a.Delay-b.Delay)
}

// Matcher computes the matching for one level: the matched pairs and the
// index of the unmatched seed node (-1 when the count is even).  All
// implementations in this package share the seed convention: when the count
// is odd the seed is the maximum-delay item (lowest index on ties), per the
// paper's argument that next-level nodes have larger delays and the seed will
// be easier to balance there.
type Matcher interface {
	Match(items []Item, alpha, beta float64) ([]Pair, int)
}

// Match computes the greedy matching for one level with the default Greedy
// strategy (indexed nearest-neighbour search; see Greedy for the exact
// semantics and determinism guarantees).
func Match(items []Item, alpha, beta float64) ([]Pair, int) {
	return Greedy{}.Match(items, alpha, beta)
}

// seedIndex returns the maximum-delay item, taking the lowest index on exact
// delay ties (the documented deterministic seed rule).
func seedIndex(items []Item) int {
	seed := 0
	for i := 1; i < len(items); i++ {
		if items[i].Delay > items[seed].Delay {
			seed = i
		}
	}
	return seed
}

// centroidOrder returns the unmatched item indices sorted from farthest to
// closest to the centroid of the unmatched items.  Exact distance ties break
// toward the lower index, so the processing order — and with it the whole
// matching — is a pure function of the input (the previous implementation
// left tie order to an unstable sort).
func centroidOrder(items []Item, matched []bool) []int {
	var pts []geom.Point
	order := make([]int, 0, len(items))
	for i, it := range items {
		if !matched[i] {
			pts = append(pts, it.Pos)
			order = append(order, i)
		}
	}
	centroid := geom.Centroid(pts)
	dist := make([]float64, len(items))
	for _, i := range order {
		dist[i] = items[i].Pos.Manhattan(centroid)
	}
	sort.Slice(order, func(x, y int) bool {
		if dist[order[x]] != dist[order[y]] {
			return dist[order[x]] > dist[order[y]]
		}
		return order[x] < order[y]
	})
	return order
}

// BruteForce is the reference greedy matcher with the O(n²) partner scan of
// the original implementation.  Partner ties (equal equation 4.1 cost) break
// toward the lowest index, which the ascending scan yields naturally.  It
// exists as the oracle the indexed Greedy strategy is verified against and
// as the baseline of BenchmarkTopologyScale.
type BruteForce struct{}

// Match implements Matcher.
func (BruteForce) Match(items []Item, alpha, beta float64) ([]Pair, int) {
	return matchGreedy(items, alpha, beta, false)
}

// indexedThreshold is the level size below which Greedy uses the brute-force
// scan: for small levels the O(n²) loop beats building the index, and the
// two produce identical matchings, so the cutover is invisible.  The pure
// break-even sits near 2k items (BENCH_topology.json), but the cutover is
// kept low — the absolute overhead below 2k is microseconds while pairing is
// far from the flow bottleneck, and a low cutover keeps the indexed path
// exercised by realistic-size tests.
const indexedThreshold = 64

// Greedy is the paper's greedy matching backed by the internal/spatial
// nearest-neighbour index: each partner query is a best-first search pruned
// by the bounds cost >= alpha*dist and cost >= beta*|Δdelay|, making a level
// O(n log n) instead of O(n²).  Every floating-point comparison, processing
// order and tie-break matches BruteForce exactly, so the matching — and any
// synthesis built on it — is bit-identical to the reference.
//
// alpha and beta must be non-negative (they are weights); Greedy falls back
// to the brute-force scan when they are not, or when they are NaN, so the
// pruning bounds never see values they do not hold for.
type Greedy struct{}

// Match implements Matcher.
func (Greedy) Match(items []Item, alpha, beta float64) ([]Pair, int) {
	useIndex := len(items) >= indexedThreshold &&
		alpha >= 0 && beta >= 0 && !math.IsNaN(alpha) && !math.IsNaN(beta)
	return matchGreedy(items, alpha, beta, useIndex)
}

// matchGreedy is the shared greedy matching; indexed selects the spatial
// index or the reference scan for the partner search.
func matchGreedy(items []Item, alpha, beta float64, indexed bool) ([]Pair, int) {
	n := len(items)
	if n == 0 {
		return nil, -1
	}
	if n == 1 {
		return nil, 0
	}
	matched := make([]bool, n)
	seed := -1
	if n%2 == 1 {
		seed = seedIndex(items)
		matched[seed] = true
	}

	// Process unmatched items from farthest to closest to their centroid
	// (the paper uses the sink centroid; at level 0 these coincide, and at
	// higher levels the roots stand in for the sinks they cover).
	order := centroidOrder(items, matched)

	var pairs []Pair
	if !indexed {
		for _, i := range order {
			if matched[i] {
				continue
			}
			best, bestCost := -1, math.Inf(1)
			for j := range items {
				if j == i || matched[j] {
					continue
				}
				if c := Cost(items[i], items[j], alpha, beta); c < bestCost {
					best, bestCost = j, c
				}
			}
			if best < 0 {
				break
			}
			matched[i], matched[best] = true, true
			pairs = append(pairs, Pair{A: i, B: best})
		}
		return pairs, seed
	}

	six := make([]spatial.Item, n)
	for i, it := range items {
		six[i] = spatial.Item{Pos: it.Pos, Delay: it.Delay}
	}
	ix := spatial.New(six)
	if seed >= 0 {
		ix.Deactivate(seed)
	}
	for _, i := range order {
		if matched[i] {
			continue
		}
		ix.Deactivate(i) // exclude the query item itself
		best, _ := ix.Nearest(six[i], alpha, beta)
		if best < 0 {
			break
		}
		ix.Deactivate(best)
		matched[i], matched[best] = true, true
		pairs = append(pairs, Pair{A: i, B: best})
	}
	return pairs, seed
}

// bipartitionLeaf is the group size at which Bipartition stops splitting and
// matches greedily within the group.
const bipartitionLeaf = 8

// Bipartition is a recursive-geometric matching strategy: the level is split
// at the coordinate median of its wider bounding-box dimension until groups
// of at most bipartitionLeaf items remain, which are then matched greedily
// within the group.  Splits keep both halves even-sized so every pair stays
// inside one group.  Compared to Greedy it does not minimize the equation
// 4.1 cost globally, but it is O(n log n) with no index, produces spatially
// balanced recursion trees, and gives scenario diversity for topology
// experiments (pkg/cts exposes it as a strategy option).
type Bipartition struct{}

// Match implements Matcher.
func (Bipartition) Match(items []Item, alpha, beta float64) ([]Pair, int) {
	n := len(items)
	if n == 0 {
		return nil, -1
	}
	if n == 1 {
		return nil, 0
	}
	seed := -1
	group := make([]int, 0, n)
	if n%2 == 1 {
		seed = seedIndex(items)
	}
	for i := 0; i < n; i++ {
		if i != seed {
			group = append(group, i)
		}
	}
	var pairs []Pair
	bipartition(items, group, alpha, beta, &pairs)
	return pairs, seed
}

// bipartition recursively splits the even-sized group and appends its pairs.
func bipartition(items []Item, group []int, alpha, beta float64, pairs *[]Pair) {
	if len(group) <= bipartitionLeaf {
		matchGroup(items, group, alpha, beta, pairs)
		return
	}
	var pts []geom.Point
	for _, i := range group {
		pts = append(pts, items[i].Pos)
	}
	box := geom.BoundingBox(pts)
	byX := box.Width() >= box.Height()
	sort.Slice(group, func(a, b int) bool {
		var ca, cb float64
		if byX {
			ca, cb = items[group[a]].Pos.X, items[group[b]].Pos.X
		} else {
			ca, cb = items[group[a]].Pos.Y, items[group[b]].Pos.Y
		}
		if ca != cb {
			return ca < cb
		}
		return group[a] < group[b]
	})
	half := len(group) / 2
	if half%2 == 1 {
		half-- // keep both halves even so every item pairs within its half
	}
	bipartition(items, group[:half], alpha, beta, pairs)
	bipartition(items, group[half:], alpha, beta, pairs)
}

// matchGroup greedily matches one even-sized group by running the shared
// brute-force matching on the sub-instance and remapping the pairs back.
// The ascending-index remap preserves the package-wide tie-break rules
// (lowest original index wins cost and distance ties).
func matchGroup(items []Item, group []int, alpha, beta float64, pairs *[]Pair) {
	local := append([]int(nil), group...)
	sort.Ints(local)
	sub := make([]Item, len(local))
	for k, i := range local {
		sub[k] = items[i]
	}
	subPairs, _ := matchGreedy(sub, alpha, beta, false)
	for _, p := range subPairs {
		*pairs = append(*pairs, Pair{A: local[p.A], B: local[p.B]})
	}
}

// Levels estimates the number of levels a levelized bottom-up merge of n
// sinks produces (ceil(log2 n)); it is used for reporting only.
func Levels(n int) int {
	if n <= 1 {
		return 0
	}
	levels := 0
	for count := n; count > 1; count = (count + 1) / 2 {
		levels++
	}
	return levels
}
