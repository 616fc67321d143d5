package mergeroute

import (
	"sync"
	"sync/atomic"
)

// scratch is the reusable per-Merge workspace of the maze router: expansion
// state arrays, the priority queue, visited marks, the corridor mask of the
// hierarchical path and the reconstructed path buffers.  A Merger keeps a
// sync.Pool of these so steady-state Merge calls allocate nothing for the
// maze itself (only the nodes that escape into the returned tree are fresh).
//
// Staleness is handled with generation stamps instead of clearing: every
// expansion bumps gen, and a cell or visited mark is only valid when its
// stamp equals the expansion's generation.  That keeps reuse O(visited
// cells) instead of O(grid cells) — the point of the hierarchical path is
// precisely that it visits far fewer cells than the grid holds.
type scratch struct {
	// gen is the monotonically increasing expansion generation; the zero
	// value of a freshly grown state array is always stale because the first
	// expansion uses gen >= 1.
	gen uint64
	// statesA/statesB hold the two expansions of one pass (both alive at
	// once for the merge-cell scan): the coarse pass, then the search that
	// stamps over it.
	statesA, statesB []cellState
	// visited is the generation-stamped closed set of the running expansion.
	visited []uint64
	// pq is the reusable best-first frontier.
	pq expandQueue
	// corridor is the coarse-cell corridor mask of the hierarchical path.
	corridor []bool
	// pathA/pathB and rev back the path reconstruction.
	pathA, pathB, rev []pathNode
}

// ensureStates returns a state slice with at least n valid entries; grown
// slices start at generation zero, which is stale by construction.
func ensureStates(s []cellState, n int) []cellState {
	if cap(s) < n {
		return make([]cellState, n)
	}
	return s[:n]
}

// ensureVisited returns a visited slice with at least n stale entries.
func ensureVisited(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// ensureCorridor returns a cleared corridor mask of n cells.  The mask is a
// plain bool slice (no generations): the coarse grid is a factor² smaller
// than the full one, so the clear is cheap relative to the expansions.
func ensureCorridor(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// arenaGets and arenaAllocs count workspace acquisitions and the subset that
// had to allocate a fresh scratch (pool miss).  gets − allocs is the number of
// recycled workspaces — the arena's whole reason to exist — so the service
// metrics layer exports both via ArenaStats.  The counters are process-wide
// like the pool itself.
var arenaGets, arenaAllocs atomic.Uint64

// ArenaStats reports the scratch arena's lifetime counters: total workspace
// acquisitions and how many of them allocated instead of recycling.
func ArenaStats() (gets, allocs uint64) {
	return arenaGets.Load(), arenaAllocs.Load()
}

// cellsExpanded counts the grid cells closed by maze expansions (heap pops
// that were not stale), process-wide.  Each expansion adds its count once,
// on return, so the relaxation loop itself touches no shared state.
var cellsExpanded atomic.Uint64

// WorkStats reports the merge router's lifetime work counter: grid cells
// expanded by the maze search, summed over every merge in the process.  The
// search is deterministic, so a given set of merges always expands the same
// number of cells — a noise-free measure of routing work.
func WorkStats() (cells uint64) {
	return cellsExpanded.Load()
}

// scratchPool hands out workspaces; see Merger.getScratch.
var scratchPool = sync.Pool{New: func() interface{} {
	arenaAllocs.Add(1)
	return new(scratch)
}}

// getScratch acquires a workspace for one Merge call.
func getScratch() *scratch {
	arenaGets.Add(1)
	return scratchPool.Get().(*scratch)
}

// putScratch returns the workspace.  The contents stay allocated (that is
// the point); generation stamps make any stale state invisible to the next
// user.
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// expandItem is a priority-queue entry of the maze expansion.
type expandItem struct {
	idx int
	est float64
}

// expandQueue is a binary min-heap over est.  It replicates the sift-up /
// sift-down order of container/heap exactly — the expansion's pop order for
// equal priorities is part of the bit-identical determinism contract — but
// without the interface boxing, which allocated on every push.
type expandQueue []expandItem

// reset empties the queue, keeping its backing array.
func (q *expandQueue) reset() { *q = (*q)[:0] }

// push inserts an item (container/heap's Push + up).
func (q *expandQueue) push(it expandItem) {
	*q = append(*q, it)
	h := *q
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].est < h[i].est) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the minimum item (container/heap's Pop: swap the
// root with the last element, sift down over the shortened heap).
func (q *expandQueue) pop() expandItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].est < h[j1].est {
			j = j2
		}
		if !(h[j].est < h[i].est) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}
