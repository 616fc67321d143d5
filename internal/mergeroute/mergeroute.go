// Package mergeroute implements the paper's merge-routing algorithm (Section
// 4.2), which replaces the classical merge-segment computation: when two
// sub-trees are merged, buffered routing paths are constructed from both
// sub-tree roots simultaneously and a merge node is chosen and refined so
// that the delays of the two sides balance while every wire segment honours
// the slew constraint.
//
// The three stages are:
//
//   - Balance (4.2.1): if the delay difference between the two sub-trees
//     exceeds what the routing region can absorb without detours, the faster
//     sub-tree is wire-snaked with alternating wire segments and buffers
//     until the remaining difference is routable.
//
//   - Route (4.2.2): bi-directional maze expansion over a dynamically sized
//     routing grid.  Each expansion step extends the open wire segment of a
//     path; the delay/slew library is consulted with the driving buffer's
//     input slew assumed equal to the slew target, and when no library buffer
//     could keep the segment within the target, a buffer is inserted using
//     the intelligent sizing rule (evaluate all types at the current and the
//     previous expansion grid and keep the placement whose slew is closest to
//     the limit without exceeding it).  The grid cell with the minimum delay
//     difference between the two expansions becomes the tentative merge node.
//
//   - Binary search (4.2.3): the merge node slides along the segment between
//     the last fixed nodes of the two paths, re-evaluating the merged timing
//     with the library until the delay difference converges.
package mergeroute

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/charlib"
	"repro/internal/clocktree"
	"repro/internal/geom"
	"repro/internal/tech"
)

// Subtree is the synthesis-time view of a partially built clock tree: its
// root node (a sink at level 0, otherwise a buffered merge node), the delay
// range from the root's input pin to its sinks (computed with the library,
// assuming the slew target as the input slew), and the capacitance the root
// presents to its future driver.
type Subtree struct {
	// Root is the top node of the sub-tree.
	Root *clocktree.Node
	// MinDelay and MaxDelay bound the root-to-sink delays in ps.
	MinDelay, MaxDelay float64
	// LoadCap is the capacitance seen at the root's input in fF.
	LoadCap float64
	// Children are the two sub-trees that were merged to create this one
	// (nil for sinks).
	Children [2]*Subtree
}

// Skew returns the internal skew of the sub-tree.
func (s *Subtree) Skew() float64 { return s.MaxDelay - s.MinDelay }

// Pos returns the sub-tree root position.
func (s *Subtree) Pos() geom.Point { return s.Root.Pos }

// SinkSubtree wraps a clock sink as a level-0 sub-tree.
func SinkSubtree(name string, pos geom.Point, cap float64) *Subtree {
	return &Subtree{
		Root:    &clocktree.Node{Name: name, Kind: clocktree.KindSink, Pos: pos, SinkCap: cap},
		LoadCap: cap,
	}
}

// Config controls the merge-routing engine.
type Config struct {
	// Lib is the delay/slew library used for all timing lookups.
	Lib *charlib.Library
	// SlewTarget is the synthesis slew target in ps (the paper uses 80 ps
	// against a 100 ps limit, leaving a margin).
	SlewTarget float64
	// GridSize is the initial number of routing grid cells per dimension of
	// the bounding box (R in Section 4.2.2, default 45).
	GridSize int
	// MaxGridSize caps the dynamically grown grid (default 120).
	MaxGridSize int
	// Hierarchical selects corridor routing: the best-first expansion first
	// runs on a grid coarsened by coarsenFactor, the coarse paths from both
	// roots to the chosen coarse merge cell are dilated into a corridor, and
	// the full-resolution expansion is restricted to corridor cells.  Grids
	// below hierMinCells, and corridor searches that fail to produce a
	// common merge cell, fall back to the flat expansion, so the routing
	// always succeeds wherever flat routing would.
	Hierarchical bool
}

// binarySearchIters bounds the merge-point refinement.
const binarySearchIters = 24

// coarsenFactor is the grid coarsening ratio of the hierarchical path: one
// coarse cell covers coarsenFactor² full cells.
const coarsenFactor = 4

// hierMinCells is the full-grid size below which the hierarchical path is
// not worth its two extra coarse expansions and flat routing is used
// directly.
const hierMinCells = 2048

func (c Config) withDefaults() Config {
	if c.SlewTarget <= 0 {
		c.SlewTarget = 80
	}
	if c.GridSize <= 0 {
		c.GridSize = 45
	}
	if c.MaxGridSize <= 0 {
		c.MaxGridSize = 120
	}
	return c
}

// Merger performs merge-routing for one synthesis run.  A Merger is safe for
// concurrent Merge calls on disjoint sub-tree pairs: its only mutable state is
// the per-load memo cache, and the cached values are pure functions of the
// load capacitance, so concurrent and sequential runs see identical numbers.
type Merger struct {
	tech *tech.Technology
	cfg  Config
	// maxDrivable caches, per load capacitance, the longest wire any library
	// buffer can drive under the slew target.
	maxDrivable drivableCache
}

// drivableCache is the per-load-capacitance memo of the longest drivable
// wire length.  The maze expansion consults it once per seed and once per
// buffer placement, never per relaxation, so one lock is enough.
type drivableCache struct {
	mu sync.Mutex
	m  map[float64]float64 // guarded by mu
}

func (c *drivableCache) get(loadCap float64) (float64, bool) {
	c.mu.Lock()
	v, ok := c.m[loadCap]
	c.mu.Unlock()
	return v, ok
}

func (c *drivableCache) put(loadCap, v float64) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[float64]float64{}
	}
	c.m[loadCap] = v
	c.mu.Unlock()
}

// New returns a merger bound to the technology and configuration.
func New(t *tech.Technology, cfg Config) (*Merger, error) {
	cfg = cfg.withDefaults()
	if cfg.Lib == nil {
		return nil, errors.New("mergeroute: configuration has no delay/slew library")
	}
	return &Merger{tech: t, cfg: cfg}, nil
}

// maxDrivableLen returns the longest wire any library buffer can drive into
// the given load while keeping the far-end slew at the target, memoized per
// load capacitance.  The value depends only on loadCap, so a racing
// re-computation stores the same number and the cache stays deterministic.
func (m *Merger) maxDrivableLen(loadCap float64) float64 {
	if v, ok := m.maxDrivable.get(loadCap); ok {
		return v
	}
	best := 0.0
	for _, b := range m.tech.Buffers {
		if l := m.cfg.Lib.MaxWireLength(b, loadCap, m.cfg.SlewTarget, m.cfg.SlewTarget); l > best {
			best = l
		}
	}
	if best < 10 {
		best = 10
	}
	m.maxDrivable.put(loadCap, best)
	return best
}

// pathNode is one placed node (buffer or terminal) on a routed path, ordered
// from the sub-tree root outwards (towards the future merge node).
type pathNode struct {
	pos     geom.Point
	buffer  *tech.Buffer // nil only for the sub-tree root itself
	node    *clocktree.Node
	loadCap float64 // capacitance this node presents to its driver
	downMin float64 // delay from this node's input pin to the sub-tree sinks
	downMax float64
}

// Merge runs the three merge-routing stages on two sub-trees and returns the
// merged sub-tree rooted at a buffered merge node.  It attaches the inputs'
// root nodes below the new merge node (their parent link and wire length)
// and changes nothing else in the inputs, so a caller that discards the
// merge undoes it by restoring those two attachments.
//
// The context is checked between stages and periodically inside the maze
// expansion, so cancelling it aborts a long merge promptly with the context's
// error.  Concurrent Merge calls on disjoint sub-tree pairs are safe.
func (m *Merger) Merge(ctx context.Context, a, b *Subtree) (*Subtree, error) {
	if a == nil || b == nil {
		return nil, errors.New("mergeroute: nil sub-tree")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Work on copies: balance re-roots a snaked side, and the inputs'
	// skeletons must stay as they are.
	wa, wb := *a, *b

	// Stage 1: balance.
	m.balance(&wa, &wb)

	// Stage 2: bi-directional maze routing.  The expansion state lives in a
	// pooled scratch arena: the paths it returns are only read by finalize
	// below, so the workspace can go back to the pool when Merge returns.
	sc := getScratch()
	defer putScratch(sc)
	pathA, pathB, err := m.route(ctx, &wa, &wb, sc)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 3: binary search refinement of the merge point between the last
	// fixed nodes, then assembly of the tree structure.
	merged, err := m.finalize(&wa, &wb, pathA, pathB)
	if err != nil {
		return nil, err
	}
	merged.Children = [2]*Subtree{a, b}
	return merged, nil
}

// ---------------------------------------------------------------------------
// Stage 1: balance
// ---------------------------------------------------------------------------

// balance pre-equalizes the two sub-trees' delays with wire snaking when the
// routing region cannot absorb the difference (Section 4.2.1).
func (m *Merger) balance(a, b *Subtree) {
	dist := a.Pos().Manhattan(b.Pos())
	budget := m.estimatePathDelay(dist, minFloat(a.LoadCap, b.LoadCap))

	for i := 0; i < 64; i++ {
		diff := a.MaxDelay - b.MaxDelay
		fast := b
		if diff < 0 {
			fast = a
			diff = -diff
		}
		// Leave some head-room: the routing stage can absorb roughly the delay
		// of the direct path; snake only the excess.
		if diff <= budget*0.9 {
			return
		}
		need := diff - budget*0.6
		m.snake(fast, need)
	}
}

// snake adds one wire-plus-buffer stage on top of the sub-tree root, adding
// approximately the needed delay while honouring the slew target.  The new
// buffer becomes the sub-tree root.
func (m *Merger) snake(s *Subtree, needed float64) {
	lib := m.cfg.Lib
	target := m.cfg.SlewTarget

	// Choose the smallest buffer that can still make progress, then pick a
	// wire length: as long as allowed, but not (much) more delay than needed.
	var buf tech.Buffer
	var length float64
	found := false
	for _, cand := range m.tech.Buffers {
		maxLen := lib.MaxWireLength(cand, s.LoadCap, target, target)
		if maxLen < 10 {
			continue
		}
		l := maxLen
		// Shrink the segment if a shorter one already provides the needed delay.
		for steps := 0; steps < 12; steps++ {
			tm := lib.SingleWire(cand, s.LoadCap, target, l)
			if tm.Total() <= needed*1.05 || l <= 10 {
				break
			}
			l *= 0.8
		}
		buf, length, found = cand, l, true
		break
	}
	if !found {
		buf = m.tech.LargestBuffer()
		length = 10
	}

	tm := lib.SingleWire(buf, s.LoadCap, target, length)
	bufCopy := buf
	node := &clocktree.Node{
		Name:   "snake",
		Kind:   clocktree.KindRouting,
		Pos:    s.Pos(),
		Buffer: &bufCopy,
	}
	node.AddChild(s.Root, length)
	s.Root = node
	s.MinDelay += tm.Total()
	s.MaxDelay += tm.Total()
	s.LoadCap = buf.InputCap
}

// estimatePathDelay estimates the delay of a buffered path of the given
// length driving the given terminal load, with buffers inserted at the
// maximum drivable spacing — the routing stage's balancing budget.
func (m *Merger) estimatePathDelay(dist, termCap float64) float64 {
	if dist <= 0 {
		return 0
	}
	lib := m.cfg.Lib
	target := m.cfg.SlewTarget
	buf := m.tech.LargestBuffer()
	maxLen := m.maxDrivableLen(buf.InputCap)
	var delay float64
	remaining := dist
	loadCap := termCap
	for remaining > 0 {
		seg := math.Min(remaining, maxLen)
		delay += lib.SingleWire(buf, loadCap, target, seg).Total()
		loadCap = buf.InputCap
		remaining -= seg
	}
	return delay
}

// ---------------------------------------------------------------------------
// Stage 2: bi-directional maze routing
// ---------------------------------------------------------------------------

// cellState is the expansion state of one routing grid cell for one side.
type cellState struct {
	// gen stamps the expansion generation that reached this cell; a cell is
	// part of the current expansion only when its stamp matches (stale pool
	// entries carry older generations and are invisible).
	gen uint64
	// est is the priority metric: estimated maximum sink delay if the merge
	// buffer were placed at this cell.
	est float64
	// baseMin/baseMax are the delays from the last placed node's input pin
	// down to the sinks.
	baseMin, baseMax float64
	// segLen is the open wire length from this cell back to the last placed
	// node.
	segLen float64
	// loadCap is the capacitance of the last placed node.
	loadCap float64
	// segLimit is the open segment length past which a buffer must be
	// placed: half the longest wire any library buffer drives into loadCap.
	// It changes only with loadCap, at the seed and at each placement.
	segLimit float64
	// parent is the cell index this state was expanded from (-1 at the seed).
	parent int
	// placed records that a buffer (placedBuf, an index into the
	// technology's buffer list) was inserted while entering this cell, at
	// position placedPos; baseMin/baseMax are then the delays at its input
	// pin.
	placed    bool
	placedBuf int
	placedPos geom.Point
}

// grid describes the routing grid of one merge operation.
type grid struct {
	origin   geom.Point
	cellSize float64
	nx, ny   int
}

func (g grid) index(ix, iy int) int { return iy*g.nx + ix }
func (g grid) center(ix, iy int) geom.Point {
	return geom.Pt(g.origin.X+(float64(ix)+0.5)*g.cellSize, g.origin.Y+(float64(iy)+0.5)*g.cellSize)
}
func (g grid) cellOf(p geom.Point) (int, int) {
	ix := int((p.X - g.origin.X) / g.cellSize)
	iy := int((p.Y - g.origin.Y) / g.cellSize)
	ix = clampInt(ix, 0, g.nx-1)
	iy = clampInt(iy, 0, g.ny-1)
	return ix, iy
}

// coarsen derives the hierarchical pass's coarse grid: one coarse cell
// covers factor² full cells, and the full cell (ix, iy) maps to the coarse
// cell (ix/factor, iy/factor) — integer arithmetic, so the mapping is exact
// regardless of the float cell geometry.
func (g grid) coarsen(factor int) grid {
	return grid{
		origin:   g.origin,
		cellSize: g.cellSize * float64(factor),
		nx:       (g.nx + factor - 1) / factor,
		ny:       (g.ny + factor - 1) / factor,
	}
}

// corridorMask restricts an expansion to full cells whose coarse cell is
// marked.  A nil mask allows everything (the flat expansion).
type corridorMask struct {
	mask   []bool
	factor int
	nxc    int
}

// route runs the two maze expansions and returns the reconstructed paths
// from each sub-tree root to the selected merge cell.  With Hierarchical
// configured and a large enough grid it searches a coarse corridor first,
// falling back to the flat search when the corridor yields no merge cell.
func (m *Merger) route(ctx context.Context, a, b *Subtree, sc *scratch) (pathA, pathB []pathNode, err error) {
	dist := a.Pos().Manhattan(b.Pos())
	rootA := pathNode{pos: a.Pos(), node: a.Root, loadCap: a.LoadCap, downMin: a.MinDelay, downMax: a.MaxDelay}
	rootB := pathNode{pos: b.Pos(), node: b.Root, loadCap: b.LoadCap, downMin: b.MinDelay, downMax: b.MaxDelay}

	// Tiny separations need no maze: the merge node sits between the roots.
	g := m.buildGrid(a.Pos(), b.Pos())
	if dist < g.cellSize || g.nx*g.ny <= 4 {
		sc.pathA = append(sc.pathA[:0], rootA)
		sc.pathB = append(sc.pathB[:0], rootB)
		return sc.pathA, sc.pathB, nil
	}

	if m.cfg.Hierarchical && g.nx*g.ny >= hierMinCells {
		corridor, err := m.corridor(ctx, g, a, b, sc)
		if err != nil {
			return nil, nil, err
		}
		if corridor.mask != nil {
			ok, err := m.search(ctx, g, a, b, rootA, rootB, sc, corridor)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				return sc.pathA, sc.pathB, nil
			}
		}
		// No common coarse or corridor-restricted merge cell: guaranteed
		// fallback to the flat search below.
	}
	ok, err := m.search(ctx, g, a, b, rootA, rootB, sc, corridorMask{})
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, fmt.Errorf("mergeroute: maze expansion found no common merge cell for roots %v and %v",
			a.Pos(), b.Pos())
	}
	return sc.pathA, sc.pathB, nil
}

// search runs both expansions over g, restricted to the corridor when its
// mask is set, selects the merge cell and reconstructs both paths into
// sc.pathA and sc.pathB.  It reports false when the expansions share no cell.
func (m *Merger) search(ctx context.Context, g grid, a, b *Subtree, rootA, rootB pathNode, sc *scratch, corridor corridorMask) (bool, error) {
	sc.statesA = ensureStates(sc.statesA, g.nx*g.ny)
	sc.statesB = ensureStates(sc.statesB, g.nx*g.ny)
	genA, err := m.expand(ctx, g, a, sc.statesA, sc, corridor)
	if err != nil {
		return false, err
	}
	genB, err := m.expand(ctx, g, b, sc.statesB, sc, corridor)
	if err != nil {
		return false, err
	}
	bestIdx := selectMergeCell(sc.statesA, sc.statesB, genA, genB)
	if bestIdx < 0 {
		return false, nil
	}
	sc.pathA = m.reconstruct(sc.statesA, bestIdx, rootA, sc.pathA, &sc.rev)
	sc.pathB = m.reconstruct(sc.statesB, bestIdx, rootB, sc.pathB, &sc.rev)
	return true, nil
}

// selectMergeCell picks the grid cell reached by both expansions with the
// minimum estimated skew of the merged tree, breaking ties with the smaller
// maximum latency; -1 when no common cell exists.
func selectMergeCell(statesA, statesB []cellState, genA, genB uint64) int {
	bestIdx, bestSkew, bestLat := -1, math.Inf(1), math.Inf(1)
	for i := range statesA {
		sa, sb := &statesA[i], &statesB[i]
		if sa.gen != genA || sb.gen != genB {
			continue
		}
		skew := math.Abs(sa.est - sb.est)
		lat := math.Max(sa.est, sb.est)
		if skew < bestSkew-1e-9 || (math.Abs(skew-bestSkew) <= 1e-9 && lat < bestLat) {
			bestIdx, bestSkew, bestLat = i, skew, lat
		}
	}
	return bestIdx
}

// buildGrid sizes the routing grid: R cells per dimension by default, grown
// when the pair distance is large so that grid steps stay well below the
// maximum drivable wire length (the dynamic adjustment of Section 4.2.2).
func (m *Merger) buildGrid(p, q geom.Point) grid {
	box := geom.NewRect(p, q)
	box = box.Expand(0.08*box.LongerDim() + 10)
	longer := box.LongerDim()

	r := m.cfg.GridSize
	maxLen := m.maxDrivableLen(m.tech.LargestBuffer().InputCap)
	for longer/float64(r) > maxLen/3 && r < m.cfg.MaxGridSize {
		r += 15
	}
	cell := longer / float64(r)
	if cell <= 0 {
		cell = 1
	}
	nx := int(math.Ceil(box.Width()/cell)) + 1
	ny := int(math.Ceil(box.Height()/cell)) + 1
	if nx < 2 {
		nx = 2
	}
	if ny < 2 {
		ny = 2
	}
	return grid{origin: box.Lo, cellSize: cell, nx: nx, ny: ny}
}

// expand runs the delay-driven maze expansion from one sub-tree root over the
// grid, inserting buffers whenever the open segment could no longer satisfy
// the slew target (Figure 4.4).  States go into the caller-provided slice
// (sized g.nx*g.ny, from the scratch arena); the returned generation stamps
// the cells this expansion reached.  A non-nil corridor mask restricts the
// expansion to corridor cells (the hierarchical refinement pass).  The
// context is polled every few hundred heap pops — often enough that even a
// maxed-out grid aborts within microseconds of cancellation.
//
// Each pop relaxes its open neighbours once: what a relaxation derives from
// the popped state alone (the grown segment and its estimate, or the buffer
// placement) is computed once per pop, and only what depends on the
// neighbour's position is computed per neighbour.
func (m *Merger) expand(ctx context.Context, g grid, s *Subtree, states []cellState, sc *scratch, corridor corridorMask) (uint64, error) {
	refBuf := m.tech.Buffers[len(m.tech.Buffers)/2]

	sc.gen++
	gen := sc.gen
	visited := ensureVisited(sc.visited, len(states))
	sc.visited = visited
	// openDelay is the priority metric's estimate of the (future) merge
	// buffer's delay through the still-open segment.  It is evaluated for
	// every grid relaxation, so a closed-form estimate is used here; the
	// binary-search stage re-times the final configuration with the library.
	// Its constants are read once, and its float operations keep their
	// order: (IntrinsicDelay + InternalTau) + Ln2*(DriveRes*(cw+L) +
	// rw*(cw/2+L))*PsPerOhmFF.
	bufDelay := refBuf.IntrinsicDelay + refBuf.InternalTau
	driveRes, unitCap, unitRes := refBuf.DriveRes, m.tech.UnitCap, m.tech.UnitRes
	openDelay := func(loadCap, segLen float64) float64 {
		cw := unitCap * segLen
		rw := unitRes * segLen
		return bufDelay + math.Ln2*(driveRes*(cw+loadCap)+rw*(cw/2+loadCap))*tech.PsPerOhmFF
	}

	six, siy := g.cellOf(s.Pos())
	start := g.index(six, siy)
	seed := cellState{
		gen:      gen,
		baseMin:  s.MinDelay,
		baseMax:  s.MaxDelay,
		segLen:   s.Pos().Manhattan(g.center(six, siy)),
		loadCap:  s.LoadCap,
		segLimit: 0.5 * m.maxDrivableLen(s.LoadCap),
		parent:   -1,
	}
	seed.est = seed.baseMax + openDelay(seed.loadCap, seed.segLen)
	states[start] = seed

	nx, ny, cellSize := g.nx, g.ny, g.cellSize
	mask, factor, nxc := corridor.mask, corridor.factor, corridor.nxc
	inCorridor := func(ix, iy int) bool {
		return mask == nil || mask[(iy/factor)*nxc+ix/factor]
	}
	var open [4]neighbour
	pq := &sc.pq
	pq.reset()
	pq.push(expandItem{idx: start, est: seed.est})
	expanded := 0
	for pops := 0; len(*pq) > 0; pops++ {
		if pops%256 == 0 {
			if err := ctx.Err(); err != nil {
				cellsExpanded.Add(uint64(expanded))
				return 0, err
			}
		}
		cur := pq.pop()
		if visited[cur.idx] == gen {
			continue
		}
		visited[cur.idx] = gen
		expanded++
		// The popped state is read in place: relaxations write only
		// neighbours, never the popped cell itself.
		cs := &states[cur.idx]
		cx, cy := cur.idx%nx, cur.idx/nx

		// The open neighbours, in the fixed order +x, −x, +y, −y (the heap's
		// tie order depends on it): inside the grid and the corridor, and
		// not yet closed.
		n := 0
		if i := cur.idx + 1; cx+1 < nx && visited[i] != gen && inCorridor(cx+1, cy) {
			open[n] = neighbour{idx: i, x: cx + 1, y: cy}
			n++
		}
		if i := cur.idx - 1; cx > 0 && visited[i] != gen && inCorridor(cx-1, cy) {
			open[n] = neighbour{idx: i, x: cx - 1, y: cy}
			n++
		}
		if i := cur.idx + nx; cy+1 < ny && visited[i] != gen && inCorridor(cx, cy+1) {
			open[n] = neighbour{idx: i, x: cx, y: cy + 1}
			n++
		}
		if i := cur.idx - nx; cy > 0 && visited[i] != gen && inCorridor(cx, cy-1) {
			open[n] = neighbour{idx: i, x: cx, y: cy - 1}
			n++
		}
		if n == 0 {
			continue
		}
		newSeg := cs.segLen + cellSize

		// Insert buffers at half the maximum drivable spacing (segLimit):
		// the merge point later slides along the segment between the last
		// fixed nodes of the two paths, so each individual open segment
		// must leave room for the combined span to stay drivable.
		if newSeg > cs.segLimit {
			p := m.placeBuffer(cs, newSeg)
			curPos := g.center(cx, cy)
			for _, nb := range open[:n] {
				nextPos := g.center(nb.x, nb.y)
				pos := curPos
				if p.atFrontier {
					pos = nextPos
				}
				segLen := pos.Manhattan(nextPos)
				est := p.baseMax + openDelay(p.loadCap, segLen)
				if ns := &states[nb.idx]; ns.gen != gen || est < ns.est {
					*ns = cellState{
						gen: gen, est: est,
						baseMin: p.baseMin, baseMax: p.baseMax,
						segLen: segLen, loadCap: p.loadCap, segLimit: p.segLimit,
						parent: cur.idx,
						placed: true, placedBuf: p.buf, placedPos: pos,
					}
					pq.push(expandItem{idx: nb.idx, est: est})
				}
			}
			continue
		}
		// The open segment grows; a neighbour's state is written only when
		// this relaxation improves it, field by field (the placement fields
		// are read only while placed is set).
		est := cs.baseMax + openDelay(cs.loadCap, newSeg)
		for _, nb := range open[:n] {
			if ns := &states[nb.idx]; ns.gen != gen || est < ns.est {
				ns.gen = gen
				ns.est = est
				ns.baseMin, ns.baseMax = cs.baseMin, cs.baseMax
				ns.segLen = newSeg
				ns.loadCap = cs.loadCap
				ns.segLimit = cs.segLimit
				ns.parent = cur.idx
				ns.placed = false
				pq.push(expandItem{idx: nb.idx, est: est})
			}
		}
	}
	cellsExpanded.Add(uint64(expanded))
	return gen, nil
}

// neighbour is one open neighbour of a popped cell: its index and grid
// coordinates.
type neighbour struct {
	idx, x, y int
}

// placement is the buffer insertion of a relaxation whose grown open segment
// no buffer can drive.  It depends on the popped state alone, so expand
// decides it once per pop; the neighbour only fixes where the buffer sits
// (atFrontier: at the neighbour's centre, else at the popped cell's).
type placement struct {
	buf               int // index into the technology's buffer list
	atFrontier        bool
	baseMin, baseMax  float64 // delays at the buffer's input pin
	loadCap, segLimit float64 // the buffer's input cap and half its drivable length
}

// placeBuffer decides the placement using the intelligent sizing rule,
// evaluating both the popped cell (the old, shorter segment) and the
// frontier (newSeg).
func (m *Merger) placeBuffer(cs *cellState, newSeg float64) placement {
	bi, atFrontier, ok := m.chooseBuffer(cs.loadCap, cs.segLen, newSeg)
	if !ok {
		// Even the previous cell cannot be driven; this indicates a
		// degenerate configuration (extremely large load).  Place the
		// largest buffer at the previous cell regardless.
		bi, atFrontier = len(m.tech.Buffers)-1, false
	}
	segUsed := cs.segLen
	if atFrontier {
		segUsed = newSeg
	}
	buf := &m.tech.Buffers[bi]
	segDelay := m.cfg.Lib.SingleWire(*buf, cs.loadCap, m.cfg.SlewTarget, math.Max(segUsed, 1)).Total()
	return placement{
		buf:        bi,
		atFrontier: atFrontier,
		baseMin:    cs.baseMin + segDelay,
		baseMax:    cs.baseMax + segDelay,
		loadCap:    buf.InputCap,
		segLimit:   0.5 * m.maxDrivableLen(buf.InputCap),
	}
}

// chooseBuffer implements the intelligent buffer sizing of Section 4.2.2: all
// buffer types are evaluated at the frontier cell (segment newSeg) and at the
// previous cell (segment oldSeg), in that order per buffer; the placement
// whose far-end slew is closest to the target without exceeding it wins.  It
// returns the buffer's index in the technology's buffer list and whether it
// sits at the frontier.
func (m *Merger) chooseBuffer(loadCap, oldSeg, newSeg float64) (bi int, atFrontier, ok bool) {
	lib := m.cfg.Lib
	target := m.cfg.SlewTarget
	bestSlack := math.Inf(1)
	for i, buf := range m.tech.Buffers {
		for _, frontier := range [2]bool{true, false} {
			s := oldSeg
			if frontier {
				s = newSeg
			}
			if s < 1 {
				s = 1
			}
			slew := lib.SingleWire(buf, loadCap, target, s).OutputSlew
			if slew > target {
				continue
			}
			if slack := target - slew; slack < bestSlack {
				bi, atFrontier, bestSlack, ok = i, frontier, slack, true
			}
		}
	}
	return bi, atFrontier, ok
}

// reconstruct walks the parent pointers from the merge cell back to the seed
// and returns the placed nodes ordered from the sub-tree root outwards, in
// the caller's reusable path buffer (rev is the shared reversal scratch).
// Only here do placed buffers materialize as heap copies of their library
// entry: every pathNode on the kept path escapes into the returned tree,
// while the (far more numerous) discarded expansion states never allocate.
func (m *Merger) reconstruct(states []cellState, mergeIdx int, root pathNode, dst []pathNode, rev *[]pathNode) []pathNode {
	reversed := (*rev)[:0]
	for idx := mergeIdx; idx >= 0; idx = states[idx].parent {
		st := &states[idx]
		if st.placed {
			buf := m.tech.Buffers[st.placedBuf]
			reversed = append(reversed, pathNode{
				pos:     st.placedPos,
				buffer:  &buf,
				loadCap: buf.InputCap,
				downMin: st.baseMin,
				downMax: st.baseMax,
			})
		}
		if st.parent < 0 {
			break
		}
	}
	*rev = reversed
	path := append(dst[:0], root)
	for i := len(reversed) - 1; i >= 0; i-- {
		path = append(path, reversed[i])
	}
	return path
}

// ---------------------------------------------------------------------------
// Stage 3: binary search and assembly
// ---------------------------------------------------------------------------

// finalize chooses the merge buffer, refines the merge position between the
// last fixed nodes of the two paths, and builds the clock tree structure.
func (m *Merger) finalize(a, b *Subtree, pathA, pathB []pathNode) (*Subtree, error) {
	lib := m.cfg.Lib
	target := m.cfg.SlewTarget

	lastA := pathA[len(pathA)-1]
	lastB := pathB[len(pathB)-1]
	seg := geom.Segment{A: lastA.pos, B: lastB.pos}
	span := seg.Length()

	// The merge buffer must be able to drive both arms; size it for the worst
	// case (the full span into the smaller load) and fall back to the largest.
	mergeBuf, ok := lib.BestBufferFor(minFloat(lastA.loadCap, lastB.loadCap), target, math.Max(span, 1), target)
	if !ok {
		mergeBuf = m.tech.LargestBuffer()
	}

	// The binary search may only slide the merge point as far as the merge
	// buffer can still drive each arm within the slew target.
	rMin, rMax := 0.0, 1.0
	if span > 1 {
		maxA := lib.MaxWireLength(mergeBuf, lastA.loadCap, target, target)
		maxB := lib.MaxWireLength(mergeBuf, lastB.loadCap, target, target)
		rMax = math.Min(1, maxA/span)
		rMin = math.Max(0, 1-maxB/span)
		if rMin > rMax {
			// Degenerate: even the largest buffer cannot cover the span from
			// one end; keep the midpoint, which minimizes the worse arm.
			rMin, rMax = 0.5, 0.5
		}
	}

	evalDiff := func(r float64) (diff, minD, maxD float64, bt charlib.BranchTiming) {
		l1 := r * span
		l2 := (1 - r) * span
		bt = lib.Branch(mergeBuf, target, math.Max(l1, 1), math.Max(l2, 1), lastA.loadCap, lastB.loadCap)
		maxA := bt.BufferDelay + bt.LeftDelay + lastA.downMax
		minA := bt.BufferDelay + bt.LeftDelay + lastA.downMin
		maxB := bt.BufferDelay + bt.RightDelay + lastB.downMax
		minB := bt.BufferDelay + bt.RightDelay + lastB.downMin
		return maxA - maxB, math.Min(minA, minB), math.Max(maxA, maxB), bt
	}

	// Binary search on the ratio r (Section 4.2.3): the delay difference is
	// monotone in r, so bisect on its sign within the slew-feasible range.
	lo, hi := rMin, rMax
	r := (rMin + rMax) / 2
	if span > 1 && rMax > rMin {
		dLo, _, _, _ := evalDiff(lo)
		dHi, _, _, _ := evalDiff(hi)
		switch {
		case dLo >= 0:
			r = lo // side A is already slower even with minimal wire towards it
		case dHi <= 0:
			r = hi
		default:
			for i := 0; i < binarySearchIters; i++ {
				r = (lo + hi) / 2
				d, _, _, _ := evalDiff(r)
				if math.Abs(d) < 1e-3 {
					break
				}
				if d > 0 {
					hi = r
				} else {
					lo = r
				}
			}
		}
	}
	_, minD, maxD, _ := evalDiff(r)
	mergePos := seg.PointAtRatio(r)

	// Assemble the physical structure: merge node (buffered) -> path nodes in
	// reverse order -> original sub-tree roots.
	bufCopy := mergeBuf
	mergeNode := &clocktree.Node{
		Name:   "merge",
		Kind:   clocktree.KindMerge,
		Pos:    mergePos,
		Buffer: &bufCopy,
	}
	attachArm(mergeNode, pathA, r*span)
	attachArm(mergeNode, pathB, (1-r)*span)

	return &Subtree{
		Root:     mergeNode,
		MinDelay: minD,
		MaxDelay: maxD,
		LoadCap:  mergeBuf.InputCap,
	}, nil
}

// attachArm links the path nodes under the merge node.  The path is ordered
// from the sub-tree root outwards, so it is attached in reverse: the node
// closest to the merge point becomes the merge node's child.
func attachArm(mergeNode *clocktree.Node, path []pathNode, firstWire float64) {
	parent := mergeNode
	prevPos := mergeNode.Pos
	for i := len(path) - 1; i >= 0; i-- {
		pn := path[i]
		node := pn.node
		if node == nil {
			node = &clocktree.Node{
				Name:   "route_buf",
				Kind:   clocktree.KindRouting,
				Pos:    pn.pos,
				Buffer: pn.buffer,
			}
		}
		wire := prevPos.Manhattan(pn.pos)
		if i == len(path)-1 {
			wire = math.Max(wire, firstWire)
		}
		parent.AddChild(node, wire)
		parent = node
		prevPos = pn.pos
	}
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
