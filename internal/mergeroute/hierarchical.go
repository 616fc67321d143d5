package mergeroute

import "context"

// This file implements the hierarchical routing path (coarsen → corridor →
// refine).  The flat expansion of mergeroute.go relaxes every cell of the
// routing grid, which is quadratic in the grid resolution; for the large
// grids of widely separated sub-trees almost all of that work is spent on
// cells far from any sensible route.  The hierarchical path instead:
//
//  1. coarsens the grid by coarsenFactor (one coarse cell covers factor²
//     full cells) and runs the identical best-first expansion on the
//     coarse graph from both sub-tree roots;
//
//  2. picks the coarse merge cell exactly like the flat router picks its
//     merge cell, reconstructs both coarse parent chains, and dilates them by
//     one coarse cell in every direction into a corridor mask (the dilation
//     also absorbs the ±1 cell float rounding between the two grids);
//
//  3. re-runs the full-resolution expansion restricted to corridor cells, so
//     buffer insertion, slew feasibility and the merge-cell choice are made
//     at full resolution but only O(path length · factor) cells are relaxed.
//
// Any failure — no common coarse cell, no corridor-restricted merge cell —
// reports !ok and the caller falls back to the flat expansion, so
// hierarchical routing succeeds wherever flat routing would.  The result is
// deterministic (fixed expansion order, no clocks, no maps) but is not
// bit-identical to flat routing: the corridor restriction can choose a
// different merge cell, which is why the strategy is versioned in
// cts.Settings (and therefore in cts.CanonicalKey) rather than silently
// substituted.
func (m *Merger) routeHierarchical(ctx context.Context, g grid, a, b *Subtree, rootA, rootB pathNode, sc *scratch) (pathA, pathB []pathNode, ok bool, err error) {
	gc := g.coarsen(coarsenFactor)

	// Coarse pass: same expansion, factor²-fewer cells.
	sc.coarseA = ensureStates(sc.coarseA, gc.nx*gc.ny)
	sc.coarseB = ensureStates(sc.coarseB, gc.nx*gc.ny)
	genCA, err := m.expand(ctx, gc, a, sc.coarseA, sc, corridorMask{})
	if err != nil {
		return nil, nil, false, err
	}
	genCB, err := m.expand(ctx, gc, b, sc.coarseB, sc, corridorMask{})
	if err != nil {
		return nil, nil, false, err
	}
	coarseBest := selectMergeCell(sc.coarseA, sc.coarseB, genCA, genCB)
	if coarseBest < 0 {
		return nil, nil, false, nil
	}

	// Corridor: both coarse parent chains, dilated by one coarse cell.
	sc.corridor = ensureCorridor(sc.corridor, gc.nx*gc.ny)
	markCorridor(gc, sc.coarseA, coarseBest, sc.corridor)
	markCorridor(gc, sc.coarseB, coarseBest, sc.corridor)

	// Refinement pass: full resolution, corridor cells only.
	corridor := corridorMask{mask: sc.corridor, factor: coarsenFactor, nxc: gc.nx}
	sc.statesA = ensureStates(sc.statesA, g.nx*g.ny)
	sc.statesB = ensureStates(sc.statesB, g.nx*g.ny)
	genA, err := m.expand(ctx, g, a, sc.statesA, sc, corridor)
	if err != nil {
		return nil, nil, false, err
	}
	genB, err := m.expand(ctx, g, b, sc.statesB, sc, corridor)
	if err != nil {
		return nil, nil, false, err
	}
	bestIdx := selectMergeCell(sc.statesA, sc.statesB, genA, genB)
	if bestIdx < 0 {
		return nil, nil, false, nil
	}
	sc.pathA = m.reconstruct(sc.statesA, bestIdx, rootA, sc.pathA, &sc.rev)
	sc.pathB = m.reconstruct(sc.statesB, bestIdx, rootB, sc.pathB, &sc.rev)
	return sc.pathA, sc.pathB, true, nil
}

// markCorridor walks the coarse parent chain from the chosen merge cell back
// to the expansion seed and marks every chain cell plus its eight neighbours
// in the corridor mask.  The walk is bounded by the chain length (parents
// strictly precede their children in expansion order, so the chain is
// acyclic and ends at the seed's parent index of -1).
func markCorridor(gc grid, states []cellState, from int, mask []bool) {
	for idx := from; idx >= 0; idx = states[idx].parent {
		cx, cy := idx%gc.nx, idx/gc.nx
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= gc.nx || ny >= gc.ny {
					continue
				}
				mask[ny*gc.nx+nx] = true
			}
		}
		if states[idx].parent < 0 {
			break
		}
	}
}
