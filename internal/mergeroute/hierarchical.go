package mergeroute

import "context"

// This file implements the hierarchical routing path's coarse pass.  The
// flat search of mergeroute.go relaxes every cell of the routing grid, which
// is quadratic in the grid resolution; for the large grids of widely
// separated sub-trees almost all of that work is spent on cells far from any
// sensible route.  The hierarchical path instead:
//
//  1. coarsens the grid by coarsenFactor (one coarse cell covers factor²
//     full cells) and runs the identical best-first expansion on the
//     coarse graph from both sub-tree roots;
//
//  2. picks the coarse merge cell exactly like the flat router picks its
//     merge cell and dilates both coarse parent chains by one coarse cell in
//     every direction into a corridor mask (the dilation also absorbs the
//     ±1 cell float rounding between the two grids);
//
//  3. hands the mask to route, whose search then runs at full resolution on
//     corridor cells only, so buffer insertion, slew feasibility and the
//     merge-cell choice are made at full resolution but only
//     O(path length · factor) cells are relaxed.
//
// Any failure — no common coarse cell, no corridor-restricted merge cell —
// makes route fall back to the flat search, so hierarchical routing succeeds
// wherever flat routing would.  The result is deterministic (fixed expansion
// order, no clocks, no maps) but is not bit-identical to flat routing: the
// corridor restriction can choose a different merge cell, which is why the
// strategy is versioned in cts.Settings (and therefore in cts.CanonicalKey)
// rather than silently substituted.

// corridor runs the coarse pass: both expansions over the coarsened grid, in
// sc.statesA and sc.statesB (the full-resolution search then stamps over
// them), and the corridor around both chains to the coarse merge cell.  The
// returned mask is nil when the coarse expansions share no cell.
func (m *Merger) corridor(ctx context.Context, g grid, a, b *Subtree, sc *scratch) (corridorMask, error) {
	gc := g.coarsen(coarsenFactor)
	sc.statesA = ensureStates(sc.statesA, gc.nx*gc.ny)
	sc.statesB = ensureStates(sc.statesB, gc.nx*gc.ny)
	genA, err := m.expand(ctx, gc, a, sc.statesA, sc, corridorMask{})
	if err != nil {
		return corridorMask{}, err
	}
	genB, err := m.expand(ctx, gc, b, sc.statesB, sc, corridorMask{})
	if err != nil {
		return corridorMask{}, err
	}
	best := selectMergeCell(sc.statesA, sc.statesB, genA, genB)
	if best < 0 {
		return corridorMask{}, nil
	}
	sc.corridor = ensureCorridor(sc.corridor, gc.nx*gc.ny)
	markCorridor(gc, sc.statesA, best, sc.corridor)
	markCorridor(gc, sc.statesB, best, sc.corridor)
	return corridorMask{mask: sc.corridor, factor: coarsenFactor, nxc: gc.nx}, nil
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
