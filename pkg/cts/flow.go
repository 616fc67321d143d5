package cts

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clocktree"
	"repro/internal/mergeroute"
)

// Run synthesizes a buffered clock tree for the sinks.  The context is
// checked between stages, between the individual merges of each level and
// inside each merge's maze expansion, so cancelling it aborts the run
// promptly with the context's error.  Each level's independent merges are
// dispatched to a worker pool bounded by WithParallelism; the result is
// bit-identical to a sequential run.  A tree whose worst slew exceeds the
// slew limit is an error wrapping ErrSlewLimit, not a result.
func (f *Flow) Run(ctx context.Context, sinks []Sink) (*Result, error) {
	return f.run(ctx, "", sinks, false)
}

// run is the shared implementation behind Run, RunBatch and RunIncremental;
// item names the batch item in emitted events.  When incremental is set (and
// a subtree cache is configured) every merge first consults the cache by its
// key; otherwise the cache, when present, is only written through.
func (f *Flow) run(ctx context.Context, item string, sinks []Sink, incremental bool) (res *Result, err error) {
	//ctslint:allow determinism -- elapsed-time metadata only; feeds Event.Elapsed and Result.Timing, never geometry
	start := time.Now()
	f.emit(Event{Kind: EventFlowStart, Item: item, Sinks: len(sinks)})
	defer func() {
		f.emit(Event{Kind: EventFlowEnd, Item: item, Elapsed: time.Since(start), Err: err})
	}()

	if err := ValidateSinks(sinks); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	merger := f.cfg.merger
	if merger == nil {
		// The default router keeps a per-run memoization cache, so each run
		// gets a fresh instance; this is what makes a Flow safe to share
		// across RunBatch workers.
		merger, err = f.newDefaultMergeRouter()
		if err != nil {
			return nil, err
		}
	}

	// Level 0: every sink is its own sub-tree.  ValidateSinks has already
	// rejected duplicate names (including clashes with the sink_<n> defaults
	// generated here), so the names are unique.  With a subtree cache
	// configured, each record also carries its leaf key, and the result the
	// effective sink.
	res = &Result{Settings: f.cfg.settings}
	if incremental {
		res.Incremental = &IncrementalStats{}
	}
	cache := f.cfg.subtreeCache
	current := make([]levelNode, len(sinks))
	for i, s := range sinks {
		if s.Name == "" {
			s.Name = fmt.Sprintf("sink_%d", i)
		}
		if s.Cap <= 0 {
			s.Cap = f.cfg.tech.SinkCapDefault
		}
		current[i].st = mergeroute.SinkSubtree(s.Name, s.Pos, s.Cap)
		if cache != nil {
			current[i].key = leafKey(f.subtreePrefix, s)
			res.effSinks = append(res.effSinks, s)
		}
	}

	// Levelized topology generation (Section 4.1.1): pair, then merge-route
	// every pair, level by level until one tree remains.
	for len(current) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		level := res.Levels + 1

		//ctslint:allow determinism -- elapsed-time metadata only; feeds Event.Elapsed, never geometry
		topoStart := time.Now()
		f.emit(Event{Kind: EventStageStart, Item: item, Stage: StageTopology, Level: level})
		items := make([]Item, len(current))
		for i, n := range current {
			items[i] = Item{Pos: n.st.Pos(), Delay: n.st.MaxDelay}
		}
		pairs, seed, err := f.cfg.topology.Pair(ctx, items)
		if err != nil {
			return nil, fmt.Errorf("cts: topology level %d: %w", level, err)
		}
		if len(pairs) == 0 {
			return nil, errors.New("cts: topology generation stalled")
		}
		f.emit(Event{Kind: EventStageEnd, Item: item, Stage: StageTopology, Level: level, Elapsed: time.Since(topoStart)})

		//ctslint:allow determinism -- elapsed-time metadata only; feeds Event.Elapsed, never geometry
		mergeStart := time.Now()
		f.emit(Event{Kind: EventStageStart, Item: item, Stage: StageMergeRoute, Level: level})
		next := make([]levelNode, 0, len(pairs)+1)
		// Every sub-tree must be consumed exactly once per level: a custom
		// TopologyBuilder that drops one would silently lose sinks, and one
		// that reuses an index would attach the same tree node twice.
		used := make([]bool, len(current))
		if seed >= 0 {
			if seed >= len(current) {
				return nil, fmt.Errorf("cts: topology level %d: seed index %d out of range", level, seed)
			}
			used[seed] = true
			next = append(next, current[seed])
		}
		for _, p := range pairs {
			if p.A < 0 || p.B < 0 || p.A >= len(current) || p.B >= len(current) || p.A == p.B {
				return nil, fmt.Errorf("cts: topology level %d: invalid pairing %+v", level, p)
			}
			if used[p.A] || used[p.B] {
				return nil, fmt.Errorf("cts: topology level %d: pairing %+v reuses an already-matched sub-tree", level, p)
			}
			used[p.A], used[p.B] = true, true
		}
		for i, u := range used {
			if !u {
				return nil, fmt.Errorf("cts: topology level %d: sub-tree %d left unmatched", level, i)
			}
		}
		merged, levelFlips, levelReused, err := f.mergeLevel(ctx, merger, current, pairs, res)
		if err != nil {
			return nil, err
		}
		next = append(next, merged...)
		f.emit(Event{
			Kind: EventStageEnd, Item: item, Stage: StageMergeRoute, Level: level,
			Pairs: len(pairs), Reused: levelReused, Elapsed: time.Since(mergeStart),
		})

		res.Flippings += levelFlips
		res.Levels++
		current = next
		f.emit(Event{
			Kind: EventLevelDone, Item: item, Level: level,
			Subtrees: len(current), Pairs: len(pairs), Flips: levelFlips, Reused: levelReused,
			Elapsed: time.Since(topoStart),
		})
	}

	root := current[0]

	// Attach the clock source (with a buffered feed when it sits away from
	// the tree root).
	tree, err := timedStage(f, ctx, item, StageBuffering, func(ctx context.Context) (*clocktree.Tree, error) {
		return f.cfg.bufferer.AttachSource(ctx, root.st, f.cfg.source)
	})
	if err != nil {
		return nil, err
	}

	// Final library-based timing analysis.
	timing, err := timedStage(f, ctx, item, StageTiming, func(ctx context.Context) (*clocktree.Timing, error) {
		return f.cfg.timer.Analyze(ctx, tree)
	})
	if err != nil {
		return nil, err
	}
	if timing.WorstSlew > f.cfg.settings.SlewLimit {
		return nil, fmt.Errorf("%w: worst slew %v ps exceeds the %v ps limit",
			ErrSlewLimit, timing.WorstSlew, f.cfg.settings.SlewLimit)
	}

	res.Tree = tree
	res.Timing = timing
	res.Stats = tree.Stats()

	if f.cfg.verify {
		vr, err := timedStage(f, ctx, item, StageVerify, func(ctx context.Context) (*clocktree.VerifyResult, error) {
			return f.cfg.verifier.Verify(ctx, tree)
		})
		if err != nil {
			return nil, err
		}
		res.Verification = vr
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// levelNode is one sub-tree of the level loop.  With a subtree cache it
// also carries its key: a leaf's from its sink, a merge's from its two
// inputs' keys (subtreekey.go).
type levelNode struct {
	st  *mergeroute.Subtree
	key string
}

// mergeLevel merge-routes every pair of one level and returns the merged
// records in pair order, the level's flip count and how many pairs the
// subtree cache served.  With a cache every pair is keyed, and on a
// RunIncremental run (res.Incremental non-nil) a pair the cache holds is
// decoded instead of routed.  The level's merges are independent (Section
// 4.1.1 pairs disjoint sub-trees), so the rest go to a worker pool bounded
// by the flow's parallelism, each into its pair's slot, read after every
// worker has joined: the level is bit-identical to the sequential path at
// any width.  Routed merges are then written through, in pair order.  Every
// pair decoded or written through is recorded on res for a later harvest.
func (f *Flow) mergeLevel(ctx context.Context, merger MergeRouter, current []levelNode, pairs []Pairing, res *Result) ([]levelNode, int, int, error) {
	cache, stats := f.cfg.subtreeCache, res.Incremental
	merged := make([]levelNode, len(pairs))
	flips := make([]int, len(pairs))
	route := make([]int, 0, len(pairs)) // the pairs to merge-route
	for i, p := range pairs {
		if cache != nil {
			if err := ctx.Err(); err != nil {
				return nil, 0, 0, err
			}
			merged[i].key = mergeKey(f.subtreePrefix, current[p.A].key, current[p.B].key)
		}
		if stats != nil {
			if value, ok := cache.Get(merged[i].key); ok {
				if st, fl, err := mergeroute.DecodeSubtree(value); err == nil {
					merged[i].st, flips[i] = st, fl
					res.subtrees = append(res.subtrees, keyedSubtree{merged[i].key, value})
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
		route = append(route, i)
	}
	merge := func(ctx context.Context, i int) (err error) {
		merged[i].st, flips[i], err = merger.Merge(ctx, current[pairs[i].A].st, current[pairs[i].B].st)
		return err
	}

	workers := min(f.Parallelism(), len(route))
	if workers <= 1 {
		for _, i := range route {
			if err := ctx.Err(); err != nil {
				return nil, 0, 0, err
			}
			if err := merge(ctx, i); err != nil {
				return nil, 0, 0, err
			}
		}
	} else {
		// Fan out: a failing merge cancels the level's context so the
		// other workers drain their remaining pairs quickly.
		lctx, cancel := context.WithCancel(ctx)
		defer cancel()
		errs := make([]error, len(pairs))
		indices := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range indices {
					if err := merge(lctx, i); err != nil {
						errs[i] = err
						cancel()
					}
				}
			}()
		}
		for _, i := range route {
			indices <- i
		}
		close(indices)
		wg.Wait()

		// Report the first real failure in pair order; cancellation errors
		// are only fallbacks, since all but one of them are echoes of the
		// level cancel (or of the caller's own context, which the caller
		// reports too).
		var firstErr error
		for _, err := range errs {
			if err == nil {
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			if !errors.Is(err, context.Canceled) {
				firstErr = err
				break
			}
		}
		if firstErr != nil {
			return nil, 0, 0, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
	}

	levelFlips := 0
	for _, fl := range flips {
		levelFlips += fl
	}
	if cache != nil {
		for _, i := range route {
			value := mergeroute.EncodeSubtree(merged[i].st, flips[i])
			cache.Put(merged[i].key, value)
			res.subtrees = append(res.subtrees, keyedSubtree{merged[i].key, value})
		}
	}
	reused := len(pairs) - len(route)
	if stats != nil {
		stats.ReusedSubtrees += reused
		stats.RecomputedMerges += len(route)
	}
	return merged, levelFlips, reused, nil
}

// timedStage brackets one whole-flow stage with a context check and
// start/end events.
func timedStage[T any](f *Flow, ctx context.Context, item, stage string, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	//ctslint:allow determinism -- elapsed-time metadata only; feeds Event.Elapsed, never geometry
	start := time.Now()
	f.emit(Event{Kind: EventStageStart, Item: item, Stage: stage})
	out, err := fn(ctx)
	f.emit(Event{Kind: EventStageEnd, Item: item, Stage: stage, Elapsed: time.Since(start)})
	if err != nil {
		return zero, fmt.Errorf("cts: %s stage: %w", stage, err)
	}
	return out, nil
}
