package ctsserver

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// checkStatsSources compares every field of a GET /v1/stats body with the
// state it reports, read directly: Options, the scheduler's counters and
// gauges, the two cache tiers and the server's MetricsObserver.  A field
// wired to the wrong source, or to a series that does not exist, shows up
// as a mismatch.
func checkStatsSources(t *testing.T, srv *Server, st *Stats) {
	t.Helper()
	sc := st.Scheduler
	if sc.Workers != srv.opts.Workers || sc.QueueDepth != srv.opts.QueueDepth {
		t.Errorf("workers/queueDepth = %d/%d, want %d/%d", sc.Workers, sc.QueueDepth, srv.opts.Workers, srv.opts.QueueDepth)
	}
	queued, running, byPriority := srv.sched.gauges()
	if sc.Queued != queued || sc.Running != running {
		t.Errorf("queued/running = %d/%d, want %d/%d", sc.Queued, sc.Running, queued, running)
	}
	if len(sc.QueuedByPriority) != len(priorities) {
		t.Errorf("queuedByPriority = %v, want every priority", sc.QueuedByPriority)
	}
	for _, p := range priorities {
		if sc.QueuedByPriority[p] != byPriority[p.rank()] {
			t.Errorf("queuedByPriority[%s] = %d, want %d", p, sc.QueuedByPriority[p], byPriority[p.rank()])
		}
	}
	sched := srv.sched
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"submitted", sc.Submitted, sched.submitted.Load()},
		{"completed", sc.Completed, sched.completed.Load()},
		{"failed", sc.Failed, sched.failed.Load()},
		{"canceled", sc.Canceled, sched.canceled.Load()},
		{"expired", sc.Expired, sched.expired.Load()},
		{"rejected", sc.Rejected, sched.rejected.Load()},
		{"cacheHits", sc.CacheHits, sched.cacheHits.Load()},
	} {
		if c.got != c.want {
			t.Errorf("scheduler.%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if sc.Draining != sched.isDraining() {
		t.Errorf("draining = %v, want %v", sc.Draining, sched.isDraining())
	}

	rs := srv.cache.stats()
	want := CacheStats{
		Entries: rs.Entries, Bytes: rs.Bytes, MaxBytes: rs.MaxBytes,
		Hits:       rs.MemoryHits + rs.DiskHits,
		MemoryHits: rs.MemoryHits, DiskHits: rs.DiskHits, PeerHits: rs.PeerHits,
		Misses: rs.Misses, Evictions: rs.Evictions, Disk: rs.Disk,
	}
	got := st.Cache
	got.Subtrees = nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cache = %+v (disk %+v)\nwant    %+v (disk %+v)", got, got.Disk, want, want.Disk)
	}
	switch {
	case srv.subtrees == nil && st.Cache.Subtrees != nil:
		t.Errorf("cache.subtrees = %+v with the tier disabled", st.Cache.Subtrees)
	case srv.subtrees != nil && st.Cache.Subtrees == nil:
		t.Error("cache.subtrees missing with the tier enabled")
	case srv.subtrees != nil:
		if sub := srv.subtrees.stats(); !reflect.DeepEqual(*st.Cache.Subtrees, sub) {
			t.Errorf("cache.subtrees = %+v (disk %+v)\nwant             %+v (disk %+v)",
				*st.Cache.Subtrees, st.Cache.Subtrees.Disk, sub, sub.Disk)
		}
	}

	snap := srv.Metrics().Snapshot()
	gm := st.Metrics
	if gm.FlowsStarted != snap.FlowsStarted || gm.FlowsDone != snap.FlowsDone || gm.FlowsFailed != snap.FlowsFailed ||
		gm.Levels != snap.Levels || gm.Pairs != snap.Pairs || gm.Flips != snap.Flips || gm.Reused != snap.Reused {
		t.Errorf("metrics counters = %+v, want %+v", gm, snap)
	}
	if len(gm.Stages) != len(snap.Stages) {
		t.Errorf("metrics.stages lists %d stages, want %d", len(gm.Stages), len(snap.Stages))
	}
	for name, w := range snap.Stages {
		g, ok := gm.Stages[name]
		if !ok {
			t.Errorf("metrics.stages lacks %q", name)
			continue
		}
		if g.Count != w.Count || !reflect.DeepEqual(g.Buckets, w.Buckets) {
			t.Errorf("stage %s: count %d buckets %v, want %d %v", name, g.Count, g.Buckets, w.Count, w.Buckets)
		}
		if d := g.Total - w.Total; d > time.Microsecond || d < -time.Microsecond {
			t.Errorf("stage %s: total %v, want %v within 1µs", name, g.Total, w.Total)
		}
	}
	if st.UptimeSeconds <= 0 || st.Goroutines <= 0 {
		t.Errorf("uptime/goroutines = %v/%d, want positive", st.UptimeSeconds, st.Goroutines)
	}
}

// TestStatsFieldsMatchSources runs synthesized jobs, a cache hit and a
// baseJob delta against a server with a cache directory, then pins every
// /v1/stats field to its source; a drain with a job in flight pins draining
// and the running gauge.
func TestStatsFieldsMatchSources(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 2, QueueDepth: 8, CacheDir: t.TempDir()})
	ctx := context.Background()
	run := func(req JobRequest) *JobStatus {
		t.Helper()
		st, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		fin := waitTerminal(t, cl, st.ID)
		if fin.State != StateDone {
			t.Fatalf("job ended %s: %s", fin.State, fin.Error)
		}
		return fin
	}
	base := scaledRequest(t, 40)
	baseSt := run(base)
	run(scaledRequest(t, 24))
	if hit := run(base); !hit.CacheHit {
		t.Fatal("identical resubmission was not a cache hit")
	}
	delta := base
	delta.Sinks = append([]Sink(nil), base.Sinks...)
	delta.Sinks[5].Y += 30
	delta.BaseJob = baseSt.ID
	run(delta)
	// A worker leaves the running gauge just after its job turns terminal.
	waitFor(t, "idle workers", func() bool { _, running, _ := srv.sched.gauges(); return running == 0 })

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkStatsSources(t, srv, st)
	if st.Scheduler.CacheHits != 1 || st.Cache.Disk == nil || st.Cache.Subtrees == nil ||
		st.Cache.Subtrees.MemoryHits == 0 || st.Metrics.Reused == 0 || len(st.Metrics.Stages) == 0 {
		t.Errorf("the jobs did not exercise every source: %+v", st)
	}

	release := make(chan struct{})
	hook, started := blockingHook(release)
	srv.runHook = hook
	started.Add(1)
	if _, err := cl.Submit(ctx, scaledRequest(t, 12)); err != nil {
		t.Fatal(err)
	}
	started.Wait()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitFor(t, "drain to stop intake", srv.sched.isDraining)
	if st, err = cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	checkStatsSources(t, srv, st)
	if !st.Scheduler.Draining || st.Scheduler.Running != 1 {
		t.Errorf("during drain: draining=%v running=%d, want true and 1", st.Scheduler.Draining, st.Scheduler.Running)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}

// TestStatsSubtreesNullWhenDisabled pins cache.subtrees to null on a server
// whose subtree tier is disabled, with every other field still matching its
// source.
func TestStatsSubtreesNullWhenDisabled(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 4, SubtreeCacheBytes: -1})
	ctx := context.Background()
	st, err := cl.Submit(ctx, scaledRequest(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, cl, st.ID); fin.State != StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	waitFor(t, "idle workers", func() bool { _, running, _ := srv.sched.gauges(); return running == 0 })
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkStatsSources(t, srv, stats)
	if stats.Cache.Subtrees != nil {
		t.Errorf("cache.subtrees = %+v with the tier disabled, want null", stats.Cache.Subtrees)
	}
}
