package clustertest

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/pkg/ctsserver"
)

// checkMergedIsMemberSum pins the gateway's merged /v1/stats view to its
// members' own stats: every counter and occupancy field is the sum over the
// healthy members, draining is their OR, uptime the largest member value,
// and the latency summaries and disk snapshots are absent.
func checkMergedIsMemberSum(t *testing.T, cs *ctsserver.ClusterStats) {
	t.Helper()
	var want ctsserver.Stats
	want.Scheduler.QueuedByPriority = map[ctsserver.Priority]int{}
	wantSub := ctsserver.SubtreeStats{}
	hasSub := false
	type stageSum struct {
		count   int
		total   time.Duration
		buckets []int
	}
	stages := map[string]*stageSum{}
	healthy := 0
	for _, m := range cs.Members {
		if !m.Healthy {
			continue
		}
		healthy++
		st := m.Stats
		w, s := &want.Scheduler, st.Scheduler
		w.Workers += s.Workers
		w.QueueDepth += s.QueueDepth
		w.Queued += s.Queued
		for p, n := range s.QueuedByPriority {
			w.QueuedByPriority[p] += n
		}
		w.Running += s.Running
		w.Submitted += s.Submitted
		w.Completed += s.Completed
		w.Failed += s.Failed
		w.Canceled += s.Canceled
		w.Expired += s.Expired
		w.Rejected += s.Rejected
		w.CacheHits += s.CacheHits
		w.Draining = w.Draining || s.Draining

		c, mc := &want.Cache, st.Cache
		c.Entries += mc.Entries
		c.Bytes += mc.Bytes
		c.MaxBytes += mc.MaxBytes
		c.Hits += mc.Hits
		c.MemoryHits += mc.MemoryHits
		c.DiskHits += mc.DiskHits
		c.PeerHits += mc.PeerHits
		c.Misses += mc.Misses
		c.Evictions += mc.Evictions
		if ms := mc.Subtrees; ms != nil {
			hasSub = true
			wantSub.Entries += ms.Entries
			wantSub.Bytes += ms.Bytes
			wantSub.MaxBytes += ms.MaxBytes
			wantSub.MemoryHits += ms.MemoryHits
			wantSub.DiskHits += ms.DiskHits
			wantSub.PeerHits += ms.PeerHits
			wantSub.Misses += ms.Misses
			wantSub.Evictions += ms.Evictions
		}

		g, mm := &want.Metrics, st.Metrics
		g.FlowsStarted += mm.FlowsStarted
		g.FlowsDone += mm.FlowsDone
		g.FlowsFailed += mm.FlowsFailed
		g.Levels += mm.Levels
		g.Pairs += mm.Pairs
		g.Flips += mm.Flips
		g.Reused += mm.Reused
		for name, sm := range mm.Stages {
			agg := stages[name]
			if agg == nil {
				agg = &stageSum{}
				stages[name] = agg
			}
			agg.count += sm.Count
			agg.total += sm.Total
			for i, n := range sm.Buckets {
				for len(agg.buckets) <= i {
					agg.buckets = append(agg.buckets, 0)
				}
				agg.buckets[i] += n
			}
		}
		want.UptimeSeconds = max(want.UptimeSeconds, st.UptimeSeconds)
	}
	if healthy == 0 {
		t.Fatal("no healthy member to sum")
	}

	got := cs.Merged
	if !reflect.DeepEqual(got.Scheduler, want.Scheduler) {
		t.Errorf("merged scheduler = %+v\nmember sum         %+v", got.Scheduler, want.Scheduler)
	}
	gotCache := got.Cache
	gotCache.Subtrees = nil
	if !reflect.DeepEqual(gotCache, want.Cache) {
		t.Errorf("merged cache = %+v\nmember sum     %+v", gotCache, want.Cache)
	}
	switch {
	case hasSub != (got.Cache.Subtrees != nil):
		t.Errorf("merged cache.subtrees = %+v, want present exactly when a member has the tier (%v)", got.Cache.Subtrees, hasSub)
	case hasSub && !reflect.DeepEqual(*got.Cache.Subtrees, wantSub):
		t.Errorf("merged cache.subtrees = %+v\nmember sum              %+v", *got.Cache.Subtrees, wantSub)
	}
	gm, wm := got.Metrics, want.Metrics
	if gm.FlowsStarted != wm.FlowsStarted || gm.FlowsDone != wm.FlowsDone || gm.FlowsFailed != wm.FlowsFailed ||
		gm.Levels != wm.Levels || gm.Pairs != wm.Pairs || gm.Flips != wm.Flips || gm.Reused != wm.Reused {
		t.Errorf("merged metrics counters = %+v\nmember sum                %+v", gm, wm)
	}
	if len(gm.Stages) != len(stages) {
		t.Errorf("merged metrics lists %d stages, members %d", len(gm.Stages), len(stages))
	}
	for name, w := range stages {
		g, ok := gm.Stages[name]
		if !ok {
			t.Errorf("merged metrics lacks stage %q", name)
			continue
		}
		if g.Count != w.count || len(g.Buckets) != len(w.buckets) {
			t.Errorf("stage %s: merged count %d over %d buckets, members %d over %d",
				name, g.Count, len(g.Buckets), w.count, len(w.buckets))
			continue
		}
		for i, n := range g.Buckets {
			if n != w.buckets[i] {
				t.Errorf("stage %s bucket %d: merged %d, members %d", name, i, n, w.buckets[i])
			}
		}
		if d := g.Total - w.total; d > time.Microsecond*time.Duration(healthy) || d < -time.Microsecond*time.Duration(healthy) {
			t.Errorf("stage %s: merged total %v, member sum %v", name, g.Total, w.total)
		}
	}
	if got.UptimeSeconds != want.UptimeSeconds {
		t.Errorf("merged uptime %v, want the largest member value %v", got.UptimeSeconds, want.UptimeSeconds)
	}
	if got.Latency != nil || got.Cache.Disk != nil || (got.Cache.Subtrees != nil && got.Cache.Subtrees.Disk != nil) {
		t.Errorf("merged view carries latency %v or a disk snapshot %+v", got.Latency, got.Cache)
	}
}

// waitIdle waits until no member has a job queued or running, so the
// counters hold still between reads.
func waitIdle(t *testing.T, c *Cluster) {
	t.Helper()
	waitFor(t, "idle members", func() bool {
		for _, m := range c.Alive() {
			st, err := m.Client.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Scheduler.Queued != 0 || st.Scheduler.Running != 0 {
				return false
			}
		}
		return true
	})
}

// TestClusterMergedIsMemberSum drives synthesized jobs, a gateway cache
// hit, a peer hit and a baseJob delta through a cluster whose members keep
// disk tiers, then pins the merged view to the member sum: whole, after a
// member dies, and while a survivor drains.
func TestClusterMergedIsMemberSum(t *testing.T) {
	c := New(t, Options{Server: func(i int, o *ctsserver.Options) { o.CacheDir = t.TempDir() }})
	ctx := context.Background()
	run := func(cl *ctsserver.Client, req ctsserver.JobRequest) *ctsserver.JobStatus {
		t.Helper()
		st, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		fin := waitTerminal(t, cl, st.ID)
		if fin.State != ctsserver.StateDone {
			t.Fatalf("job ended %s: %s", fin.State, fin.Error)
		}
		return fin
	}
	base := scaledRequest(t, 40)
	baseSt := run(c.Client, base)
	for _, n := range []int{16, 24, 32} {
		run(c.Client, scaledRequest(t, n))
	}
	if hit := run(c.Client, base); !hit.CacheHit {
		t.Fatal("gateway resubmission was not a cache hit")
	}
	owner := c.Gateway.MemberFor(baseSt.Key)
	for _, m := range c.Members {
		if m.URL != owner {
			if hit := run(m.Client, base); !hit.CacheHit {
				t.Fatal("sibling resubmission was not a (peer) cache hit")
			}
			break
		}
	}
	delta := moved(base, 5, 0, 30)
	delta.BaseJob = baseSt.ID
	run(c.Client, delta)
	waitIdle(t, c)

	cs := clusterStats(t, c.GatewayURL)
	checkMergedIsMemberSum(t, cs)
	if m := cs.Merged; m.Cache.PeerHits == 0 || m.Scheduler.CacheHits < 2 || m.Cache.Subtrees == nil ||
		m.Cache.Subtrees.MemoryHits == 0 || m.Metrics.Reused == 0 || len(m.Metrics.Stages) == 0 {
		t.Errorf("the jobs did not exercise every merged field: %+v", m)
	}
	for _, m := range cs.Members {
		if m.Stats.Cache.Disk == nil {
			t.Errorf("member %s reports no disk tier", m.URL)
		}
	}

	c.Kill(c.Members[0])
	waitFor(t, "the dead member in /v1/stats", func() bool {
		cs = clusterStats(t, c.GatewayURL)
		return cs.Gateway.Healthy == 2
	})
	checkMergedIsMemberSum(t, cs)

	if err := c.Members[1].Server.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cs = clusterStats(t, c.GatewayURL)
	checkMergedIsMemberSum(t, cs)
	if !cs.Merged.Scheduler.Draining {
		t.Error("merged draining is false with a draining member")
	}
}
