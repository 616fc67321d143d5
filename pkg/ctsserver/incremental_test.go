package ctsserver

import (
	"context"
	"encoding/json"
	"testing"

	"repro/pkg/ctsserver/store"
)

// incrementalOf decodes the incremental block of a result, failing the test
// when the result carries none.
func incrementalOf(t *testing.T, result json.RawMessage) (reused, recomputed float64) {
	t.Helper()
	var m struct {
		Incremental *struct {
			ReusedSubtrees   float64 `json:"reusedSubtrees"`
			RecomputedMerges float64 `json:"recomputedMerges"`
		} `json:"incremental"`
	}
	if err := json.Unmarshal(result, &m); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if m.Incremental == nil {
		t.Fatal("result carries no incremental block")
	}
	return m.Incremental.ReusedSubtrees, m.Incremental.RecomputedMerges
}

// TestIncrementalBaseJob is the incremental acceptance flow: synthesize a
// base job, resubmit with one sink moved and baseJob set, and require the
// delta run to reuse cached sub-trees while producing a result bit-identical
// to a from-scratch run of the same modified sink set on a cold server.
func TestIncrementalBaseJob(t *testing.T) {
	ctx := context.Background()
	_, cl := newTestServer(t, Options{Workers: 2, QueueDepth: 8})

	base := scaledRequest(t, 48)
	stA, err := cl.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, cl, stA.ID); fin.State != StateDone {
		t.Fatalf("base job ended %s: %s", fin.State, fin.Error)
	}

	delta := base
	delta.Sinks = append([]Sink(nil), base.Sinks...)
	delta.Sinks[3].X += 40
	delta.BaseJob = stA.ID
	stB, err := cl.Submit(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	if stB.BaseJob != stA.ID {
		t.Errorf("status echoes baseJob %q, want %q", stB.BaseJob, stA.ID)
	}
	finB := waitTerminal(t, cl, stB.ID)
	if finB.State != StateDone {
		t.Fatalf("delta job ended %s: %s", finB.State, finB.Error)
	}
	if finB.CacheHit {
		t.Fatal("delta job was a result-cache hit; the perturbation did not change the key")
	}
	reused, recomputed := incrementalOf(t, finB.Result)
	if reused == 0 {
		t.Errorf("delta run reused no sub-trees (recomputed %v)", recomputed)
	}

	// Bit-identity: a cold server (fresh caches, no base job) synthesizing
	// the same modified sink set from scratch must land on the same key and
	// the same result, down to every float.
	_, cold := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	scratch := delta
	scratch.BaseJob = ""
	stC, err := cold.Submit(ctx, scratch)
	if err != nil {
		t.Fatal(err)
	}
	finC := waitTerminal(t, cold, stC.ID)
	if finC.State != StateDone {
		t.Fatalf("scratch job ended %s: %s", finC.State, finC.Error)
	}
	if finB.Key != finC.Key {
		t.Errorf("delta key %s differs from scratch key %s", finB.Key, finC.Key)
	}
	got := normalizedResult(t, finB.Result)
	want := normalizedResult(t, finC.Result)
	// Only the delta run reports reuse accounting; everything else must
	// match exactly.
	delete(got, "incremental")
	delete(want, "incremental")
	if gotJSON, wantJSON := mustJSON(t, got), mustJSON(t, want); gotJSON != wantJSON {
		t.Errorf("delta result differs from from-scratch run:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// The subtree tier must report the reuse.
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sub := stats.Cache.Subtrees
	if sub == nil {
		t.Fatal("stats carry no subtree tier")
	}
	if sub.MemoryHits == 0 || sub.Entries == 0 {
		t.Errorf("subtree tier saw no reuse: %+v", sub)
	}
}

// TestBaseJobErrors pins the structured rejections of the baseJob field.
func TestBaseJobErrors(t *testing.T) {
	ctx := context.Background()

	_, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	req := scaledRequest(t, 8)
	req.BaseJob = "job-never-was"
	if _, err := cl.Submit(ctx, req); err == nil {
		t.Error("unknown base job: want 404")
	} else if ae, ok := err.(*APIError); !ok || ae.HTTPStatus != 404 || ae.Code != ErrUnknownBase {
		t.Errorf("unknown base job: %v", err)
	}

	_, cl2 := newTestServer(t, Options{Workers: 1, QueueDepth: 4, SubtreeCacheBytes: -1})
	req2 := scaledRequest(t, 8)
	req2.BaseJob = "anything"
	if _, err := cl2.Submit(ctx, req2); err == nil {
		t.Error("incremental disabled: want 400")
	} else if ae, ok := err.(*APIError); !ok || ae.HTTPStatus != 400 || ae.Code != ErrIncrementalDisabled {
		t.Errorf("incremental disabled: %v", err)
	}
	// Without baseJob the disabled server still synthesizes normally.
	st, err := cl2.Submit(ctx, scaledRequest(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, cl2, st.ID); fin.State != StateDone {
		t.Fatalf("plain job on subtree-disabled server ended %s: %s", fin.State, fin.Error)
	}
}

// TestCacheHitCounterSplit pins the memory-hit / disk-hit split of the
// result-cache counters: a same-process resubmission is a memory hit, a
// post-restart resubmission is a disk hit, and Hits stays their sum.
func TestCacheHitCounterSplit(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	req := scaledRequest(t, 16)

	srv1, cl1 := newTestServer(t, Options{Workers: 1, QueueDepth: 4, CacheDir: dir})
	st, err := cl1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, cl1, st.ID)
	if st2, err := cl1.Submit(ctx, req); err != nil {
		t.Fatal(err)
	} else if !st2.CacheHit {
		t.Fatal("same-process resubmission missed the cache")
	}
	stats, err := cl1.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c := stats.Cache; c.MemoryHits != 1 || c.DiskHits != 0 || c.Hits != 1 {
		t.Errorf("after memory hit: memoryHits=%d diskHits=%d hits=%d, want 1/0/1",
			c.MemoryHits, c.DiskHits, c.Hits)
	}
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	_, cl2 := newTestServer(t, Options{Workers: 1, QueueDepth: 4, CacheDir: dir})
	if st3, err := cl2.Submit(ctx, req); err != nil {
		t.Fatal(err)
	} else if !st3.CacheHit {
		t.Fatal("post-restart resubmission missed the disk tier")
	}
	stats2, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c := stats2.Cache; c.MemoryHits != 0 || c.DiskHits != 1 || c.Hits != 1 {
		t.Errorf("after disk hit: memoryHits=%d diskHits=%d hits=%d, want 0/1/1",
			c.MemoryHits, c.DiskHits, c.Hits)
	}
}

// TestSubtreeTier pins the two-tier routing of the subtree cache directly:
// small values stay memory-only, coarse values write through to disk, a
// memory miss promotes a disk hit back into memory, and every path lands in
// the right stats counter.
func TestSubtreeTier(t *testing.T) {
	disk, err := store.Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tier := newTier(subtreeKind, 1<<20, disk, nil)

	small := []byte("tiny")
	coarse := make([]byte, subtreeDiskMinBytes)
	tier.Put("small", small)
	tier.Put("coarse", coarse)
	if _, ok := disk.Get("small"); ok {
		t.Error("sub-floor value reached the disk tier")
	}
	if _, ok := disk.Get("coarse"); !ok {
		t.Error("coarse value did not write through to disk")
	}

	if v, ok := tier.Get("small"); !ok || string(v) != "tiny" {
		t.Fatalf("memory get: %q %v", v, ok)
	}
	if _, ok := tier.Get("absent"); ok {
		t.Fatal("absent key reported a hit")
	}

	// A fresh tier over the same store models a restart: the coarse value
	// comes back from disk (one disk hit) and is promoted, so the second
	// read is a memory hit; the small value is gone.
	tier2 := newTier(subtreeKind, 1<<20, disk, nil)
	if _, ok := tier2.Get("coarse"); !ok {
		t.Fatal("coarse value lost across restart")
	}
	if _, ok := tier2.Get("coarse"); !ok {
		t.Fatal("promoted value missing from memory")
	}
	if _, ok := tier2.Get("small"); ok {
		t.Fatal("small value survived restart without a disk tier entry")
	}
	st := tier2.stats()
	if st.MemoryHits != 1 || st.DiskHits != 1 || st.Misses != 1 {
		t.Errorf("tier stats: %+v, want memoryHits=1 diskHits=1 misses=1", st)
	}
	if st.Disk == nil || st.Disk.Entries != 1 {
		t.Errorf("disk snapshot: %+v", st.Disk)
	}
}
