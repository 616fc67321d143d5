package ctsserver

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/tech"
	"repro/pkg/cts"
)

// junkPeer is a sibling that answers 200 with the same body for every key.
func junkPeer(t *testing.T, body []byte) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestPeerJunkResultRejected points a member at a peer whose 200 bodies are
// not results.  The member must synthesize instead of serving them, count no
// peer hit, and keep only the real result in memory and on disk.
func TestPeerJunkResultRejected(t *testing.T) {
	for _, junk := range []string{
		"<html><body>502 Bad Gateway</body></html>",
		`{"hello":"world"}`,
		`{"settings":{},"stats":{"sinks":0}}`,
		`{"settings":{},"stats":{"sinks":16}`,
	} {
		dir := t.TempDir()
		_, cl := newTestServer(t, Options{Workers: 1, CacheDir: dir, Peers: []string{junkPeer(t, []byte(junk))}})
		ctx := context.Background()
		req := scaledRequest(t, 16)

		st, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit {
			t.Fatalf("%s: the peer's body was served as a cache hit: %s", junk, st.Result)
		}
		first := waitTerminal(t, cl, st.ID)
		if first.State != StateDone || first.CacheHit {
			t.Fatalf("%s: first run: %+v", junk, first)
		}
		res := normalizedResult(t, first.Result)
		if res["settings"] == nil || res["stats"] == nil {
			t.Fatalf("%s: first run's result is not a Result: %s", junk, first.Result)
		}

		again, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit || !reflect.DeepEqual(normalizedResult(t, again.Result), res) {
			t.Fatalf("%s: resubmission: cacheHit=%v result %s", junk, again.CacheHit, again.Result)
		}
		stats, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c := stats.Cache; c.PeerHits != 0 || c.MemoryHits != 1 {
			t.Fatalf("%s: peerHits=%d memoryHits=%d, want 0/1", junk, c.PeerHits, c.MemoryHits)
		}

		// A fresh server over the same directory finds the real result on
		// disk.
		_, cl2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
		disk, err := cl2.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !disk.CacheHit || !reflect.DeepEqual(normalizedResult(t, disk.Result), res) {
			t.Fatalf("%s: after restart: cacheHit=%v result %s", junk, disk.CacheHit, disk.Result)
		}
	}
}

// subtreeRecorder keeps the first sub-tree value a flow writes.
type subtreeRecorder struct {
	mu    sync.Mutex
	value []byte
}

func (r *subtreeRecorder) Get(string) ([]byte, bool) { return nil, false }

func (r *subtreeRecorder) Put(_ string, value []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.value == nil {
		r.value = value
	}
}

// TestTierRejectsJunkPeerSubtree asks the subtree tier for a key only a junk
// peer answers: every body that fails the codec's checksum is a miss, and a
// later Put of the real value is what the tier serves.
func TestTierRejectsJunkPeerSubtree(t *testing.T) {
	rec := &subtreeRecorder{}
	flow, err := cts.New(tech.Default(), cts.WithSubtreeCache(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flow.Run(context.Background(), SinksToCTS(scaledRequest(t, 8).Sinks)); err != nil {
		t.Fatal(err)
	}
	real := rec.value
	flipped := append([]byte(nil), real...)
	flipped[len(flipped)/2] ^= 1

	for _, junk := range [][]byte{[]byte("<html></html>"), real[:len(real)-1], flipped} {
		tier := newTier(subtreeKind, 1<<20, nil, newPeerSet([]string{junkPeer(t, junk)}))
		if v, ok := tier.Get("k"); ok {
			t.Fatalf("junk peer value served: %q", v)
		}
		tier.Put("k", real)
		if v, ok := tier.Get("k"); !ok || !bytes.Equal(v, real) {
			t.Fatalf("after Put: %v, want the real value", ok)
		}
		if st := tier.stats(); st.PeerHits != 0 || st.Misses != 1 || st.MemoryHits != 1 {
			t.Fatalf("tier stats: %+v, want peerHits=0 misses=1 memoryHits=1", st)
		}
	}
}

// TestPeerHitCountsOnce pins the counter rule of both tiers on a result
// served by a sibling: the entry member counts one peer hit and no miss, and
// the sibling counts the probe only as the memory hit it was.
func TestPeerHitCountsOnce(t *testing.T) {
	owner, ocl := newTestServer(t, Options{Workers: 1})
	entry, ecl := newTestServer(t, Options{Workers: 1})
	owner.SetPeers([]string{ecl.BaseURL})
	entry.SetPeers([]string{ocl.BaseURL})
	ctx := context.Background()
	req := scaledRequest(t, 16)

	st, err := ocl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ocl, st.ID)
	if est, err := ecl.Submit(ctx, req); err != nil || !est.CacheHit {
		t.Fatalf("entry submission: %+v %v", est, err)
	}

	for _, m := range []struct {
		cl                         *Client
		memory, disk, peer, misses int64
	}{
		{ocl, 1, 0, 0, 1}, // its own cold lookup, then the entry's probe
		{ecl, 0, 0, 1, 0},
	} {
		stats, err := m.cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		c := stats.Cache
		if c.MemoryHits != m.memory || c.DiskHits != m.disk || c.PeerHits != m.peer || c.Misses != m.misses {
			t.Errorf("%s: memory/disk/peer/misses = %d/%d/%d/%d, want %d/%d/%d/%d", m.cl.BaseURL,
				c.MemoryHits, c.DiskHits, c.PeerHits, c.Misses, m.memory, m.disk, m.peer, m.misses)
		}
	}
}

// TestCooldown pins the cluster's one liveness rule: a URL is up until it is
// marked down, down until its deadline passes, and up again after; a peer
// set lists only the siblings that are up.
func TestCooldown(t *testing.T) {
	var c cooldown
	const u = "http://member-a"
	if !c.up(u) {
		t.Fatal("a URL that never failed is down")
	}
	c.markDown(u)
	if c.up(u) {
		t.Fatal("a URL just marked down is up")
	}
	c.mu.Lock()
	c.downUntil[u] = time.Now().Add(-time.Nanosecond)
	c.mu.Unlock()
	if !c.up(u) {
		t.Fatal("a URL whose cooldown has passed is still down")
	}

	p := newPeerSet([]string{" http://peer-a/ ", "http://peer-b", ""})
	if got, want := p.list(), []string{"http://peer-a", "http://peer-b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("peer list %v, want %v", got, want)
	}
	p.down.markDown("http://peer-a")
	if got, want := p.list(), []string{"http://peer-b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("peer list with peer-a cooling down: %v, want %v", got, want)
	}
}
