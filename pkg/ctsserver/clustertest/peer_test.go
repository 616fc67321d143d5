package clustertest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/charlib"
	"repro/internal/mergeroute"
	"repro/internal/tech"
	"repro/pkg/cts"
	"repro/pkg/ctsserver"
)

// singleNode runs a request on a fresh standalone server with cold caches
// and returns its terminal status.
func singleNode(t *testing.T, req ctsserver.JobRequest) *ctsserver.JobStatus {
	t.Helper()
	tc := tech.Default()
	s, err := ctsserver.New(ctsserver.Options{Tech: tc, Library: charlib.NewAnalytic(tc), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	cl := ctsserver.NewClient(ts.URL)
	st, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, cl, st.ID)
	if final.State != ctsserver.StateDone {
		t.Fatalf("single-node run: %+v", final)
	}
	return final
}

// keyRecorder is a subtree cache that remembers every key written to it.
type keyRecorder struct {
	*cts.MemorySubtreeCache
	mu   sync.Mutex
	keys []string
}

func (r *keyRecorder) Put(key string, value []byte) {
	r.mu.Lock()
	r.keys = append(r.keys, key)
	r.mu.Unlock()
	r.MemorySubtreeCache.Put(key, value)
}

// subtreeKeyOf returns one sub-tree key a server holds after synthesizing
// the request: synthesis is deterministic, so a local run of the same sinks
// under the same default settings writes exactly the server's keys.
func subtreeKeyOf(t *testing.T, req ctsserver.JobRequest) string {
	t.Helper()
	tc := tech.Default()
	rec := &keyRecorder{MemorySubtreeCache: cts.NewMemorySubtreeCache(0)}
	flow, err := cts.New(tc, cts.WithLibrary(charlib.NewAnalytic(tc)), cts.WithSubtreeCache(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flow.Run(context.Background(), ctsserver.SinksToCTS(req.Sinks)); err != nil {
		t.Fatal(err)
	}
	if len(rec.keys) == 0 {
		t.Fatal("the run wrote no sub-trees")
	}
	sort.Strings(rec.keys)
	return rec.keys[0]
}

// withoutIncremental is normalizedResult without the incremental block,
// which only a delta run carries.
func withoutIncremental(t *testing.T, data []byte) map[string]any {
	t.Helper()
	m := normalizedResult(t, data)
	delete(m, "incremental")
	return m
}

// TestClusterDeltaOnPeerServedBase runs a delta on a member that never
// synthesized the base: it only served the base from a sibling's result
// cache.  Its own subtree tiers are empty, so the reused merges must come
// from the sibling's /v1/peer/subtree, and the result must still match a
// plain single-node run of the same sinks.
func TestClusterDeltaOnPeerServedBase(t *testing.T) {
	c := New(t, Options{Server: func(i int, o *ctsserver.Options) { o.CacheDir = t.TempDir() }})
	ctx := context.Background()
	owner, entry := c.Members[0], c.Members[1]

	base := scaledRequest(t, 48)
	st, err := owner.Client.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, owner.Client, st.ID); fin.State != ctsserver.StateDone {
		t.Fatalf("base run: %+v", fin)
	}
	bst, err := entry.Client.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if !bst.CacheHit || bst.State != ctsserver.StateDone {
		t.Fatalf("base resubmission on the entry member was not peer-served: %+v", bst)
	}

	delta := moved(base, 7, 40, 0)
	delta.BaseJob = bst.ID
	dst, err := entry.Client.Submit(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, entry.Client, dst.ID)
	if final.State != ctsserver.StateDone || final.CacheHit {
		t.Fatalf("delta: %+v", final)
	}
	if inc := decodeResult(t, final).Incremental; inc == nil || inc.ReusedSubtrees == 0 {
		t.Fatalf("delta reused no sub-trees: %+v", inc)
	}
	stats, err := entry.Client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sub := stats.Cache.Subtrees; sub == nil || sub.PeerHits == 0 {
		t.Fatalf("entry member's subtree peer hits: %+v", sub)
	}
	if n := entry.Server.Metrics().Snapshot().FlowsStarted; n != 1 {
		t.Fatalf("entry member started %d flows, want only the delta", n)
	}

	plain := delta
	plain.BaseJob = ""
	got, want := withoutIncremental(t, final.Result), withoutIncremental(t, singleNode(t, plain).Result)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("delta over peer-served sub-trees differs from a plain single-node run")
	}
}

// TestClusterPeerServedResultSurvivesRestart asserts a peer-served result
// is re-cached on the entry member's disk tier: a new server over that
// member's cache directory, with no peers, answers the resubmission from
// disk without synthesis.
func TestClusterPeerServedResultSurvivesRestart(t *testing.T) {
	dirs := make([]string, 3)
	c := New(t, Options{Server: func(i int, o *ctsserver.Options) {
		dirs[i] = t.TempDir()
		o.CacheDir = dirs[i]
	}})
	ctx := context.Background()
	owner, entry := c.Members[0], c.Members[1]

	req := scaledRequest(t, 32)
	st, err := owner.Client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, owner.Client, st.ID)
	if first.State != ctsserver.StateDone {
		t.Fatalf("first run: %+v", first)
	}
	est, err := entry.Client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !est.CacheHit {
		t.Fatalf("entry member did not serve the key from its peer: %+v", est)
	}
	c.Kill(entry)

	tc := tech.Default()
	restarted, err := ctsserver.New(ctsserver.Options{Tech: tc, Library: charlib.NewAnalytic(tc), Workers: 1, CacheDir: dirs[1]})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(restarted)
	defer ts.Close()
	cl := ctsserver.NewClient(ts.URL)
	rst, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !rst.CacheHit || rst.State != ctsserver.StateDone {
		t.Fatalf("resubmission after restart: %+v", rst)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.DiskHits != 1 || stats.Metrics.FlowsStarted != 0 {
		t.Fatalf("after restart: diskHits=%d flowsStarted=%d, want 1/0",
			stats.Cache.DiskHits, stats.Metrics.FlowsStarted)
	}
	if !reflect.DeepEqual(normalizedResult(t, rst.Result), normalizedResult(t, first.Result)) {
		t.Fatal("restart-served result differs from the original")
	}
}

// TestClusterPeerEndpoints pins the sibling cache protocol: a member serves
// what it holds with each route's content type, and answers 404 not-found
// for an unknown key, for a sub-tree when its subtree tier is disabled, and
// for a key only a sibling holds — a peer read never fans out.
func TestClusterPeerEndpoints(t *testing.T) {
	c := New(t, Options{Server: func(i int, o *ctsserver.Options) {
		if i == 2 {
			o.SubtreeCacheBytes = -1
		}
	}})
	ctx := context.Background()
	owner, sibling, noSubtrees := c.Members[0], c.Members[1], c.Members[2]

	req := scaledRequest(t, 32)
	st, err := owner.Client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, owner.Client, st.ID)
	if first.State != ctsserver.StateDone {
		t.Fatalf("run: %+v", first)
	}
	skey := subtreeKeyOf(t, req)

	code, hdr, body := rawCall(t, http.MethodGet, owner.URL+"/v1/peer/result/"+st.Key, nil)
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("owner's result read: %d %q", code, hdr.Get("Content-Type"))
	}
	if !reflect.DeepEqual(normalizedResult(t, body), normalizedResult(t, first.Result)) {
		t.Fatal("owner's peer result differs from the job's result")
	}
	code, hdr, body = rawCall(t, http.MethodGet, owner.URL+"/v1/peer/subtree/"+skey, nil)
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("owner's sub-tree read: %d %q", code, hdr.Get("Content-Type"))
	}
	if _, _, err := mergeroute.DecodeSubtree(body); err != nil {
		t.Fatalf("owner served an undecodable sub-tree: %v", err)
	}

	unknown := strings.Repeat("0", 64)
	for _, tc := range []struct {
		name, url string
	}{
		{"unknown result", owner.URL + "/v1/peer/result/" + unknown},
		{"unknown sub-tree", owner.URL + "/v1/peer/subtree/" + unknown},
		{"subtree tier disabled", noSubtrees.URL + "/v1/peer/subtree/" + skey},
		{"result only a sibling holds", sibling.URL + "/v1/peer/result/" + st.Key},
		{"sub-tree only a sibling holds", sibling.URL + "/v1/peer/subtree/" + skey},
	} {
		// Twice: a probe that fanned out would re-cache the sibling's value
		// and answer 200 the second time.
		for i := 0; i < 2; i++ {
			code, _, body := rawCall(t, http.MethodGet, tc.url, nil)
			if code != http.StatusNotFound {
				t.Fatalf("%s: status %d, want 404", tc.name, code)
			}
			if e := decodeError(t, body); e.Code != ctsserver.ErrNotFound {
				t.Fatalf("%s: code %q, want %q", tc.name, e.Code, ctsserver.ErrNotFound)
			}
		}
	}
}
