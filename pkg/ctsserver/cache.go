package ctsserver

import (
	"encoding/json"
	"net/url"
	"sync/atomic"

	"repro/internal/mergeroute"
	"repro/pkg/cts"
	"repro/pkg/ctsserver/store"
)

// subtreeDiskMinBytes is the subtree tier's disk write-through floor.  Each
// disk write pays a file creation, an fsync and a rename — 0.8 to 1.1 ms per
// entry in BenchmarkStorePut on a 2-core host, whatever the value's size —
// and a 1,024-sink job makes about 1,000 merges, so persisting every tiny
// leaf-adjacent merge would add about a second of write-through to one
// synthesis.  Coarse sub-trees are where the reuse value is — one
// hit near the root stands in for a whole region — so only values at least
// this large go to disk; the memory level holds everything.
const subtreeDiskMinBytes = 16 << 10

// tierKind is what differs between the server's two tiers: the sibling
// endpoint their values travel over, the disk floor, and the check a
// sibling's value must pass before it is kept or served.
type tierKind struct {
	route       string            // peer endpoint; the escaped key follows it
	contentType string            // the peer endpoint's response type
	floor       int               // smallest value written through to disk
	valid       func([]byte) bool // accepts a sibling's value
}

var (
	// resultKind caches rendered cts.Result JSON under the canonical request
	// key (cts.CanonicalKey plus the verify marker).
	resultKind = tierKind{"/v1/peer/result/", "application/json", 0, validResult}
	// subtreeKind caches encoded sub-trees (internal/mergeroute's codec)
	// under the keys the flow's level loop gives them.
	subtreeKind = tierKind{"/v1/peer/subtree/", "application/octet-stream", subtreeDiskMinBytes, validSubtree}
)

// tier is one content-addressed cache of the server, three levels deep: a
// byte-budgeted memory LRU, an optional disk store that survives restarts,
// and the sibling members of a cluster.  Synthesis is deterministic, so a
// value found at any level is the one a fresh run would produce.  The server
// keeps two tiers: the result cache, and the subtree cache that every job's
// flow shares (tier implements cts.SubtreeCache), which is what lets a delta
// job reuse its base job's merges.
type tier struct {
	tierKind
	mem      *cts.MemorySubtreeCache // nil when the memory level is disabled
	maxBytes int64                   // the memory budget as configured
	disk     *store.Store            // nil without a cache directory
	peers    *peerSet                // nil or empty on a single node

	// Every lookup a member makes for its own jobs lands in exactly one of
	// mem's hits, diskHits, peerHits or misses.
	diskHits, peerHits, misses atomic.Int64
}

// newTier builds a tier; maxBytes <= 0 disables the memory level, and disk
// and peers may be nil.
func newTier(kind tierKind, maxBytes int64, disk *store.Store, peers *peerSet) *tier {
	t := &tier{tierKind: kind, maxBytes: maxBytes, disk: disk, peers: peers}
	if maxBytes > 0 {
		t.mem = cts.NewMemorySubtreeCache(maxBytes)
	}
	return t
}

// getLocal looks the key up in memory, then on disk, promoting a disk hit
// into memory.  It never asks the peers, so the peer endpoint that serves it
// cannot fan a read out across the cluster.
func (t *tier) getLocal(key string) ([]byte, bool) {
	if t.mem != nil {
		if v, ok := t.mem.Get(key); ok {
			return v, true
		}
	}
	if t.disk != nil {
		if v, ok := t.disk.Get(key); ok {
			t.diskHits.Add(1)
			if t.mem != nil {
				t.mem.Put(key, v)
			}
			return v, true
		}
	}
	return nil, false
}

// Get looks the key up locally, then across the peers.  A peer's value is
// kept only if the kind's check accepts it, and is re-cached through Put:
// after a membership change a key's new owner fetches it once from the old
// owner and serves it locally ever after (the cluster's lazy rebalance).
func (t *tier) Get(key string) ([]byte, bool) {
	if v, ok := t.getLocal(key); ok {
		return v, true
	}
	if t.peers != nil {
		if v, ok := t.peers.fetch(t.route+url.PathEscape(key), t.valid); ok {
			t.peerHits.Add(1)
			t.Put(key, v)
			return v, true
		}
	}
	t.misses.Add(1)
	return nil, false
}

// Put stores the value in memory and writes it through to disk when it
// reaches the kind's floor.
func (t *tier) Put(key string, value []byte) {
	if t.mem != nil {
		t.mem.Put(key, value)
	}
	if t.disk != nil && len(value) >= t.floor {
		t.disk.Put(key, value)
	}
}

// stats snapshots the tier's occupancy and lookup counters.
func (t *tier) stats() SubtreeStats {
	st := SubtreeStats{
		MaxBytes: t.maxBytes,
		DiskHits: t.diskHits.Load(),
		PeerHits: t.peerHits.Load(),
		Misses:   t.misses.Load(),
	}
	if t.mem != nil {
		ms := t.mem.Stats()
		st.Entries, st.Bytes, st.MemoryHits, st.Evictions = ms.Entries, ms.Bytes, ms.Hits, ms.Evictions
	}
	if t.disk != nil {
		ds := t.disk.Stats()
		st.Disk = &ds
	}
	return st
}

// validResult accepts a rendered cts.Result: a JSON object carrying the
// effective settings and a positive sink count.
func validResult(data []byte) bool {
	var r struct {
		Settings *struct{} `json:"settings"`
		Stats    struct {
			Sinks int `json:"sinks"`
		} `json:"stats"`
	}
	return json.Unmarshal(data, &r) == nil && r.Settings != nil && r.Stats.Sinks > 0
}

// validSubtree accepts a value the subtree codec decodes; its checksum
// catches any corruption.
func validSubtree(data []byte) bool {
	_, _, err := mergeroute.DecodeSubtree(data)
	return err == nil
}
