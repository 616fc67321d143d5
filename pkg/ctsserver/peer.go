package ctsserver

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// peerDownCooldown is how long a peer that failed at the transport level is
// skipped before lookups try it again.  Peer reads are a latency
// optimization in front of synthesis, so a dead sibling must not tax every
// local cache miss with a connect timeout; a few seconds of cooldown bounds
// that tax while still noticing recovery quickly.
const peerDownCooldown = 5 * time.Second

// peerTimeout bounds one peer cache read.  Cached values are served from
// memory or one disk read on the peer, so anything slower than this is
// effectively down.
const peerTimeout = 2 * time.Second

// peerBodyLimit bounds a peer response body (a result JSON or one encoded
// sub-tree); it mirrors the request-size bound of the public API.
const peerBodyLimit = maxRequestBytes

// peerSet is a member's view of its sibling ctsd instances, consulted on
// local cache misses before synthesizing (the cluster's "any node can serve
// any key" property, and the lazy-rebalance path after membership changes:
// a key's new owner serves it from the old owner's cache until it is
// re-cached locally).  The set is mutable — SetPeers may install or replace
// it on a running server — and safe for concurrent use.
type peerSet struct {
	client *http.Client

	mu        sync.Mutex
	urls      []string             // guarded by mu
	downUntil map[string]time.Time // guarded by mu
}

// newPeerSet builds a peer set over sibling base URLs.
func newPeerSet(urls []string) *peerSet {
	p := &peerSet{
		client:    &http.Client{Timeout: peerTimeout},
		downUntil: map[string]time.Time{},
	}
	p.set(urls)
	return p
}

// set replaces the peer list.
func (p *peerSet) set(urls []string) {
	clean := make([]string, 0, len(urls))
	for _, u := range urls {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			clean = append(clean, u)
		}
	}
	p.mu.Lock()
	p.urls = clean
	p.mu.Unlock()
}

// list snapshots the peers that are not in a failure cooldown.
func (p *peerSet) list() []string {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.urls))
	for _, u := range p.urls {
		if now.After(p.downUntil[u]) {
			out = append(out, u)
		}
	}
	return out
}

// markDown starts a failure cooldown for one peer.
func (p *peerSet) markDown(u string) {
	p.mu.Lock()
	p.downUntil[u] = time.Now().Add(peerDownCooldown)
	p.mu.Unlock()
}

// fetch asks each available peer for the path in list order and returns the
// first 200 body that valid accepts.  A 404 or a rejected body means the
// peer has no usable entry (keep asking the others); a transport failure
// puts the peer in cooldown.
func (p *peerSet) fetch(path string, valid func([]byte) bool) ([]byte, bool) {
	for _, u := range p.list() {
		resp, err := p.client.Get(u + path)
		if err != nil {
			p.markDown(u)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, peerBodyLimit))
		resp.Body.Close()
		if err != nil {
			p.markDown(u)
			continue
		}
		if valid(data) {
			return data, true
		}
	}
	return nil, false
}

// SetPeers installs (or replaces) the sibling member base URLs this server
// consults on local cache misses: a result-cache miss at submission asks
// each peer's /v1/peer/result endpoint before synthesizing, and a subtree
// miss on an incremental run asks /v1/peer/subtree before recomputing the
// merge.  A peer hit is re-cached locally, which is the cluster's lazy
// rebalance: after a membership change, a key's new owner serves it from the
// old owner's cache once and locally ever after.  Safe to call on a running
// server; an empty list disables peer lookups.
func (s *Server) SetPeers(urls []string) {
	s.peers.set(urls)
}

// servePeer implements GET /v1/peer/result/{key} and /v1/peer/subtree/{key}
// over one tier: memory and disk only, never this server's own peers (one
// hop, no fan-out).  200 with the raw value in the tier's content type; 404
// on a miss or when the tier is disabled (a nil t).
func (t *tier) servePeer(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if t != nil {
		if data, ok := t.getLocal(key); ok {
			w.Header().Set("Content-Type", t.contentType)
			_, _ = w.Write(data)
			return
		}
	}
	writeError(w, &APIError{HTTPStatus: http.StatusNotFound, Code: ErrNotFound,
		Message: fmt.Sprintf("no cached value for key %q", key)})
}
