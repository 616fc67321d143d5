package ctsserver

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// downCooldown is how long a URL that failed is skipped before it is tried
// again: long enough that a dead sibling or member does not tax every peer
// read or dispatch with a failed connect, short enough to notice recovery.
const downCooldown = 5 * time.Second

// cooldown is the cluster's one liveness rule: a URL is up unless it failed
// within the last downCooldown.  Members keep one over their siblings (peer
// reads), the gateway one over its members (dispatch, baseJob affinity,
// ctsd_gateway_member_up).  The zero value is ready; safe for concurrent use.
type cooldown struct {
	mu        sync.Mutex
	downUntil map[string]time.Time // guarded by mu
}

// up reports whether u is outside a failure cooldown.
func (c *cooldown) up(u string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().After(c.downUntil[u])
}

// markDown starts (or restarts) u's failure cooldown.
func (c *cooldown) markDown(u string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.downUntil == nil {
		c.downUntil = map[string]time.Time{}
	}
	c.downUntil[u] = time.Now().Add(downCooldown)
}

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
	down   cooldown // siblings that failed at the transport level

	mu   sync.Mutex
	urls []string // guarded by mu
}

// newPeerSet builds a peer set over sibling base URLs.
func newPeerSet(urls []string) *peerSet {
	p := &peerSet{client: &http.Client{Timeout: peerTimeout}}
	p.set(urls)
	return p
}

// cleanURLs trims blanks and trailing slashes off base URLs and drops the
// empty ones, so a member is named the same by every list it appears in.
func cleanURLs(urls []string) []string {
	clean := make([]string, 0, len(urls))
	for _, u := range urls {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			clean = append(clean, u)
		}
	}
	return clean
}

// set replaces the peer list.
func (p *peerSet) set(urls []string) {
	clean := cleanURLs(urls)
	p.mu.Lock()
	p.urls = clean
	p.mu.Unlock()
}

// list snapshots the peers that are not in a failure cooldown.
func (p *peerSet) list() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.urls))
	for _, u := range p.urls {
		if p.down.up(u) {
			out = append(out, u)
		}
	}
	return out
}

// fetch asks each available peer for the path in list order and returns the
// first 200 body that valid accepts.  A 404 or a rejected body means the
// peer has no usable entry (keep asking the others); a transport failure
// puts the peer in cooldown.
func (p *peerSet) fetch(path string, valid func([]byte) bool) ([]byte, bool) {
	for _, u := range p.list() {
		resp, err := p.client.Get(u + path)
		if err != nil {
			p.down.markDown(u)
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
			p.down.markDown(u)
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
