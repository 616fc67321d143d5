package ctsserver

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// virtualNodes is the number of points each member contributes to the
// hash ring.  More points flatten the ownership distribution (the per-member
// share of keys concentrates around 1/N with a relative spread of roughly
// 1/sqrt(virtualNodes)); 200 keeps every member within a few percent of its
// fair share while ring construction and lookup stay trivially cheap.
const virtualNodes = 200

// ring is a consistent-hash ring over member base URLs.  Keys (canonical
// request keys, see cts.CanonicalKey) hash onto a 64-bit circle populated
// with virtualNodes points per member; a key is owned by the member whose
// point follows the key's hash clockwise.  The two properties the cluster leans
// on, both pinned by TestRingChurnBounded:
//
//   - Ownership is a pure function of (members, key): every gateway
//     configured with the same member list routes every key identically.
//   - Membership changes move only the keys they must: removing a member
//     reassigns exactly the keys it owned (~1/N of the space), adding one
//     claims ~1/(N+1) and disturbs nothing else.  That bounded churn is what
//     makes lazy rebalance viable — a moved key misses on its new owner
//     once, is fetched from a sibling's cache (or re-synthesized) and is
//     local from then on.
//
// The ring itself is immutable; liveness is tracked outside it (the gateway
// skips members in a failure cooldown when walking a key's replica order).
type ring struct {
	members []string // sorted unique member identities (base URLs)
	points  []ringPoint
}

// ringPoint is one virtual node: a position on the circle and the index of
// the member it belongs to.
type ringPoint struct {
	hash   uint64
	member int // index into ring.members
}

// newRing builds a ring over the member identities; duplicates are dropped
// and order does not matter (the member list is sorted, so two gateways with
// the same set in any order build identical rings).
func newRing(members []string) *ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &ring{
		members: uniq,
		points:  make([]ringPoint, 0, len(uniq)*virtualNodes),
	}
	for i, m := range uniq {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   ringHash(fmt.Sprintf("%s#%d", m, v)),
				member: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash collisions between virtual nodes are astronomically unlikely
		// but must still order deterministically.
		return r.points[a].member < r.points[b].member
	})
	return r
}

// ringHash maps a string onto the circle: the first 8 bytes of its SHA-256,
// big-endian.  Canonical keys are already SHA-256 hex, but hashing again
// keeps ring placement uniform for arbitrary member names too.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// owner returns the member that owns the key, or "" on an empty ring.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.members[r.points[r.search(key)].member]
}

// search finds the index of the first ring point at or after the key's hash
// (wrapping past the top of the circle).
func (r *ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// replicas returns every member in the key's preference order: the owner
// first, then each further member in the order their virtual nodes appear
// walking the circle clockwise from the key.  This is the failover order —
// when the owner refuses or drops a job, the gateway retries the next entry
// — and it is deterministic for a given (members, key) pair.
func (r *ring) replicas(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make(map[int]bool, len(r.members))
	start := r.search(key)
	for i := 0; len(out) < len(r.members) && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}
