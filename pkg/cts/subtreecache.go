package cts

import (
	"container/list"
	"sync"
)

// SubtreeCache is the storage interface behind WithSubtreeCache: a
// content-addressed map from a sub-tree's key (see WithSubtreeCache) to its
// encoded value (internal/mergeroute's codec format).  Implementations must
// be safe for concurrent use — a Flow's parallel merge fan-out writes
// through from multiple goroutines, and servers share one cache across
// jobs.
//
// The cache is purely an accelerator: a Get miss (or a value that fails to
// decode) makes the flow recompute the merge, so implementations may drop,
// evict or lose entries freely without affecting results.
//
// The flow hands Put values with no spare capacity (cap == len), so an
// implementation that keeps the slice and budgets by len bounds the memory
// its values actually retain.
type SubtreeCache interface {
	// Get returns the encoded sub-tree for the key, if present.
	Get(key string) ([]byte, bool)
	// Put stores the encoded sub-tree under the key.  Implementations may
	// decline (size limits, eviction) at will.
	Put(key string, value []byte)
}

// SubtreeCacheStats snapshots a MemorySubtreeCache's counters.
type SubtreeCacheStats struct {
	// Entries is the number of cached sub-trees currently resident.
	Entries int `json:"entries"`
	// Bytes is the total size of the stored values (the budget's measure).
	Bytes int64 `json:"bytes"`
	// MaxBytes is the configured byte budget; <= 0 means unbounded.
	MaxBytes int64 `json:"maxBytes"`
	// Hits counts Get calls that found their key since construction.
	Hits int64 `json:"hits"`
	// Misses counts Get calls that did not find their key.
	Misses int64 `json:"misses"`
	// Evictions counts entries removed to stay within the byte budget.
	Evictions int64 `json:"evictions"`
}

// MemorySubtreeCache is the reference SubtreeCache: an in-memory LRU bounded
// by a byte budget measured over the stored values.  It keeps the slices Put
// receives and budgets their len, so for exact-size values — every value the
// flow writes is one — the budget bounds the memory the values retain;
// per-entry map and list bookkeeping comes on top.  It is safe for
// concurrent use.
type MemorySubtreeCache struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64                    // guarded by mu
	order     *list.List               // guarded by mu; front = most recently used
	items     map[string]*list.Element // guarded by mu
	hits      int64                    // guarded by mu
	misses    int64                    // guarded by mu
	evictions int64                    // guarded by mu
}

type subtreeCacheEntry struct {
	key   string
	value []byte
}

// NewMemorySubtreeCache builds an LRU subtree cache with the byte budget;
// maxBytes <= 0 selects an unbounded cache (useful for single-run
// incremental sessions where the caller controls lifetime).
func NewMemorySubtreeCache(maxBytes int64) *MemorySubtreeCache {
	return &MemorySubtreeCache{
		maxBytes: maxBytes,
		order:    list.New(),
		items:    map[string]*list.Element{},
	}
}

// Get implements SubtreeCache, refreshing the entry's recency on a hit.
func (c *MemorySubtreeCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*subtreeCacheEntry).value, true
}

// Put implements SubtreeCache, evicting LRU entries until the byte budget
// holds again.  Values larger than the whole budget are not kept.  Identical
// keys hold identical values by construction, so a re-store only refreshes
// recency.
func (c *MemorySubtreeCache) Put(key string, value []byte) {
	size := int64(len(value))
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.items[key] = c.order.PushFront(&subtreeCacheEntry{key: key, value: value})
	c.bytes += size
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*subtreeCacheEntry)
		c.order.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.value))
		c.evictions++
	}
}

// Stats snapshots the cache counters.
func (c *MemorySubtreeCache) Stats() SubtreeCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SubtreeCacheStats{
		Entries:   len(c.items),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
