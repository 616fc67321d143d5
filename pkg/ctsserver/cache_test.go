package ctsserver

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestResultCacheLRUByteBudget(t *testing.T) {
	payload := func(i int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"x":%04d}`, i)) // 10 bytes each
	}
	c := newTier(resultKind, 30, nil, nil) // fits three entries
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), payload(i))
	}
	if st := c.stats(); st.Entries != 3 || st.Bytes != 30 {
		t.Fatalf("stats after 3 puts: %+v", st)
	}

	// Touch k0 so k1 is the LRU entry, then overflow.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k3", payload(3))
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 survived eviction, want LRU evicted")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	st := c.stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Errorf("stats after eviction: %+v", st)
	}

	// An entry larger than the whole budget is not stored.
	c.Put("huge", json.RawMessage(make([]byte, 64)))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized entry was stored")
	}

	// Re-putting an existing key refreshes recency instead of duplicating.
	c.Put("k2", payload(2))
	if st := c.stats(); st.Entries != 3 || st.Bytes != 30 {
		t.Errorf("stats after re-put: %+v", st)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newTier(resultKind, -1, nil, nil)
	c.Put("k", json.RawMessage(`{}`))
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache served a hit")
	}
	if st := c.stats(); st.Entries != 0 || st.Misses != 1 {
		t.Errorf("disabled cache stats: %+v", st)
	}
}
