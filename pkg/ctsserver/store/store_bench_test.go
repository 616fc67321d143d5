package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// The store benchmarks time Get, Put and Open at two occupancies.  Run:
//
//	go test -run '^$' -bench Store -benchmem ./pkg/ctsserver/store
//
// Each fills its directory the way an earlier process would have left it
// (entry files written as Put writes them), then opens a store over it.
// Get and Put each time two kinds of value: JSON-shaped values, which
// compress about as a rendered result does, and the largest encoded
// sub-tree of a 1,024-sink synthesis, the kind of value the subtree tier
// writes to disk.  Recorded figures live in BENCH_store.json.

var benchEntries = []int{250, 2000}

// benchKinds names the two kinds of value.
var benchKinds = []string{"json", "subtree"}

// subtreeKeys is how many entries of a "subtree" Get directory hold the
// sub-tree value; the others hold JSON, as in a "json" directory.
const subtreeKeys = 8

// benchValue returns a JSON-shaped value of n bytes that differs per i.
func benchValue(i, n int) []byte {
	var b bytes.Buffer
	for j := 0; b.Len() < n; j++ {
		fmt.Fprintf(&b, `{"sink":"s%d","x":%d,"y":%d,"delayPs":%d.%03d},`, j, (i*7+j*131)%9973, (i*13+j*71)%8191, (i+j*37)%997, (i*j)%1000)
	}
	return b.Bytes()[:n]
}

// largestSubtree synthesizes bench.SyntheticSized(1024) once and returns
// its largest encoded sub-tree, the root's (about 230 KB).
var largestSubtree = sync.OnceValues(func() ([]byte, error) {
	design, err := bench.SyntheticSized(1024)
	if err != nil {
		return nil, err
	}
	var keep largest
	flow, err := cts.New(tech.Default(), cts.WithSubtreeCache(&keep))
	if err != nil {
		return nil, err
	}
	if _, err := flow.Run(context.Background(), design.Sinks); err != nil {
		return nil, err
	}
	return keep.value, nil
})

// largest is a cts.SubtreeCache that never hits and keeps only the largest
// value written through it.
type largest struct {
	mu    sync.Mutex
	value []byte // guarded by mu
}

func (c *largest) Get(string) ([]byte, bool) { return nil, false }

func (c *largest) Put(_ string, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(value) > len(c.value) {
		c.value = value
	}
}

// subtreeValue returns the sub-tree benchmark value.
func subtreeValue(b *testing.B) []byte {
	b.Helper()
	value, err := largestSubtree()
	if err != nil {
		b.Fatal(err)
	}
	return value
}

// benchKey names the i-th entry of a filled directory.
func benchKey(i int) string { return fmt.Sprintf("bench-%d", i) }

// fillDir writes n entries straight into dir as Put encodes them, without
// syncing: 12 KiB JSON values, except that for kind "subtree" the first
// subtreeKeys entries hold the sub-tree value.  It returns how many of the
// first keys hold the kind's values.
func fillDir(b *testing.B, dir string, n int, kind string) int {
	b.Helper()
	keys := n
	if kind == "subtree" {
		keys = subtreeKeys
	}
	for i := 0; i < n; i++ {
		value := benchValue(i, 12<<10)
		if kind == "subtree" && i < keys {
			value = subtreeValue(b)
		}
		var buf bytes.Buffer
		if err := writeEntry(&buf, benchKey(i), value); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, entryFile(benchKey(i))), buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return keys
}

// openFilled opens a store over a directory filled with n entries and
// returns it with fillDir's key count.
func openFilled(b *testing.B, n int, kind string) (*Store, int) {
	b.Helper()
	dir := b.TempDir()
	keys := fillDir(b, dir, n, kind)
	s, err := Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	return s, keys
}

// BenchmarkStoreGet times a disk hit on each kind of value.  The keys cycle
// in a stride that never repeats the previous one, so every Get changes
// recency.
func BenchmarkStoreGet(b *testing.B) {
	for _, kind := range benchKinds {
		for _, n := range benchEntries {
			b.Run(fmt.Sprintf("value=%s/entries=%d", kind, n), func(b *testing.B) {
				s, keys := openFilled(b, n, kind)
				for i := 0; b.Loop(); i++ {
					if _, ok := s.Get(benchKey(i * 7919 % keys)); !ok {
						b.Fatal("stored key missed")
					}
				}
			})
		}
	}
}

// BenchmarkStorePut times storing a new value, a 20 KiB JSON one or the
// sub-tree, in an unbounded store that starts with the given number of
// entries, and reports the bytes each entry takes on disk.
func BenchmarkStorePut(b *testing.B) {
	for _, kind := range benchKinds {
		for _, n := range benchEntries {
			b.Run(fmt.Sprintf("value=%s/entries=%d", kind, n), func(b *testing.B) {
				value := benchValue(-1, 20<<10)
				if kind == "subtree" {
					value = subtreeValue(b)
				}
				s, _ := openFilled(b, n, "json")
				before, puts := s.Stats().Bytes, 0
				for ; b.Loop(); puts++ {
					s.Put(fmt.Sprintf("put-%d", puts), value)
				}
				b.ReportMetric(float64(s.Stats().Bytes-before)/float64(puts), "disk-B/entry")
			})
		}
	}
}

// BenchmarkStoreOpen times a restart over a full directory, once with a
// current manifest and once with a stale one that lists no entries, so
// every key comes from its file's gzip header.
func BenchmarkStoreOpen(b *testing.B) {
	stale := []byte(`{"version":1,"entries":{}}`)
	for _, checkpoint := range []string{"current", "stale"} {
		for _, n := range benchEntries {
			b.Run(fmt.Sprintf("checkpoint=%s/entries=%d", checkpoint, n), func(b *testing.B) {
				s, _ := openFilled(b, n, "json")
				dir := s.Dir()
				// A b.N loop: Go 1.24's b.Loop never ends at a timed
				// benchtime once the timer is stopped inside it.
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if checkpoint == "stale" {
						b.StopTimer()
						if err := os.WriteFile(filepath.Join(dir, manifestName), stale, 0o644); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					s, err := Open(dir, 0)
					if err != nil {
						b.Fatal(err)
					}
					if s.Len() != n {
						b.Fatalf("reopened %d entries, want %d", s.Len(), n)
					}
				}
			})
		}
	}
}
