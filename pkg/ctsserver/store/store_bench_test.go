package store

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The store benchmarks time Get, Put and Open at two occupancies.  Run:
//
//	go test -run '^$' -bench Store -benchmem ./pkg/ctsserver/store
//
// Each fills its directory the way an earlier process would have left it
// (entry files only), then opens a store over it.  Values are JSON-shaped
// so they compress about as a rendered result does.  Recorded figures live
// in BENCH_store.json.

var benchEntries = []int{250, 2000}

// benchValue returns a JSON-shaped value of n bytes that differs per i.
func benchValue(i, n int) []byte {
	var b bytes.Buffer
	for j := 0; b.Len() < n; j++ {
		fmt.Fprintf(&b, `{"sink":"s%d","x":%d,"y":%d,"delayPs":%d.%03d},`, j, (i*7+j*131)%9973, (i*13+j*71)%8191, (i+j*37)%997, (i*j)%1000)
	}
	return b.Bytes()[:n]
}

// benchKey names the i-th entry of a filled directory.
func benchKey(i int) string { return fmt.Sprintf("bench-%d", i) }

// fillDir writes n 12 KiB entries straight into dir, without syncing.
func fillDir(b *testing.B, dir string, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Name = benchKey(i)
		zw.Write(benchValue(i, 12<<10))
		zw.Close()
		if err := os.WriteFile(filepath.Join(dir, entryFile(benchKey(i))), buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// openFilled opens a store over a directory filled with n entries.
func openFilled(b *testing.B, n int) *Store {
	b.Helper()
	dir := b.TempDir()
	fillDir(b, dir, n)
	s, err := Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreGet times a disk hit.  The keys cycle in a stride that
// never repeats the previous one, so every Get changes recency.
func BenchmarkStoreGet(b *testing.B) {
	for _, n := range benchEntries {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			s := openFilled(b, n)
			for i := 0; b.Loop(); i++ {
				if _, ok := s.Get(benchKey(i * 7919 % n)); !ok {
					b.Fatal("stored key missed")
				}
			}
		})
	}
}

// BenchmarkStorePut times storing a new 20 KiB value in an unbounded store
// that starts with the given number of entries.
func BenchmarkStorePut(b *testing.B) {
	value := benchValue(-1, 20<<10)
	for _, n := range benchEntries {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			s := openFilled(b, n)
			for i := 0; b.Loop(); i++ {
				s.Put(fmt.Sprintf("put-%d", i), value)
			}
		})
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
				dir := openFilled(b, n).Dir()
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
