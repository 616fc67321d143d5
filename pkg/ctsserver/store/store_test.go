package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// put stores a payload and fails the test if it does not read back.
func put(t *testing.T, s *Store, key string, data []byte) {
	t.Helper()
	s.Put(key, data)
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Put(%q) did not read back (ok=%v)", key, ok)
	}
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"levels": 3, "stats": {"buffers": 7}}`)
	put(t, s, "k-abc+verify", payload)

	// A fresh store over the same directory serves the entry from disk.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("k-abc+verify")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened store: ok=%v data=%q", ok, got)
	}
	st := s2.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Errorf("reopened stats: %+v", st)
	}
	if _, ok := s2.Get("never-stored"); ok {
		t.Error("unknown key reported a hit")
	}
	if st := s2.Stats(); st.Misses != 1 {
		t.Errorf("miss not counted: %+v", st)
	}
}

// TestCrashSafety simulates a process killed between the temp-file write
// and the rename: the leftover *.tmp file must be cleaned up on Open and
// the half-written entry must resolve as a clean miss, while complete
// entries survive untouched.
func TestCrashSafety(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "survivor", []byte(`{"ok":true}`))

	// A torn temp write: partial gzip bytes under the name CreateTemp would
	// have used, never renamed into place.
	tmp := filepath.Join(dir, entryFile("victim")+".123.tmp")
	if err := os.WriteFile(tmp, []byte("\x1f\x8b\x08 torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("stray .tmp file survived Open")
	}
	if _, ok := s2.Get("victim"); ok {
		t.Error("half-written entry served a hit, want clean miss")
	}
	if data, ok := s2.Get("survivor"); !ok || string(data) != `{"ok":true}` {
		t.Errorf("complete entry lost after crash recovery: ok=%v data=%q", ok, data)
	}
}

// TestEvictionOrder pins LRU-by-atime eviction under the byte budget: the
// least recently *accessed* entry goes first, and a Get refreshes recency.
func TestEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	// Budget for roughly two compressed entries; incompressible payloads
	// keep the on-disk sizes predictable.
	payload := func(i int) []byte {
		b := make([]byte, 4096)
		for j := range b {
			b[j] = byte((i*31 + j*17) % 251)
		}
		return b
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", payload(1))
	sizeA := s.Stats().Bytes
	s.maxBytes = 2*sizeA + sizeA/2 // fits two entries, not three

	s.Put("b", payload(2))
	if _, ok := s.Get("a"); !ok { // refresh a: b is now oldest
		t.Fatal("a missing before overflow")
	}
	s.Put("c", payload(3))

	if _, ok := s.Get("b"); ok {
		t.Error("b survived, want evicted as oldest-accessed")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats after eviction: %+v", st)
	}

	// The access order survives a reopen: touch a once more so c is the
	// oldest access, then overflow after reopening.  Nothing writes the
	// manifest between the two Opens, so the order comes from the entry
	// mtimes alone.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a missing")
	}
	s2, err := Open(dir, s.maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	s2.Put("d", payload(4))
	if _, ok := s2.Get("c"); ok {
		t.Error("c survived post-reopen overflow, want evicted by persisted atime order")
	}
	if _, ok := s2.Get("a"); !ok {
		t.Error("a evicted post-reopen, want kept (freshest persisted atime)")
	}
}

// TestCorruptEntryIsDeletedAndMisses pins corruption tolerance: a damaged
// entry file is deleted on the failed read and reported as a miss, never an
// error.
func TestCorruptEntryIsDeletedAndMisses(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "good", []byte(`{"fine":1}`))
	s.Put("bad", []byte(`{"doomed":1}`))

	// Flip bytes in the middle of bad's file so the gzip CRC fails.
	path := filepath.Join(dir, entryFile("bad"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+4 && i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("bad"); ok {
		t.Fatal("corrupt entry served a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry file survived the failed read")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Entries != 1 {
		t.Errorf("stats after corruption: %+v", st)
	}
	// The second lookup is an ordinary miss (entry gone), and the intact
	// neighbour still reads.
	if _, ok := s.Get("bad"); ok {
		t.Error("deleted corrupt entry resurrected")
	}
	if _, ok := s.Get("good"); !ok {
		t.Error("intact entry lost alongside the corrupt one")
	}
}

// TestManifestRebuild pins the self-describing layout: with the manifest
// deleted (or replaced by junk), Open recovers every entry by reading the
// keys back from the gzip headers; undecodable entry files are deleted.
func TestManifestRebuild(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"alpha", "beta+verify", "gamma"}
	for i, k := range keys {
		put(t, s, k, []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json{"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An entry-shaped file that is not gzip at all must be swept, and an
	// entry whose header key does not match its file name (a renamed or
	// planted file) must not be adopted under the forged name.
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("ab", 32)+entrySuffix), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	var forged bytes.Buffer
	zw := gzip.NewWriter(&forged)
	zw.Name = "some-other-key"
	zw.Write([]byte(`{}`))
	zw.Close()
	forgedPath := filepath.Join(dir, strings.Repeat("cd", 32)+entrySuffix)
	if err := os.WriteFile(forgedPath, forged.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		data, ok := s2.Get(k)
		if !ok || string(data) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Errorf("key %q after rebuild: ok=%v data=%q", k, ok, data)
		}
	}
	if got := s2.Len(); got != len(keys) {
		t.Errorf("rebuilt store has %d entries, want %d", got, len(keys))
	}
	if _, ok := s2.Get("some-other-key"); ok {
		t.Error("forged entry adopted under its header key")
	}
	if _, err := os.Stat(forgedPath); !os.IsNotExist(err) {
		t.Error("forged entry file survived the rebuild")
	}
}

// TestOversizedAndConcurrent pins that an entry larger than the whole
// budget is refused instead of evicting everything else, and exercises
// concurrent access; run with -race.
func TestOversizedAndConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 2<<20)
	rand.New(rand.NewSource(1)).Read(huge) // incompressible beyond the budget
	s.Put("huge", huge)
	if _, ok := s.Get("huge"); ok {
		t.Error("entry over the whole budget was stored")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("k-%d", (g+i)%10)
				s.Put(k, []byte(fmt.Sprintf(`{"k":%q}`, k)))
				s.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != 10 || st.Corrupt != 0 {
		t.Errorf("stats after concurrent traffic: %+v", st)
	}
}

// blob returns an incompressible 4 KiB payload that differs per i, so every
// entry's compressed size is about the same.
func blob(i int) []byte {
	b := make([]byte, 4096)
	rand.New(rand.NewSource(int64(i))).Read(b)
	return b
}

// listedKeys returns the keys manifest.json lists.
func listedKeys(t *testing.T, dir string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for k := range m.Entries {
		keys[k] = true
	}
	return keys
}

// reopen opens a store over dir and fails the test on error.
func reopen(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGetAndPutLeaveManifestAlone pins that no operation after Open does
// O(entries) work: hits, misses, a new Put, a re-Put, a budget eviction and
// a corrupt read all leave manifest.json as Open wrote it (same file, bytes
// and mtime) and leave no temporary file behind.
func TestGetAndPutLeaveManifestAlone(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, 0)
	for i := 0; i < 4; i++ {
		s.Put(fmt.Sprintf("k%d", i), blob(i))
	}
	size := s.Stats().Bytes / 4
	s = reopen(t, dir, 6*size+size/2) // fits six entries, not seven
	path := filepath.Join(dir, manifestName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d missed", i)
		}
	}
	if _, ok := s.Get("never-stored"); ok {
		t.Fatal("unknown key hit")
	}
	s.Put("k4", blob(4))
	s.Put("k0", blob(0))
	s.Put("k5", blob(5))
	s.Put("k6", blob(6)) // evicts k1, the oldest access
	bad := filepath.Join(dir, entryFile("k2"))
	if err := os.WriteFile(bad, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k2"); ok {
		t.Fatal("corrupt entry served")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Corrupt != 1 || st.Hits != 4 || st.Entries != 5 {
		t.Fatalf("operations did not all happen: %+v", st)
	}

	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) || !bytes.Equal(now, content) {
		t.Errorf("manifest rewritten after Open: mtime %v → %v, %d → %d bytes",
			before.ModTime(), after.ModTime(), len(content), len(now))
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temporary files left behind: %v", tmps)
	}
}

// TestManifestMissesLaterPuts pins the restart path for entries written
// after the last Open: the manifest does not list them, and the next Open
// adopts them from their gzip headers with the recency their mtimes carry.
func TestManifestMissesLaterPuts(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, 0)
	s.Put("old1", blob(1))
	s.Put("old2", blob(2))
	size := s.Stats().Bytes / 2

	s = reopen(t, dir, 0)
	s.Put("new", blob(3))
	if _, ok := s.Get("old1"); !ok { // old2 is now the oldest access
		t.Fatal("old1 missed")
	}
	if got := listedKeys(t, dir); len(got) != 2 || !got["old1"] || !got["old2"] {
		t.Fatalf("manifest lists %v, want old1 and old2 only", got)
	}

	s = reopen(t, dir, 2*size+size/2) // fits two entries, not three
	if _, ok := s.Get("old2"); ok {
		t.Error("old2 survived, want evicted as the oldest access")
	}
	for _, k := range []string{"new", "old1"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("%s lost across the reopen", k)
		}
	}
	if got := listedKeys(t, dir); len(got) != 2 || !got["new"] || !got["old1"] {
		t.Errorf("manifest after reopen lists %v, want new and old1", got)
	}
}

// TestManifestListsDroppedEntries pins the other side: entries evicted or
// deleted as corrupt after Open stay listed in the manifest, and the next
// Open drops them without charging their bytes to the budget.
func TestManifestListsDroppedEntries(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, 0)
	for i, k := range []string{"a", "b", "c"} {
		s.Put(k, blob(i))
	}
	size := s.Stats().Bytes / 3

	s = reopen(t, dir, 3*size+size/2)
	s.Put("d", blob(3)) // evicts a
	if err := os.WriteFile(filepath.Join(dir, entryFile("c")), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("c"); ok {
		t.Fatal("emptied entry served")
	}
	if got := listedKeys(t, dir); !got["a"] || !got["c"] || got["d"] {
		t.Fatalf("manifest lists %v, want the checkpoint from Open", got)
	}

	s = reopen(t, dir, 0)
	var want int64
	for _, k := range []string{"b", "d"} {
		fi, err := os.Stat(filepath.Join(dir, entryFile(k)))
		if err != nil {
			t.Fatal(err)
		}
		want += fi.Size()
	}
	if st := s.Stats(); st.Entries != 2 || st.Bytes != want || st.Corrupt != 0 {
		t.Errorf("reopened stats %+v, want 2 entries of %d bytes", st, want)
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := s.Get(k); ok {
			t.Errorf("dropped entry %s served after reopen", k)
		}
	}
	if got := listedKeys(t, dir); len(got) != 2 || !got["b"] || !got["d"] {
		t.Errorf("manifest after reopen lists %v, want b and d", got)
	}
}

// TestDamagedEntriesMiss damages entries in five ways and pins that each
// misses, is deleted and counts once in Corrupt while its neighbours still
// hit: in the process that opened the store, after a restart that trusts
// the manifest's listing, and after a restart with no manifest.
func TestDamagedEntriesMiss(t *testing.T) {
	damages := map[string]func(data, other []byte) []byte{
		"truncated":   func(data, _ []byte) []byte { return data[:len(data)/2] },
		"zero-filled": func(data, _ []byte) []byte { return make([]byte, len(data)) },
		"bit-flipped": func(data, _ []byte) []byte {
			// The gzip header is 10 bytes plus the NUL-terminated key and
			// the trailer 8 bytes; flip one bit between them.
			header := bytes.IndexByte(data[10:], 0) + 11
			data[header+(len(data)-8-header)/2] ^= 0x10
			return data
		},
		"emptied":     func([]byte, []byte) []byte { return nil },
		"another key": func(_, other []byte) []byte { return other },
	}
	for _, restart := range []string{"none", "listed", "unlisted"} {
		t.Run("restart="+restart, func(t *testing.T) {
			dir := t.TempDir()
			s := reopen(t, dir, 0)
			for i := 0; i < 3; i++ {
				s.Put(fmt.Sprintf("neighbour-%d", i), blob(i))
			}
			for name := range damages {
				s.Put("victim-"+name, blob(len(name)))
			}
			s = reopen(t, dir, 0) // the manifest lists every entry
			other, err := os.ReadFile(filepath.Join(dir, entryFile("neighbour-0")))
			if err != nil {
				t.Fatal(err)
			}
			for name, damage := range damages {
				path := filepath.Join(dir, entryFile("victim-"+name))
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, damage(data, other), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			switch restart {
			case "unlisted":
				if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
					t.Fatal(err)
				}
				fallthrough
			case "listed":
				s = reopen(t, dir, 0)
			}

			for name := range damages {
				for try := 0; try < 2; try++ {
					if _, ok := s.Get("victim-" + name); ok {
						t.Errorf("%s entry served", name)
					}
				}
				if _, err := os.Stat(filepath.Join(dir, entryFile("victim-"+name))); !os.IsNotExist(err) {
					t.Errorf("%s entry file survived", name)
				}
			}
			for i := 0; i < 3; i++ {
				if data, ok := s.Get(fmt.Sprintf("neighbour-%d", i)); !ok || !bytes.Equal(data, blob(i)) {
					t.Errorf("neighbour-%d lost alongside the damaged entries", i)
				}
			}
			if st := s.Stats(); st.Corrupt != int64(len(damages)) || st.Entries != 3 {
				t.Errorf("stats %+v, want %d corrupt and 3 entries", st, len(damages))
			}
		})
	}
}
