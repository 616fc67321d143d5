// Package store is the disk-backed half of the ctsserver result cache: a
// content-addressed store of synthesis results that survives process
// restarts, layered under the in-memory LRU (write-through on job
// completion, read-through on a memory miss).
//
// # On-disk layout
//
// A store owns one directory.  Each entry holds one value of either cache
// tier (a rendered cts.Result JSON or an encoded sub-tree) as a single gzip
// member in a file named after the SHA-256 of its cache key, with the key
// itself recorded in the gzip header (Name field) so the directory is
// self-describing.  Put writes the member's deflate blocks stored, not
// compressed (RFC 1951 §3.2.4): deflate shrank sub-tree values only to
// about 0.43 of their size and results not past one 4 KiB block, yet it
// took about a third of the CPU of a server taking ECO resubmissions.  The
// file stays a standard gzip stream with its CRC-32 trailer, so entries
// that earlier builds wrote compressed stay readable, and zcat reads
// either.  An entry's last access is its file mtime.  Next to the entries
// sits manifest.json, a checkpoint of the index (key → {file, bytes,
// atime}) that only Open writes: it spares the next Open from opening the
// entries it lists, and lets tools list the keys without decompressing
// anything.  Get and Put never write it, so it lags whatever they changed
// until the next Open.
//
// # Durability and corruption tolerance
//
// Every write — entry files and the checkpoint alike — goes to a temporary
// file in the same directory, is synced, and is renamed into place, so a
// crash at any point leaves either the old content or the new, never a torn
// file; stray *.tmp files from a killed process are removed on Open.  Open
// indexes the directory in one pass: a file the checkpoint lists keeps its
// listed key, any other entry file gives up its key from its gzip header,
// and a listed key whose file is gone is dropped.  A corrupt entry — bad
// gzip stream, bad CRC, a header key other than the one its name or lookup
// promises, more than one gzip member — is deleted and treated as a miss,
// never surfaced as an error.
//
// # Eviction
//
// The store enforces a byte budget over the disk space its entries take:
// each entry is charged its file size rounded up to a whole 4 KiB block,
// the space a file system allocates for it (a 600-byte entry takes 4096
// bytes on ext4), so many small entries cannot overrun the budget several
// times over.  When a put pushes the total over budget, entries are
// evicted oldest-access first.  Get and Put record an access by setting the
// entry file's mtime from a monotonic logical clock (so same-nanosecond
// accesses still order correctly), and Open reads the order back from the
// mtimes.  The mtime updates are not synced: a crash may lose the latest
// ones, which costs eviction order, never a result.  A budget of zero or
// below disables the bound.
package store

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// entrySuffix names entry files; the prefix is the hex SHA-256 of the key.
const entrySuffix = ".json.gz"

// manifestName is the index checkpoint next to the entries.
const manifestName = "manifest.json"

// manifest is the serialized form of the index: one record per entry,
// keyed by the cache key.
type manifest struct {
	Version int                      `json:"version"`
	Entries map[string]manifestEntry `json:"entries"`
}

// manifestEntry records where an entry lives and when it was last touched.
type manifestEntry struct {
	// File is the entry's file name within the store directory.
	File string `json:"file"`
	// Bytes is the file size.  The budget charges it rounded up to whole
	// blocks (charge), and readEntry sizes its buffer by it.
	Bytes int64 `json:"bytes"`
	// ATime is the last access in Unix nanoseconds, kept on disk as the
	// file's mtime; eviction removes the oldest first.
	ATime int64 `json:"atime"`
}

// Stats is a point-in-time snapshot of the store counters, embedded in the
// service's /v1/stats response.  Counters reset on Open; Entries and Bytes
// describe the surviving on-disk state.
type Stats struct {
	// Dir is the store directory.
	Dir string `json:"dir"`
	// Entries is the number of stored results.
	Entries int `json:"entries"`
	// Bytes is the on-disk total charged against MaxBytes: the entries'
	// file sizes, each rounded up to a whole 4 KiB block.
	Bytes int64 `json:"bytes"`
	// MaxBytes is the eviction budget; 0 or below means unbounded.
	MaxBytes int64 `json:"maxBytes"`
	// Hits counts Gets served from disk since Open.
	Hits int64 `json:"hits"`
	// Misses counts Gets that found no (readable) entry since Open.
	Misses int64 `json:"misses"`
	// Evictions counts entries removed by the byte budget since Open.
	Evictions int64 `json:"evictions"`
	// Corrupt counts entries deleted because they could not be read back
	// (bad gzip data, bad CRC, wrong key, unreadable file) since Open.
	Corrupt int64 `json:"corrupt"`
}

// Store is a disk-backed, content-addressed result store.  All methods are
// safe for concurrent use.  The zero value is not usable; construct with
// Open.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]manifestEntry
	bytes   int64
	clock   int64 // last issued atime, for the monotonic logical clock

	hits      int64
	misses    int64
	evictions int64
	corrupt   int64
}

// Open creates or reopens a store in dir (created if missing, permissions
// 0o755).  maxBytes bounds the on-disk total; 0 or below leaves the store
// unbounded.  Open removes stray temporary files from interrupted writes,
// indexes the entry files actually present (deleting undecodable ones),
// evicts down to the budget if the surviving set exceeds it, and
// checkpoints the index to manifest.json.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  map[string]manifestEntry{},
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.evictLocked() // s is not shared yet
	data, err := json.Marshal(manifest{Version: 1, Entries: s.entries})
	if err == nil {
		// A failed checkpoint costs only the next Open's time: every key is
		// also in its entry's gzip header.
		_, _ = writeFile(filepath.Join(dir, manifestName), func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// load indexes the directory: size and access time from each entry file's
// stat, the key from the previous checkpoint or, for a file it does not
// list, from the file's gzip header.
func (s *Store) load() error {
	var m manifest
	if data, err := os.ReadFile(filepath.Join(s.dir, manifestName)); err == nil {
		// A corrupt checkpoint is not fatal: the gzip headers below stand
		// in for it.
		_ = json.Unmarshal(data, &m)
	}
	listed := make(map[string]string, len(m.Entries)) // file name → key
	for key := range m.Entries {
		listed[entryFile(key)] = key
	}

	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	for _, de := range des {
		name := de.Name()
		path := filepath.Join(s.dir, name)
		switch {
		case de.IsDir():
			continue
		case strings.HasSuffix(name, ".tmp"):
			// An interrupted write: the entry was never renamed into place,
			// so dropping the temp file restores the pre-write state (the
			// crash-between-write-and-rename case resolves as a clean miss).
			_ = os.Remove(path)
			continue
		case !strings.HasSuffix(name, entrySuffix):
			continue
		}
		key, ok := listed[name]
		if !ok {
			// Written after the checkpoint: the gzip header names the key.
			// An undecodable file, or one whose key does not hash to its
			// name, is deleted.
			if key, err = readKey(path); err != nil || entryFile(key) != name {
				s.corrupt++
				_ = os.Remove(path)
				continue
			}
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		at := fi.ModTime().UnixNano()
		s.entries[key] = manifestEntry{File: name, Bytes: fi.Size(), ATime: at}
		s.bytes += charge(fi.Size())
		s.clock = max(s.clock, at)
	}
	return nil
}

// blockSize is the allocation unit charge rounds an entry's size up to.
const blockSize = 4096

// charge is the part of the budget an entry of size bytes takes: the
// whole blocks its file occupies.
func charge(size int64) int64 {
	return (size + blockSize - 1) / blockSize * blockSize
}

// entryFile derives an entry's file name from its key.
func entryFile(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + entrySuffix
}

// readKey recovers the cache key recorded in an entry file's gzip header.
func readKey(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zr := readers.Get().(*gzip.Reader)
	defer readers.Put(zr)
	if err := zr.Reset(f); err != nil {
		return "", err
	}
	if zr.Name == "" {
		return "", fmt.Errorf("store: %s carries no key", path)
	}
	return zr.Name, nil
}

// now advances the logical access clock: wall time, bumped to stay strictly
// monotonic so two accesses in the same nanosecond still order.
func (s *Store) now() int64 {
	t := time.Now().UnixNano()
	if t <= s.clock {
		t = s.clock + 1
	}
	s.clock = t
	return t
}

// touch records an access as the entry file's mtime.  It runs outside s.mu:
// a failure, or a racing access landing first, costs only eviction-order
// fidelity after a restart, never a result.
func touch(path string, at int64) {
	t := time.Unix(0, at)
	_ = os.Chtimes(path, t, t)
}

// Get returns the stored bytes for key and refreshes its access time.  A
// missing entry, and equally an entry that fails to read back (deleted
// concurrently, truncated, bad gzip data, another key's entry), reports
// ok == false; corruption is resolved by deleting the entry, never by
// returning an error.
func (s *Store) Get(key string) (data []byte, ok bool) {
	s.mu.Lock()
	e, found := s.entries[key]
	if !found {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()
	path := filepath.Join(s.dir, e.File)
	data, err := readEntry(path, key, e.Bytes)
	s.mu.Lock()
	cur, still := s.entries[key]
	if err != nil {
		// The entry is unreadable: drop it (file and record) and miss.  The
		// ATime comparison distinguishes the snapshotted generation from a
		// racing re-Put of the same key (whose file name is identical, being
		// key-derived): an entry refreshed or rewritten since the snapshot
		// is left alone rather than deleted as corrupt.
		if still && cur.ATime == e.ATime {
			delete(s.entries, key)
			s.bytes -= charge(cur.Bytes)
			s.corrupt++
			_ = os.Remove(path)
		}
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.hits++
	// Refresh recency; an entry already the newest (or evicted meanwhile)
	// needs no update.
	fresh := still && cur.ATime != s.clock
	if fresh {
		cur.ATime = s.now()
		s.entries[key] = cur
	}
	s.mu.Unlock()
	if fresh {
		touch(path, cur.ATime)
	}
	return data, true
}

// readEntry reads one entry file, which must be a single gzip member
// carrying key in its header; the gzip CRC check makes torn or bit-rotted
// content surface as an error.  size is the file's size, which bounds the
// value of an entry written with stored blocks, so the value is read into
// one buffer (an entry written compressed may still grow it).
func readEntry(path, key string, size int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// A byte reader keeps the gzip reader from reading past the member, so
	// whatever follows its trailer is still there to find.
	br := bufio.NewReader(f)
	zr := readers.Get().(*gzip.Reader)
	defer readers.Put(zr)
	if err := zr.Reset(br); err != nil {
		return nil, err
	}
	if zr.Name != key {
		return nil, fmt.Errorf("store: %s holds key %q, not %q", path, zr.Name, key)
	}
	zr.Multistream(false)
	// MinRead of slack keeps the final read, which finds EOF, from growing
	// the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(zr); err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("store: %s holds more than one gzip member", path)
	}
	return buf.Bytes(), nil
}

// readers pools the entry decoders: every gzip reader allocates a flate
// decompressor with a 32 KiB window, which Open would otherwise pay for
// every entry header it reads and Get for every value.
var readers = sync.Pool{New: func() any { return new(gzip.Reader) }}

// writers pools the entry encoders: every gzip writer allocates a flate
// compressor of at least 640 KiB whatever its level, which a Put would
// otherwise pay per entry.
var writers = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.NoCompression) // a valid level
	return zw
}}

// writeEntry writes data to w as one gzip member with stored deflate
// blocks, key in its header.
func writeEntry(w io.Writer, key string, data []byte) error {
	zw := writers.Get().(*gzip.Writer)
	defer writers.Put(zw)
	zw.Reset(w)
	zw.Name = key
	if _, err := zw.Write(data); err != nil {
		return err
	}
	return zw.Close()
}

// Put stores data under key, crash-safely (temp file, sync, rename), then
// evicts oldest-access entries until the store fits its budget again.
// Storing an existing key only refreshes its access time: keys are
// content-addressed, so the bytes are already right.  Write failures (disk
// full, permissions) drop the entry silently — the store is a cache, and a
// failed write is indistinguishable from an eviction.
func (s *Store) Put(key string, data []byte) {
	name := entryFile(key)
	path := filepath.Join(s.dir, name)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		e.ATime = s.now()
		s.entries[key] = e
		s.mu.Unlock()
		touch(path, e.ATime)
		return
	}
	s.mu.Unlock()

	// Encode and land the entry outside the lock; concurrent Puts of the
	// same key write identical content, so the last rename winning is fine.
	size, err := writeFile(path, func(w io.Writer) error {
		return writeEntry(w, key, data)
	})
	if err != nil {
		return
	}
	if s.maxBytes > 0 && charge(size) > s.maxBytes {
		// An entry larger than the whole budget would evict every other
		// result just to be evicted next; refuse it, as the memory LRU does.
		_ = os.Remove(path)
		return
	}

	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		e = manifestEntry{File: name, Bytes: size}
		s.bytes += charge(size)
	}
	e.ATime = s.now()
	s.entries[key] = e
	s.evictLocked()
	s.mu.Unlock()
	touch(path, e.ATime)
}

// writeFile writes a file via a temporary file in the same directory,
// synced and renamed into place, and returns its size.
func writeFile(path string, write func(io.Writer) error) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	werr := write(f)
	if werr == nil {
		werr = f.Sync()
	}
	var size int64
	if werr == nil {
		var fi os.FileInfo
		if fi, werr = f.Stat(); werr == nil {
			size = fi.Size()
		}
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return 0, werr
	}
	return size, nil
}

// evictLocked removes oldest-access entries until the budget holds.  The
// access order is computed once per call (O(n log n)), so an eviction
// burst — e.g. reopening with a smaller budget — stays linear in the
// number of victims instead of rescanning the map per eviction.  Callers
// must hold s.mu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	type victim struct {
		key string
		e   manifestEntry
	}
	byAge := make([]victim, 0, len(s.entries))
	for key, e := range s.entries {
		byAge = append(byAge, victim{key, e})
	}
	sort.Slice(byAge, func(i, j int) bool { return byAge[i].e.ATime < byAge[j].e.ATime })
	for _, v := range byAge {
		if s.bytes <= s.maxBytes {
			break
		}
		delete(s.entries, v.key)
		s.bytes -= charge(v.e.Bytes)
		s.evictions++
		_ = os.Remove(filepath.Join(s.dir, v.e.File))
	}
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir:       s.dir,
		Entries:   len(s.entries),
		Bytes:     s.bytes,
		MaxBytes:  s.maxBytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Corrupt:   s.corrupt,
	}
}
