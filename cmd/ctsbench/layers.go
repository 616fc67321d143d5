package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/mergeroute"
	"repro/internal/tech"
	"repro/pkg/cts"
	"repro/pkg/ctsserver"
	"repro/pkg/ctsserver/store"
)

// Sample sizes of the traced replays.
const (
	subtreeReplayDesigns = 8   // designs replayed through the timed subtree cache
	decodeSamples        = 512 // cached sub-trees decoded for codec.decode_us
	storeGets            = 64  // store.Get calls on the copied result store
	storePuts            = 16  // store.Put calls on it
)

// windowDeltas are the counters differenced across the measured windows.
type windowDeltas struct {
	before, after         counters
	procBefore, procAfter procStats
	arenaGets             uint64
	arenaAllocs           uint64
}

// counterLayerMetrics reports the cache, subtree, scheduler, gateway, arena
// and process counters over the windows.
func (r *runner) counterLayerMetrics(rep *report, d windowDeltas) {
	b, a := d.before, d.after
	rep.add("cache.memory_hits", float64(a.memoryHits-b.memoryHits), "count")
	rep.add("cache.disk_hits", float64(a.diskHits-b.diskHits), "count")
	rep.add("cache.peer_hits", float64(a.peerHits-b.peerHits), "count")
	rep.add("cache.misses", float64(a.misses-b.misses), "count")
	rep.add("cache.evictions", float64(a.evictions-b.evictions), "count")
	rep.add("subtree.memory_hits", float64(a.stMemoryHits-b.stMemoryHits), "count")
	rep.add("subtree.disk_hits", float64(a.stDiskHits-b.stDiskHits), "count")
	rep.add("subtree.misses", float64(a.stMisses-b.stMisses), "count")
	rep.add("subtree.evictions", float64(a.stEvictions-b.stEvictions), "count")
	rep.add("subtree.disk_entries", float64(a.stDiskEntries), "count")
	rep.add("sched.rejected", float64(a.rejected-b.rejected), "count")
	if r.rig.gateway != nil {
		rep.add("gateway.reroutes", float64(a.rerouted-b.rerouted), "count")
	}
	if d.arenaGets > 0 {
		rep.add("mergeroute.arena_allocs_per_get", float64(d.arenaAllocs)/float64(d.arenaGets), "ratio")
	}
	jobs := float64(rep.attempted)
	p0, p1 := d.procBefore, d.procAfter
	rep.add("proc.cpu_s_per_job", (p1.cpu-p0.cpu).Seconds()/jobs, "s")
	rep.add("proc.allocs_per_job", float64(p1.allocs-p0.allocs)/jobs, "count")
	rep.add("proc.alloc_mb_per_job", float64(p1.allocBytes-p0.allocBytes)/jobs/(1<<20), "MB")
	if avail := p1.availableCPU - p0.availableCPU; avail > 0 {
		rep.add("proc.gc_cpu_share", (p1.gcCPU-p0.gcCPU)/avail, "ratio")
	}
}

// httpReplay times the member's per-request steps on the run's own requests,
// one call each outside the server: decoding the body into a JobRequest,
// cts.ValidateSinks, cts.CanonicalKey, and the indented JobStatus encode of
// the design's result.
func (r *runner) httpReplay(rep *report) error {
	flow, err := cts.New(tech.Default())
	if err != nil {
		return err
	}
	settings := flow.Settings()
	var decode, validate, key, encode, size []float64
	for _, reqs := range r.replay {
		for _, req := range reqs {
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			size = append(size, float64(len(body))/1024)
			t0 := time.Now()
			var got ctsserver.JobRequest
			if err := json.Unmarshal(body, &got); err != nil {
				return err
			}
			t1 := time.Now()
			sinks := ctsserver.SinksToCTS(got.Sinks)
			if err := cts.ValidateSinks(sinks); err != nil {
				return err
			}
			t2 := time.Now()
			k := cts.CanonicalKey(settings, sinks)
			t3 := time.Now()
			st := ctsserver.JobStatus{ID: "replay", State: ctsserver.StateDone, Priority: ctsserver.PriorityNormal,
				Key: k, Sinks: len(sinks), Result: r.resultFor(k)}
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			if err := enc.Encode(st); err != nil {
				return err
			}
			t4 := time.Now()
			decode = append(decode, us(t1.Sub(t0)))
			validate = append(validate, us(t2.Sub(t1)))
			key = append(key, us(t3.Sub(t2)))
			encode = append(encode, us(t4.Sub(t3)))
		}
	}
	rep.add("http.decode_us_p50", percentile(decode, 50), "us")
	rep.add("http.validate_us_p50", percentile(validate, 50), "us")
	rep.add("http.key_us_p50", percentile(key, 50), "us")
	rep.add("http.encode_us_p50", percentile(encode, 50), "us")
	rep.add("http.request_kb", mean(size), "kB")
	return nil
}

// resultFor returns a served result to encode for the replay: the design
// with that key if the run kept it, else any served result (results are
// summaries of about the same size whatever the design).
func (r *runner) resultFor(key string) json.RawMessage {
	var last []byte
	for _, d := range r.served() {
		if d.key == key {
			return d.first
		}
		last = d.first
	}
	return last
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// storeReplay times store.Open, Get and Put on a copy of the first member's
// result and subtree stores, as they stand after the windows.  open_ms is
// both opens, the restart cost a member pays in ctsserver.New.
func (r *runner) storeReplay(rep *report, scratch string) error {
	src := r.rig.members[0].dir
	dst := filepath.Join(scratch, "store-copy")
	if err := copyTree(src, dst); err != nil {
		return fmt.Errorf("copying the cache directory: %w", err)
	}
	defer os.RemoveAll(dst)

	t0 := time.Now()
	results, err := store.Open(dst, 1<<30)
	if err != nil {
		return err
	}
	if _, err := store.Open(filepath.Join(dst, "subtrees"), 1<<30); err != nil {
		return err
	}
	rep.add("store.open_ms", ms(time.Since(t0).Nanoseconds()), "ms")
	if info, err := os.Stat(filepath.Join(dst, "manifest.json")); err == nil {
		rep.add("store.manifest_kb", float64(info.Size())/1024, "kB")
	}

	keys, err := manifestKeys(filepath.Join(dst, "manifest.json"))
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		return fmt.Errorf("the result store holds no entries")
	}
	rng := rand.New(rand.NewSource(jobSeed(r.opts.seed, -3, -3)))
	var gets, puts []float64
	var value []byte
	for i := 0; i < storeGets; i++ {
		k := keys[rng.Intn(len(keys))]
		t := time.Now()
		v, ok := results.Get(k)
		gets = append(gets, us(time.Since(t)))
		if !ok {
			return fmt.Errorf("store copy lost key %s", k)
		}
		value = v
	}
	for i := 0; i < storePuts; i++ {
		t := time.Now()
		results.Put(fmt.Sprintf("ctsbench-put-%d", i), value)
		puts = append(puts, ms(time.Since(t).Nanoseconds()))
	}
	rep.add("store.get_us_p50", percentile(gets, 50), "us")
	rep.add("store.put_ms_p50", percentile(puts, 50), "ms")
	return nil
}

// manifestKeys lists the keys of a store's manifest, sorted.
func manifestKeys(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		Entries map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	keys := make([]string, 0, len(m.Entries))
	for k := range m.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// timedCache wraps a cts.SubtreeCache and times every call.
type timedCache struct {
	inner cts.SubtreeCache

	mu     sync.Mutex
	gets   []float64     // guarded by mu
	puts   []float64     // guarded by mu
	putSum time.Duration // guarded by mu
	values [][]byte      // guarded by mu
}

func (c *timedCache) Get(key string) ([]byte, bool) {
	t := time.Now()
	v, ok := c.inner.Get(key)
	d := time.Since(t)
	c.mu.Lock()
	c.gets = append(c.gets, us(d))
	if ok && len(c.values) < decodeSamples {
		c.values = append(c.values, v)
	}
	c.mu.Unlock()
	return v, ok
}

func (c *timedCache) Put(key string, value []byte) {
	t := time.Now()
	c.inner.Put(key, value)
	d := time.Since(t)
	c.mu.Lock()
	c.puts = append(c.puts, us(d))
	c.putSum += d
	c.mu.Unlock()
}

// subtreeReplay replays the first quality-panel designs on an in-process flow
// over a timed memory subtree cache: a plain run (puts, as every served job
// writes through) and then a 0.5% move delta through RunIncremental (gets,
// as an ECO resubmission reads).  It also decodes the values the gets
// returned, timing the subtree codec alone.
func (r *runner) subtreeReplay(ctx context.Context, rep *report) error {
	cache := &timedCache{inner: cts.NewMemorySubtreeCache(64 << 20)}
	flow, err := cts.New(tech.Default(), cts.WithSubtreeCache(cache))
	if err != nil {
		return err
	}
	designs := r.panel[:min(len(r.panel), subtreeReplayDesigns)]
	var runTime time.Duration
	for i, d := range designs {
		sinks := ctsserver.SinksToCTS(d.sinks)
		t := time.Now()
		if _, err := flow.Run(ctx, sinks); err != nil {
			return err
		}
		runTime += time.Since(t)
		delta := variant(bench.Benchmark{Sinks: sinks}, "move", 0.005, jobSeed(r.opts.seed, -4, i))
		if _, err := flow.RunIncremental(ctx, nil, ctsserver.SinksToCTS(delta)); err != nil {
			return err
		}
	}
	// The flow has returned, so no call is in flight; the lock orders
	// these reads after the last one.
	cache.mu.Lock()
	gets, puts, putSum, values := cache.gets, cache.puts, cache.putSum, cache.values
	cache.mu.Unlock()
	var decode []float64
	for _, v := range values {
		t := time.Now()
		if _, _, err := mergeroute.DecodeSubtree(v); err != nil {
			return fmt.Errorf("decoding a cached sub-tree: %w", err)
		}
		decode = append(decode, us(time.Since(t)))
	}
	rep.add("subtree.get_us_p50", percentile(gets, 50), "us")
	rep.add("subtree.put_us_p50", percentile(puts, 50), "us")
	rep.add("subtree.put_share", putSum.Seconds()/runTime.Seconds(), "ratio")
	rep.add("codec.decode_us_p50", percentile(decode, 50), "us")
	return nil
}

// spanJSON is one span of the trace file.
type spanJSON struct {
	Name   string `json:"name"`
	Job    string `json:"job"`
	Parent string `json:"parent,omitempty"`
	// StartUs and EndUs are microseconds from the first window's start.
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
}

// traceFileJSON is the span file a traced run writes.
type traceFileJSON struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Spans    []spanJSON `json:"spans"`
}

// writeTrace writes every recorded span to path: per job the job, its POST,
// queue wait, run and stages; per scrape and owner probe one span.
func (r *runner) writeTrace(path string) error {
	var t0 int64 = -1
	for _, ss := range r.samples {
		if len(ss) > 0 && (t0 < 0 || ss[0].start < t0) {
			t0 = ss[0].start
		}
	}
	rel := func(ns int64) float64 { return float64(ns-t0) / 1e3 }
	span := func(name, job, parent string, iv interval) spanJSON {
		return spanJSON{Name: name, Job: job, Parent: parent, StartUs: rel(iv.start), EndUs: rel(iv.end)}
	}
	out := traceFileJSON{Workload: r.opts.workload.name, Seed: r.opts.seed}
	for c, ss := range r.samples {
		for i, s := range ss {
			job := fmt.Sprintf("c%d-%d", c, i)
			js := s.spans()
			out.Spans = append(out.Spans, span("job", job, "", js.job), span("http.post", job, "job", js.post))
			if s.cacheHit || s.failure != "" {
				continue
			}
			out.Spans = append(out.Spans, span("sched.queue", job, "job", js.queue), span("sched.run", job, "job", js.run))
			for k, iv := range js.stages {
				out.Spans = append(out.Spans, span(js.stageNames[k], job, "sched.run", iv))
			}
		}
		for i, p := range r.probes[c] {
			out.Spans = append(out.Spans, span("owner.post", fmt.Sprintf("c%d-probe-%d", c, i), "", interval{p.start, p.end}))
		}
	}
	for i, s := range r.scrapes {
		out.Spans = append(out.Spans, span("gateway.scrape"+s.path, fmt.Sprintf("scrape-%d", i), "", interval{s.start, s.end}))
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
