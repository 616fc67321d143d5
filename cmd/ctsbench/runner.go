package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/mergeroute"
	"repro/pkg/cts"
	"repro/pkg/ctsserver"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and only the last instance is measured.
const setupRepeats = 3

// scrapeEvery is how often client 0 of cluster_gateway reads the gateway's
// /v1/stats and /metrics between its jobs, as a dashboard would.
const scrapeEvery = time.Second

// requestTimeout bounds one job, so a wedged server fails the run instead of
// hanging it.
const requestTimeout = 60 * time.Second

// processStart anchors the first set-up: setup_s covers process start to the
// first measured request.
var processStart = time.Now()

// options configure one workload run.
type options struct {
	workload *workload
	seed     int64
	short    bool
	trace    bool
	dir      string // parent of the cache directories
}

// sample is one request of a measured window.  Times are Unix nanoseconds on
// the shared wall clock (the servers run in this process, so their job
// timestamps sit on the same clock).
type sample struct {
	class    string
	failure  string // empty on success
	start    int64  // before Submit
	postEnd  int64  // Submit returned
	end      int64  // the done event arrived (postEnd for born-terminal hits)
	created  int64  // server-side JobStatus timestamps, 0 when absent
	started  int64
	finished int64
	cacheHit bool
	// reused and recomputed are the result's Incremental counts.
	reused, recomputed int
	stages             []stageEvent // traced runs only
}

// stageEvent is one SSE stage-end event of a synthesized job.
type stageEvent struct {
	stage         string
	ms            float64
	pairs, reused int
}

// probe is a traced-only direct POST to a hit's owner member, the baseline
// that gateway.hop_ms and peer.hit_ms subtract.
type probe struct{ start, end int64 }

// runner measures one workload.
type runner struct {
	opts    options
	rig     *rig
	clients []*client
	// samples, probes and scrapes are per client, written by the client's
	// goroutine during a window and read after it.
	samples [][]sample
	probes  [][]probe
	scrapes []scrape
	// replay holds the first requests of each client for the traced HTTP
	// replays.
	replay   [][]ctsserver.JobRequest
	setupS   []float64
	measured time.Duration
	// panel is the fixed quality panel, served after the windows.
	panel []*design
}

// scrape is one gateway read by cluster_gateway's client 0.
type scrape struct {
	path       string
	start, end int64
}

// replayPerClient is how many requests per client the HTTP replays reuse.
const replayPerClient = 32

// setup sets the workload up setupRepeats times, keeping the last instance
// with its clients warmed up.
func (r *runner) setup(ctx context.Context) error {
	e := &env{seed: r.opts.seed, sizes: fullSizes, dir: r.opts.dir}
	if r.opts.short {
		e.sizes = shortSizes
	}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if r.rig != nil {
			r.rig.close()
		}
		g, err := r.opts.workload.setup(ctx, e)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", r.opts.workload.name, err)
		}
		r.rig = g
		r.clients = make([]*client, clientCount)
		for c := range r.clients {
			r.clients[c] = newClient(r.opts.seed, c)
		}
		if err := r.warmup(ctx); err != nil {
			return fmt.Errorf("%s warm-up: %w", r.opts.workload.name, err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	r.samples = make([][]sample, clientCount)
	r.probes = make([][]probe, clientCount)
	r.replay = make([][]ctsserver.JobRequest, clientCount)
	return nil
}

// warmup sends each client's first warmupJobs requests; any failure aborts
// the run, since a workload that fails before measuring is misconfigured.
func (r *runner) warmup(ctx context.Context) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c.n < warmupJobs {
				if s := r.do(ctx, c, nil); s.failure != "" {
					errs[i] = fmt.Errorf("client %d: %s", i, s.failure)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window runs the closed loop for d: each client sends its next request as
// soon as the previous one is done, until d has passed.  The window lasts
// until the last in-flight job finishes, and all of that counts as measured.
func (r *runner) window(ctx context.Context, d time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastScrape := start
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r.samples[i] = append(r.samples[i], r.do(ctx, c, &r.probes[i]))
				if i == 0 && r.rig.gateway != nil && time.Since(lastScrape) >= scrapeEvery {
					lastScrape = time.Now()
					r.scrapes = append(r.scrapes, r.scrapeGateway(ctx)...)
				}
			}
		}()
	}
	wg.Wait()
	r.measured += time.Since(start)
}

// do sends client c's next request, follows it to its end and checks the
// response.  probes is nil outside measured windows.
func (r *runner) do(ctx context.Context, c *client, probes *[]probe) sample {
	q := r.rig.next(c)
	c.n++
	req := ctsserver.JobRequest{Sinks: q.design.sinks, BaseJob: q.design.baseID}
	if probes != nil && len(r.replay[c.idx]) < replayPerClient {
		r.replay[c.idx] = append(r.replay[c.idx], req)
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()

	s := sample{class: q.class, start: time.Now().UnixNano()}
	st, err := q.to.Submit(ctx, req)
	s.postEnd = time.Now().UnixNano()
	s.end = s.postEnd
	if err != nil {
		s.failure = failureOf(err)
		return s
	}
	if !st.State.Terminal() {
		var onEvent func(cts.WireEvent)
		if r.opts.trace {
			onEvent = func(ev cts.WireEvent) {
				if ev.Kind == "stage-end" {
					s.stages = append(s.stages, stageEvent{stage: ev.Stage, ms: ev.ElapsedMs, pairs: ev.Pairs, reused: ev.Reused})
				}
			}
		}
		st, err = q.to.Stream(ctx, st.ID, onEvent)
		s.end = time.Now().UnixNano()
		if err != nil {
			s.failure = failureOf(err)
			return s
		}
	}
	s.created, s.started, s.finished = stamp(st.Created), stamp(st.Started), stamp(st.Finished)
	s.cacheHit = st.CacheHit
	result, failure := r.check(q, st, &s)
	s.failure = failure
	if failure == "" && q.fresh {
		r.rig.noteServed(c, q, st, result)
	}
	if probes != nil && failure == "" && q.class == classHit && r.opts.trace && r.rig.gateway != nil {
		*probes = append(*probes, r.probeOwner(ctx, q.design))
	}
	return s
}

// resultSummary is the part of a cts.Result the checks and quality metrics
// read.
type resultSummary struct {
	Settings struct {
		SlewLimit float64 `json:"slewLimit"`
	} `json:"settings"`
	Stats struct {
		Sinks   int     `json:"sinks"`
		Buffers int     `json:"buffers"`
		Wire    float64 `json:"totalWireUm"`
	} `json:"stats"`
	Timing *struct {
		WorstSlew float64 `json:"worstSlew"`
		Skew      float64 `json:"skew"`
	} `json:"timing"`
	Incremental *cts.IncrementalStats `json:"incremental"`
}

// check validates a terminal status against its request and returns the
// compacted result with an empty failure, or the failure reason.
func (r *runner) check(q *request, st *ctsserver.JobStatus, s *sample) ([]byte, string) {
	if st.State != ctsserver.StateDone {
		return nil, "state-" + string(st.State)
	}
	result, err := compact(st.Result)
	if err != nil {
		return nil, "bad-result"
	}
	sum, failure := checkResult(result, len(q.design.sinks))
	if failure != "" {
		return nil, failure
	}
	if sum.Incremental != nil {
		s.reused, s.recomputed = sum.Incremental.ReusedSubtrees, sum.Incremental.RecomputedMerges
	}
	switch q.class {
	case classHit, classPeer:
		if !st.CacheHit {
			return nil, "expected-hit"
		}
		if !bytes.Equal(result, q.design.first) {
			return nil, "hit-bytes-differ"
		}
	default:
		if st.CacheHit {
			return nil, "unexpected-hit"
		}
	}
	return result, ""
}

// checkResult decodes a done result and checks what every result must
// satisfy: the worst slew within the slew limit and one leaf per requested
// sink.  It returns the failure reason, or "".
func checkResult(result []byte, sinks int) (resultSummary, string) {
	var sum resultSummary
	switch {
	case json.Unmarshal(result, &sum) != nil || sum.Timing == nil:
		return sum, "bad-result"
	case sum.Timing.WorstSlew > sum.Settings.SlewLimit:
		return sum, "slew-over-limit"
	case sum.Stats.Sinks != sinks:
		return sum, "sink-count"
	}
	return sum, ""
}

// failureOf classifies a request error.
func failureOf(err error) string {
	var api *ctsserver.APIError
	switch {
	case errors.As(err, &api) && api.HTTPStatus == http.StatusTooManyRequests:
		return "rejected"
	case errors.As(err, &api):
		return "api-" + api.Code
	}
	return "transport"
}

// stamp parses a JobStatus timestamp to Unix nanoseconds (0 when empty).
func stamp(s string) int64 {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return 0
	}
	return t.UnixNano()
}

// compact strips the insignificant whitespace of a JSON value, so results
// that came over the indented POST body and the one-line SSE event compare
// byte for byte.
func compact(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// probeOwner POSTs a served design straight to its ring owner, bypassing the
// gateway: a local memory hit, timed for the hop and peer subtractions.
func (r *runner) probeOwner(ctx context.Context, d *design) probe {
	owner := r.rig.memberAt(r.rig.gateway.MemberFor(d.key))
	p := probe{start: time.Now().UnixNano()}
	_, _ = owner.client.Submit(ctx, ctsserver.JobRequest{Sinks: d.sinks}) // a baseline timing; the hit itself was checked through the gateway
	p.end = time.Now().UnixNano()
	return p
}

// scrapeGateway reads the gateway's /v1/stats and /metrics once each.
func (r *runner) scrapeGateway(ctx context.Context) []scrape {
	var out []scrape
	for _, path := range []string{"/v1/stats", "/metrics"} {
		s := scrape{path: path, start: time.Now().UnixNano()}
		if err := r.get(ctx, r.rig.gwts.URL+path, io.Discard); err != nil {
			continue // a dashboard read; jobs carry the failures that matter
		}
		s.end = time.Now().UnixNano()
		out = append(out, s)
	}
	return out
}

// get fetches url into w.
func (r *runner) get(ctx context.Context, url string, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := (&http.Client{Transport: r.rig.transport}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// counters are the server-side totals the run differences across its
// windows.
type counters struct {
	memoryHits, diskHits, peerHits, misses, evictions int64 // result cache
	stMemoryHits, stDiskHits, stMisses, stEvictions   int64 // subtree tier
	stDiskEntries                                     int
	rejected, rerouted                                int64
}

// snapshot sums every member's /v1/stats (and, in cluster mode, reads the
// gateway's reroute count).
func (r *runner) snapshot(ctx context.Context) (counters, error) {
	var c counters
	for _, m := range r.rig.members {
		st, err := m.client.Stats(ctx)
		if err != nil {
			return c, fmt.Errorf("reading stats: %w", err)
		}
		c.rejected += st.Scheduler.Rejected
		c.memoryHits += st.Cache.MemoryHits
		c.diskHits += st.Cache.DiskHits
		c.peerHits += st.Cache.PeerHits
		c.misses += st.Cache.Misses
		c.evictions += st.Cache.Evictions
		if t := st.Cache.Subtrees; t != nil {
			c.stMemoryHits += t.MemoryHits
			c.stDiskHits += t.DiskHits
			c.stMisses += t.Misses
			c.stEvictions += t.Evictions
			if t.Disk != nil {
				c.stDiskEntries += t.Disk.Entries
			}
		}
	}
	if r.rig.gateway != nil {
		var buf bytes.Buffer
		if err := r.get(ctx, r.rig.gwts.URL+"/v1/stats", &buf); err != nil {
			return c, err
		}
		var cs ctsserver.ClusterStats
		if err := json.Unmarshal(buf.Bytes(), &cs); err != nil {
			return c, fmt.Errorf("decoding gateway stats: %w", err)
		}
		c.rerouted = cs.Gateway.Rerouted
	}
	return c, nil
}

// measure runs one workload: set-up, the windows next hands out, the
// correctness checks and, when traced, the layer replays and the span file.
func measure(ctx context.Context, o options, next func() (time.Duration, bool), traceFile string) (*report, error) {
	r := &runner{opts: o}
	defer func() {
		if r.rig != nil {
			r.rig.close()
		}
	}()
	if err := r.setup(ctx); err != nil {
		return nil, err
	}
	var d windowDeltas
	var err error
	if d.before, err = r.snapshot(ctx); err != nil {
		return nil, err
	}
	gets0, allocs0 := mergeroute.ArenaStats()
	d.procBefore = readProc()
	for {
		length, ok := next()
		if !ok {
			break
		}
		r.window(ctx, length)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.procAfter = readProc()
	gets1, allocs1 := mergeroute.ArenaStats()
	d.arenaGets, d.arenaAllocs = gets1-gets0, allocs1-allocs0
	if d.after, err = r.snapshot(ctx); err != nil {
		return nil, err
	}

	rep := &report{workload: o.workload.name, failures: map[string]int{}}
	r.endToEndMetrics(rep)
	if rep.attempted == 0 {
		return nil, fmt.Errorf("%s: no request was sent in the measured time", o.workload.name)
	}
	// Every peer-class request went to a member that had never seen its
	// key, so each success must be exactly one peer read on the members.
	peerOK := 0
	for _, ss := range r.samples {
		for _, s := range ss {
			if s.class == classPeer && s.failure == "" {
				peerOK++
			}
		}
	}
	if got := int(d.after.peerHits - d.before.peerHits); got != peerOK {
		rep.fail("peer-hit-count", abs(got-peerOK))
	}
	if err := r.scorePanel(ctx, rep); err != nil {
		return nil, err
	}
	mismatches, err := r.oracle(ctx)
	if err != nil {
		return nil, err
	}
	for _, m := range mismatches {
		fmt.Fprintln(os.Stderr, m)
	}
	rep.fail("oracle-mismatch", len(mismatches))
	rep.add("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")

	if o.trace {
		r.counterLayerMetrics(rep, d)
		r.sampleLayerMetrics(rep)
		if err := r.httpReplay(rep); err != nil {
			return nil, fmt.Errorf("HTTP replay: %w", err)
		}
		if err := r.storeReplay(rep, o.dir); err != nil {
			return nil, fmt.Errorf("store replay: %w", err)
		}
		if err := r.subtreeReplay(ctx, rep); err != nil {
			return nil, fmt.Errorf("subtree replay: %w", err)
		}
		if err := r.writeTrace(traceFile); err != nil {
			return nil, fmt.Errorf("writing the span file: %w", err)
		}
	}
	return rep, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
