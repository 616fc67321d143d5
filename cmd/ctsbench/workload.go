package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/pkg/ctsserver"
)

// Request classes.  A class decides what the response must look like: cold
// and eco requests carry never-seen keys and must be synthesized; hit and
// peer requests resubmit a served design and must come back as cache hits
// with that design's first result bytes.
const (
	classCold = "cold" // a fresh design, synthesized from scratch
	classEco  = "eco"  // a fresh ECO delta with baseJob set
	classHit  = "hit"  // a resubmission the entry point's cache holds
	classPeer = "peer" // a resubmission to a member that must read it from a peer
)

// warmupJobs is the number of requests each client sends before measuring.
const warmupJobs = 2

// The quality panel is panelDesigns fresh designs of the workload, drawn
// from panelSeed whatever -seed is, served after the windows and scored.  It
// is the same on every run, so skew, wire and buffers per sink repeat
// exactly and any change in them is the code's.
const (
	panelDesigns = 16
	panelSeed    = 0
)

// strata is how many size bands the designs of cache_hits and
// cluster_gateway cycle through, so any run of strata consecutive designs
// covers the size range evenly.
const strata = 8

// clientCount is the number of closed-loop clients: ctsd's callers block on
// their result, and two of them match the two cores the benchmark was sized
// on, so load generation never needs more than two goroutines.
const clientCount = 2

// clusterDeck is the class mix of cluster_gateway, dealt in shuffled decks
// so every run sends the exact proportions: 50% fresh designs, 30% gateway
// resubmissions and 20% resubmissions sent straight to a member that must
// read them from a peer.
var clusterDeck = []string{
	classCold, classCold, classCold, classCold, classCold,
	classHit, classHit, classHit,
	classPeer, classPeer,
}

// sizes are the design sizes of one scale; the smoke test's options.short
// selects the small one.
type sizes struct {
	coldSinks              int     // synth_cold's base design
	ecoSinks               int     // eco_resubmit's base design
	ecoFrac                float64 // share of it each delta edits
	poolDesigns            int     // cache_hits' working set
	poolMin, poolMax       int     // cache_hits design sizes
	clusterMin, clusterMax int     // cluster_gateway fresh design sizes
}

var (
	fullSizes = sizes{1024, 2048, 0.005, 128, 64, 256, 128, 384}
	// The short ECO deltas still edit 3 sinks, so two drop deltas never
	// collide on one key.
	shortSizes = sizes{64, 128, 0.025, 8, 16, 48, 16, 48}
)

// workload is one traffic mix the benchmark runs.
type workload struct {
	name string
	// seconds is the measured time it gets in the all-workload mode.
	seconds int
	// p50Classes, when set, restricts latency_p50_ms to these request
	// classes.  cluster_gateway sends fresh designs near 200 ms and
	// cache-served requests near 3 ms in equal shares, so the median of all
	// its requests falls on the boundary between the two modes; its median
	// is that of the cache-served half, the gateway hits and peer reads the
	// workload exists for.  Every other percentile is over all requests.
	p50Classes []string
	// setup builds the servers and anything the clients draw from.
	setup func(ctx context.Context, e *env) (*rig, error)
}

var workloads = []*workload{
	{name: "synth_cold", seconds: 40, setup: setupSynthCold},
	{name: "eco_resubmit", seconds: 30, setup: setupEco},
	{name: "cache_hits", seconds: 30, setup: setupCacheHits},
	{name: "cluster_gateway", seconds: 30, p50Classes: []string{classHit, classPeer}, setup: setupCluster},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// env is what a set-up needs from the run.
type env struct {
	seed  int64
	sizes sizes
	dir   string // parent of the servers' cache directories
}

// design is one sink set the workload submits.  first is the compacted result
// JSON it was first served with; every later hit must return the same bytes.
// A design belongs to one client (or, for the cache_hits pool, is written
// only during set-up), so its fields need no lock.
type design struct {
	sinks  []ctsserver.Sink
	baseID string // baseJob of an ECO delta
	first  []byte
	key    string
	seen   map[string]bool // cluster: members that hold the result
}

// request is one job a client sends.
type request struct {
	class  string
	to     *ctsserver.Client
	design *design
	// fresh marks a design first served by this request: it joins the
	// client's own designs (and the quality panel) once it succeeds.
	fresh bool
}

// member is one in-process ctsd.
type member struct {
	srv    *ctsserver.Server
	ts     *httptest.Server
	client *ctsserver.Client
	dir    string
}

// rig is one set-up instance of a workload: its servers plus the state its
// clients draw requests from.
type rig struct {
	members   []*member
	gateway   *ctsserver.Gateway
	gwts      *httptest.Server
	entry     *ctsserver.Client // where clients submit
	transport *http.Transport
	pool      []*design // cache_hits working set
	// fresh makes the workload's i-th never-seen design from seed s.
	fresh func(s int64, i int) *design
	next  func(c *client) *request
}

// client is one closed-loop caller.  Its request sequence is a pure function
// of the seed and its index; only its own goroutine touches it while a window
// runs.
type client struct {
	idx  int
	seed int64
	rng  *rand.Rand
	n    int       // requests generated so far
	own  []*design // designs this client has had served
	deck []string  // cluster: classes left in the current deck
}

// freshRequest is client c's next never-seen design, sent to the entry
// point.
func (g *rig) freshRequest(c *client, class string) *request {
	d := g.fresh(jobSeed(c.seed, c.idx, c.n), c.n+c.idx)
	return &request{class: class, to: g.entry, design: d, fresh: true}
}

func newClient(seed int64, idx int) *client {
	return &client{idx: idx, seed: seed, rng: rand.New(rand.NewSource(jobSeed(seed, idx, -1)))}
}

// jobSeed derives the perturbation seed of client idx's i-th design
// (splitmix64 over the three inputs), so no two designs of a run, and no two
// seeds' runs, share a key.
func jobSeed(seed int64, idx, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx+1)*0xbf58476d1ce4e5b9 + uint64(i+2)*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// variant is a seeded ECO-style edit of a benchmark, as wire sinks.
func variant(base bench.Benchmark, kind string, frac float64, seed int64) []ctsserver.Sink {
	v, err := bench.Perturb(base, kind, frac, seed)
	if err != nil {
		panic(err) // kinds and fractions are constants of this file
	}
	return ctsserver.SinksFromCTS(v.Sinks)
}

func synthetic(n int) bench.Benchmark {
	bm, err := bench.SyntheticSized(n)
	if err != nil {
		panic(err) // sizes are positive constants of this file
	}
	return bm
}

// newRig starts n members, each with its own cache directory under e.dir,
// and points entry at the first.
func newRig(e *env, n int, tune func(*ctsserver.Options)) (*rig, error) {
	g := &rig{transport: &http.Transport{MaxIdleConnsPerHost: clientCount + 1}}
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(e.dir, "member")
		if err != nil {
			g.close()
			return nil, err
		}
		o := ctsserver.Options{CacheDir: dir}
		if tune != nil {
			tune(&o)
		}
		srv, err := ctsserver.New(o)
		if err != nil {
			g.close()
			_ = os.RemoveAll(dir)
			return nil, err
		}
		ts := httptest.NewServer(srv)
		g.members = append(g.members, &member{srv: srv, ts: ts, client: g.clientFor(ts.URL), dir: dir})
	}
	g.entry = g.members[0].client
	return g, nil
}

func (g *rig) clientFor(url string) *ctsserver.Client {
	c := ctsserver.NewClient(url)
	c.HTTPClient = &http.Client{Transport: g.transport}
	return c
}

// memberAt returns the member serving url.
func (g *rig) memberAt(url string) *member {
	for _, m := range g.members {
		if m.ts.URL == url {
			return m
		}
	}
	return nil
}

// close stops every server and removes the cache directories.
func (g *rig) close() {
	g.transport.CloseIdleConnections()
	if g.gateway != nil {
		g.gwts.Close()
		g.gateway.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, m := range g.members {
		m.ts.Close()
		_ = m.srv.Drain(ctx) // a drain past the timeout cancels; nothing is left to report
		_ = os.RemoveAll(m.dir)
	}
}

func setupSynthCold(_ context.Context, e *env) (*rig, error) {
	g, err := newRig(e, 1, nil)
	if err != nil {
		return nil, err
	}
	base := synthetic(e.sizes.coldSinks)
	g.fresh = func(s int64, _ int) *design {
		return &design{sinks: variant(base, "move", 0.01, s)}
	}
	g.next = func(c *client) *request { return g.freshRequest(c, classCold) }
	return g, nil
}

// ecoKinds are the edits eco_resubmit cycles through.
var ecoKinds = []string{"move", "add", "drop"}

func setupEco(ctx context.Context, e *env) (*rig, error) {
	g, err := newRig(e, 1, nil)
	if err != nil {
		return nil, err
	}
	base := synthetic(e.sizes.ecoSinks)
	st, err := submitAndWait(ctx, g.entry, ctsserver.JobRequest{Sinks: ctsserver.SinksFromCTS(base.Sinks)})
	if err != nil {
		g.close()
		return nil, fmt.Errorf("synthesizing the ECO base: %w", err)
	}
	g.fresh = func(s int64, i int) *design {
		return &design{sinks: variant(base, ecoKinds[i%len(ecoKinds)], e.sizes.ecoFrac, s), baseID: st.ID}
	}
	g.next = func(c *client) *request { return g.freshRequest(c, classEco) }
	return g, nil
}

func setupCacheHits(ctx context.Context, e *env) (*rig, error) {
	// 16 KiB of memory tier holds about a quarter of the pool's results, so
	// most hits come from the disk store.
	g, err := newRig(e, 1, func(o *ctsserver.Options) { o.CacheBytes = 16 << 10 })
	if err != nil {
		return nil, err
	}
	g.fresh = func(s int64, i int) *design {
		return sizedDesign(e.sizes.poolMin, e.sizes.poolMax, s, i)
	}
	g.pool = make([]*design, e.sizes.poolDesigns)
	for k := range g.pool {
		g.pool[k] = g.fresh(jobSeed(e.seed, -1, k), k)
	}
	if err := serveAll(ctx, g.entry, g.pool); err != nil {
		g.close()
		return nil, fmt.Errorf("warming the pool: %w", err)
	}
	g.next = func(c *client) *request {
		return &request{class: classHit, to: g.entry, design: g.pool[c.rng.Intn(len(g.pool))]}
	}
	return g, nil
}

// sizedDesign is a 1% move of a synthetic design whose size is drawn from
// band i%strata of [lo, hi], all seeded by s.
func sizedDesign(lo, hi int, s int64, i int) *design {
	n := sizeIn(lo, hi, i%strata, strata, rand.New(rand.NewSource(s)))
	return &design{sinks: variant(synthetic(n), "move", 0.01, s)}
}

// serveAll serves every design once, on clientCount goroutines, and records
// the first result and key of each.
func serveAll(ctx context.Context, to *ctsserver.Client, designs []*design) error {
	errs := make(chan error, clientCount)
	for w := 0; w < clientCount; w++ {
		go func() {
			for k := w; k < len(designs); k += clientCount {
				d := designs[k]
				st, err := submitAndWait(ctx, to, ctsserver.JobRequest{Sinks: d.sinks, BaseJob: d.baseID})
				if err != nil {
					errs <- fmt.Errorf("design %d: %w", k, err)
					return
				}
				if d.first, err = compact(st.Result); err != nil {
					errs <- fmt.Errorf("design %d: %w", k, err)
					return
				}
				d.key = st.Key
			}
			errs <- nil
		}()
	}
	var first error
	for w := 0; w < clientCount; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func setupCluster(_ context.Context, e *env) (*rig, error) {
	g, err := newRig(e, 3, func(o *ctsserver.Options) { o.Workers, o.Parallelism = 1, 1 })
	if err != nil {
		return nil, err
	}
	urls := make([]string, len(g.members))
	for i, m := range g.members {
		urls[i] = m.ts.URL
	}
	for i, m := range g.members {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		m.srv.SetPeers(peers)
	}
	gw, err := ctsserver.NewGateway(ctsserver.GatewayOptions{Members: urls})
	if err != nil {
		g.close()
		return nil, err
	}
	g.gateway, g.gwts = gw, httptest.NewServer(gw)
	g.entry = g.clientFor(g.gwts.URL)
	sort.Strings(urls)

	g.fresh = func(s int64, i int) *design {
		return sizedDesign(e.sizes.clusterMin, e.sizes.clusterMax, s, i)
	}
	g.next = func(c *client) *request {
		if c.n < warmupJobs || len(c.own) == 0 {
			return g.freshRequest(c, classCold)
		}
		if len(c.deck) == 0 {
			c.deck = append(c.deck, clusterDeck...)
			c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
		}
		class := c.deck[0]
		c.deck = c.deck[1:]
		switch class {
		case classHit:
			return &request{class: classHit, to: g.entry, design: c.own[c.rng.Intn(len(c.own))]}
		case classPeer:
			var open []*design
			for _, d := range c.own {
				if len(d.seen) < len(urls) {
					open = append(open, d)
				}
			}
			if len(open) == 0 {
				return g.freshRequest(c, classCold)
			}
			d := open[c.rng.Intn(len(open))]
			for _, u := range urls {
				if !d.seen[u] {
					// Marked now, so a failed peer read is not retried on the
					// same member: it would no longer be a guaranteed peer hit.
					d.seen[u] = true
					return &request{class: classPeer, to: g.memberAt(u).client, design: d}
				}
			}
		}
		return g.freshRequest(c, classCold)
	}
	return g, nil
}

// sizeIn draws a size from band k of n equal bands of [lo, hi].
func sizeIn(lo, hi, k, n int, rng *rand.Rand) int {
	return lo + int((float64(k)+rng.Float64())*float64(hi-lo+1)/float64(n))
}

// noteServed records a fresh design's first result and ownership once its
// request succeeded.
func (g *rig) noteServed(c *client, q *request, st *ctsserver.JobStatus, result []byte) {
	d := q.design
	d.first, d.key = result, st.Key
	if g.gateway != nil {
		d.seen = map[string]bool{g.gateway.MemberFor(st.Key): true}
	}
	c.own = append(c.own, d)
}

// submitAndWait submits a job and follows it to its terminal state; it fails
// unless the job ends done.
func submitAndWait(ctx context.Context, to *ctsserver.Client, req ctsserver.JobRequest) (*ctsserver.JobStatus, error) {
	st, err := to.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	if !st.State.Terminal() {
		if st, err = to.Stream(ctx, st.ID, nil); err != nil {
			return nil, err
		}
	}
	if st.State != ctsserver.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}
