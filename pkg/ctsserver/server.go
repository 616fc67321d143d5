package ctsserver

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/charlib"
	"repro/internal/spice"
	"repro/internal/tech"
	"repro/pkg/cts"
	"repro/pkg/ctsserver/store"
)

// Options configures a Server.  The zero value is usable: default
// technology, analytic library, GOMAXPROCS workers, a queue of 64 and a
// 64 MiB result cache.
type Options struct {
	// Tech is the technology every job synthesizes against; nil selects
	// tech.Default().
	Tech *tech.Technology
	// Library is the delay/slew library shared by all jobs; nil selects the
	// analytic closed-form library for Tech.
	Library *charlib.Library
	// Workers bounds the number of concurrently running jobs (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of accepted-but-not-running jobs; the
	// API answers 429 beyond it (<= 0 selects 64).
	QueueDepth int
	// CacheBytes is the result-cache byte budget over the stored Result
	// JSON; 0 selects 64 MiB and negative values disable the memory tier.
	CacheBytes int64
	// CacheDir, when non-empty, enables the disk tier of the result cache:
	// results are written through to this directory and read back on memory
	// misses, so the cache survives restarts (ctsd's -cache-dir).  The
	// directory is created if missing.
	CacheDir string
	// CacheDiskBytes is the disk tier's byte budget over the entry files'
	// sizes, each rounded up to a whole 4 KiB block; 0 selects 1 GiB and
	// negative values leave the tier unbounded.  Ignored without CacheDir.
	CacheDiskBytes int64
	// SubtreeCacheBytes is the subtree cache's memory budget over the
	// encoded per-merge sub-trees that back incremental (baseJob) runs;
	// 0 selects 64 MiB and negative values disable the tier entirely
	// (baseJob requests then answer 400 incremental-disabled).
	SubtreeCacheBytes int64
	// SubtreeCacheDiskBytes is the subtree disk tier's byte budget; 0
	// selects 1 GiB and negative values leave the tier unbounded.  The disk
	// tier lives under CacheDir ("subtrees" subdirectory) and only holds
	// coarse sub-trees (>= 16 KiB encoded) — see the package documentation.
	// Ignored without CacheDir.
	SubtreeCacheDiskBytes int64
	// Parallelism is the intra-run merge fan-out of every job's flow
	// (cts.WithParallelism); 0 selects GOMAXPROCS.
	Parallelism int
	// MaxSinks rejects requests with more sinks (<= 0 means no limit).
	MaxSinks int
	// JobRetention bounds how many terminal jobs stay addressable for
	// GET/events replay; the oldest are forgotten beyond it (<= 0 selects
	// 4096).
	JobRetention int
	// Peers are sibling ctsd base URLs consulted on local cache misses
	// before synthesizing (cluster mode; see SetPeers, which can also
	// install them on a running server).  Empty disables peer lookups.
	Peers []string
	// Logger receives structured lifecycle logs (one line per admission and
	// per terminal transition, with job id, key, state and durations); nil
	// discards them.
	Logger *slog.Logger
}

// Server is the long-lived synthesis service: an http.Handler exposing the
// job API, backed by the bounded scheduler and the content-addressed result
// cache.  See the package documentation for the endpoint list.
type Server struct {
	opts     Options
	tech     *tech.Technology
	library  *charlib.Library
	mux      *http.ServeMux
	sched    *scheduler
	cache    *tier    // results by canonical request key
	subtrees *tier    // sub-trees by subtree key; nil when disabled
	peers    *peerSet // sibling members for cross-node cache reads
	metrics  *cts.MetricsObserver
	obsm     *serverMetrics
	log      *slog.Logger

	mu            sync.Mutex
	jobs          map[string]*job
	terminal      []retainedJob // terminal jobs, oldest first, for retention
	retainedBytes int64

	idPrefix string
	idCtr    atomic.Uint64

	// runHook replaces the synthesis call in tests that need deterministic
	// control over job duration; nil selects the real flow run.
	runHook func(ctx context.Context, j *job) (*cts.Result, error)
}

// New assembles a Server and starts its worker pool.
func New(o Options) (*Server, error) {
	if o.Tech == nil {
		o.Tech = tech.Default()
	}
	if err := o.Tech.Validate(); err != nil {
		return nil, err
	}
	if o.Library == nil {
		o.Library = charlib.NewAnalytic(o.Tech)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	}
	if o.CacheDiskBytes == 0 {
		o.CacheDiskBytes = 1 << 30
	}
	if o.SubtreeCacheBytes == 0 {
		o.SubtreeCacheBytes = 64 << 20
	}
	if o.SubtreeCacheDiskBytes == 0 {
		o.SubtreeCacheDiskBytes = 1 << 30
	}
	if o.JobRetention <= 0 {
		o.JobRetention = 4096
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	var prefix [4]byte
	if _, err := rand.Read(prefix[:]); err != nil {
		return nil, fmt.Errorf("ctsserver: seeding job ids: %w", err)
	}
	var disk *store.Store
	if o.CacheDir != "" {
		d, err := store.Open(o.CacheDir, o.CacheDiskBytes)
		if err != nil {
			return nil, err
		}
		disk = d
	}
	peers := newPeerSet(o.Peers)
	var subtrees *tier
	if o.SubtreeCacheBytes > 0 {
		var sdisk *store.Store
		if o.CacheDir != "" {
			d, err := store.Open(filepath.Join(o.CacheDir, "subtrees"), o.SubtreeCacheDiskBytes)
			if err != nil {
				return nil, err
			}
			sdisk = d
		}
		subtrees = newTier(subtreeKind, o.SubtreeCacheBytes, sdisk, peers)
	}
	s := &Server{
		opts:     o,
		tech:     o.Tech,
		library:  o.Library,
		cache:    newTier(resultKind, o.CacheBytes, disk, peers),
		subtrees: subtrees,
		peers:    peers,
		metrics:  cts.NewMetricsObserver(),
		log:      o.Logger,
		jobs:     map[string]*job{},
		idPrefix: hex.EncodeToString(prefix[:]),
	}
	s.sched = newScheduler(o.Workers, o.QueueDepth, s.execute, s.expireQueued)
	s.obsm = newServerMetrics(s)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// Peer cache reads (cluster mode): local levels only, one hop, no
	// recursion — see peer.go.  A disabled subtree tier answers 404.
	mux.HandleFunc("GET "+resultKind.route+"{key}", s.cache.servePeer)
	mux.HandleFunc("GET "+subtreeKind.route+"{key}", s.subtrees.servePeer)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics returns the server-wide synthesis metrics aggregator; every job's
// observer stream folds into it (cache hits run no synthesis and leave it
// untouched).
func (s *Server) Metrics() *cts.MetricsObserver { return s.metrics }

// Drain stops accepting jobs and blocks until every accepted job has
// finished.  When the context expires first, the remaining jobs are canceled
// and the context error is returned once they unwind.  It is what SIGTERM
// handling in ctsd calls before shutting the HTTP listener down.
func (s *Server) Drain(ctx context.Context) error {
	return s.sched.drain(ctx, s.cancelAll)
}

// cancelAll cancels every non-terminal job.
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		s.cancelJob(j)
	}
}

// newJobID mints a process-unique job id.
func (s *Server) newJobID() string {
	return fmt.Sprintf("job-%s-%d", s.idPrefix, s.idCtr.Add(1))
}

// register adds a job to the addressable set, forgetting the oldest terminal
// jobs beyond the retention bound.
func (s *Server) register(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
}

// retainBytes bounds the memory retained terminal jobs hold (their result
// JSON and event logs) on top of the Options.JobRetention count bound.
const retainBytes = 256 << 20

// retainedJob is one retention-list entry: a terminal job and the bytes its
// status and event log pin.
type retainedJob struct {
	id    string
	bytes int64
}

// retire records a terminal job for retention-based eviction.  Retention is
// bounded both by count and by retained bytes — a job's result JSON appears
// in its status and again inside its terminal log event, so large-result
// jobs are evicted long before the count bound would catch them.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size := j.retainedSize()
	s.terminal = append(s.terminal, retainedJob{id: j.id, bytes: size})
	s.retainedBytes += size
	for len(s.terminal) > s.opts.JobRetention ||
		(s.retainedBytes > retainBytes && len(s.terminal) > 1) {
		old := s.terminal[0]
		s.terminal = s.terminal[1:]
		s.retainedBytes -= old.bytes
		delete(s.jobs, old.id)
	}
}

// lookup resolves a job id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// finishJob is the one path of every terminal transition.  It drives a job
// to a terminal state exactly once and reports whether this call won; a
// non-empty from restricts the transition to jobs currently in that state
// (see job.finish).  The winning transition counts the job in the scheduler
// counters and the latency histograms before its status is visible, so a
// client that sees the job terminal finds it counted; the structured log
// line and retention follow.
func (s *Server) finishJob(j *job, from, state JobState, cacheHit bool, result json.RawMessage, errMsg string) bool {
	if !j.finish(from, state, cacheHit, result, errMsg, func() {
		s.sched.note(state, cacheHit)
		s.obsm.observeTerminalLocked(j)
	}) {
		return false
	}
	created, started, finished := j.times()
	attrs := []any{
		"job", j.id, "state", string(state), "priority", string(j.priority),
		"sinks", j.sinkCount, "key", j.key,
		"e2e", finished.Sub(created).Round(time.Microsecond),
	}
	if !started.IsZero() {
		attrs = append(attrs,
			"wait", started.Sub(created).Round(time.Microsecond),
			"run", finished.Sub(started).Round(time.Microsecond))
	}
	if cacheHit {
		attrs = append(attrs, "cacheHit", true)
	}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	if state == StateDone {
		s.log.Info("job finished", attrs...)
	} else {
		s.log.Warn("job finished", attrs...)
	}
	s.retire(j)
	return true
}

// expireQueued drives a job whose deadline passed while it waited in the
// queue to the expired terminal state; the worker that popped it calls this
// instead of running it.  It reports whether this call won the transition
// (a racing DELETE may have canceled the job first, in which case the
// cancel path already released the queue slot).
func (s *Server) expireQueued(j *job) bool {
	return s.finishJob(j, StateQueued, StateExpired, false, nil,
		fmt.Sprintf("deadline %s passed before the job started", rfc3339(j.deadline)))
}

// cancelJob cancels a job in any non-terminal state: a still-queued job
// becomes terminal in one atomic transition and releases its queue slot
// immediately (the worker will skip its dead FIFO entry; a job the worker
// started in the meantime is left to the context path), and a running one
// is canceled through its context, reaching the canceled state when the run
// unwinds.
func (s *Server) cancelJob(j *job) {
	if s.finishJob(j, StateQueued, StateCanceled, false, nil, "canceled before start") {
		s.sched.releaseQueued(j)
	}
	if j.cancel != nil {
		j.cancel()
	}
}

// execute runs one job to completion on a scheduler worker; the worker has
// already transitioned the job to running.  A run that dies of its own
// deadline (context.DeadlineExceeded from the job context) terminates as
// expired; a DELETE mid-run terminates as canceled.
func (s *Server) execute(j *job) {
	res, err := s.runSynthesis(j)
	switch {
	case err == nil:
		data, merr := json.Marshal(res)
		if merr != nil {
			s.finishJob(j, StateRunning, StateFailed, false, nil, fmt.Sprintf("marshaling result: %v", merr))
			return
		}
		s.cache.Put(j.key, data)
		s.finishJob(j, StateRunning, StateDone, false, data, "")
	case errors.Is(err, context.DeadlineExceeded) && j.ctx.Err() == context.DeadlineExceeded:
		s.finishJob(j, StateRunning, StateExpired, false, nil,
			fmt.Sprintf("deadline %s passed mid-run", rfc3339(j.deadline)))
	case errors.Is(err, context.Canceled):
		s.finishJob(j, StateRunning, StateCanceled, false, nil, err.Error())
	default:
		s.finishJob(j, StateRunning, StateFailed, false, nil, err.Error())
	}
}

// runSynthesis performs the actual flow run (or the test hook).  Incremental
// (baseJob) jobs take the delta path: the base job's sink set is gone by the
// time a delta arrives (finish drops it to keep retention small), so the run
// passes a nil base and leans entirely on the shared subtree cache, which
// still holds the base run's merges.  The result is bit-identical either
// way; only the amount of recomputation differs.
func (s *Server) runSynthesis(j *job) (*cts.Result, error) {
	if s.runHook != nil {
		return s.runHook(j.ctx, j)
	}
	if j.baseJob != "" {
		return j.flow.RunIncremental(j.ctx, nil, j.sinks)
	}
	return j.flow.Run(j.ctx, j.sinks)
}

// verifyTimeStep is the transient-simulation step in ps for jobs that
// request verification.
const verifyTimeStep = 1

// buildFlow assembles the job's flow from the request settings.  The
// observer stream feeds both the server-wide metrics and the job's event
// log, which /events replays and the trace is rendered from.
func (s *Server) buildFlow(req JobRequest, j *job) (*cts.Flow, error) {
	var set cts.Settings
	if req.Settings != nil {
		set = *req.Settings
	}
	opts := []cts.Option{
		cts.WithLibrary(s.library),
		cts.WithSlewLimit(set.SlewLimit),
		cts.WithSlewTarget(set.SlewTarget),
		cts.WithCostWeights(set.Alpha, set.Beta),
		cts.WithGrid(set.GridSize),
		cts.WithCorrection(set.Correction),
		cts.WithTopologyStrategy(set.Topology),
		cts.WithRoutingStrategy(set.Routing),
		cts.WithParallelism(s.opts.Parallelism),
	}
	if s.subtrees != nil {
		// Every job shares the server's subtree tier: plain runs write their
		// merges through (free warm-up), incremental runs read them back.
		opts = append(opts, cts.WithSubtreeCache(s.subtrees))
	}
	opts = append(opts,
		cts.WithObserver(func(e cts.Event) {
			s.metrics.Observe(e)
			j.appendFlow(e.Wire())
		}),
	)
	if req.Verify {
		opts = append(opts, cts.WithVerification(spice.Options{TimeStep: verifyTimeStep}))
	}
	return cts.New(s.tech, opts...)
}
