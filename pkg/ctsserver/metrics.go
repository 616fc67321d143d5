package ctsserver

import (
	"runtime"
	"time"

	"repro/internal/mergeroute"
	"repro/internal/obs"
	"repro/pkg/cts"
)

// priorities lists the scheduling classes in rank order, for stable metric
// label sets and /v1/stats summaries.
var priorities = []Priority{PriorityLow, PriorityNormal, PriorityHigh}

// serverMetrics is the server's Prometheus-facing metric surface.  It keeps
// new state only where none exists elsewhere — the latency and stage-duration
// histograms — and exports everything the scheduler, the cache tiers and the
// merge arena already count through read-at-scrape func series, so no counter
// is ever maintained twice.
type serverMetrics struct {
	start time.Time
	reg   *obs.Registry

	// queueWait, runDur and e2e are per-priority latency histograms observed
	// exactly once per job, at its terminal transition: admission→start,
	// start→finish, and admission→finish.  Born-terminal jobs (cache hits,
	// born-expired) have no start and observe only e2e.
	queueWait obs.HistogramVec
	runDur    obs.HistogramVec
	e2e       obs.HistogramVec
	// stageDur is the per-stage synthesis duration histogram, fed from the
	// observer stream's stage-end events (per level for the leveled stages).
	stageDur obs.HistogramVec
}

// newServerMetrics wires the registry over the server's existing counters.
// It must run after the scheduler and caches are constructed.
func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{start: time.Now(), reg: obs.NewRegistry()}
	r := m.reg

	r.NewGauge("ctsd_uptime_seconds", "Seconds since the server started.").
		Func(func() float64 { return time.Since(m.start).Seconds() })
	r.NewGauge("ctsd_goroutines", "Live goroutine count.").
		Func(func() float64 { return float64(runtime.NumGoroutine()) })

	// Scheduler: admission counters and live queue occupancy.
	r.NewCounter("ctsd_jobs_submitted_total", "Jobs admitted, including born-terminal ones.").
		Func(func() float64 { return float64(s.sched.submitted.Load()) })
	r.NewCounter("ctsd_jobs_rejected_total", "Submissions bounced at admission (queue full).").
		Func(func() float64 { return float64(s.sched.rejected.Load()) })
	states := r.NewCounter("ctsd_jobs_terminal_total", "Jobs per terminal state.", "state")
	for _, st := range []struct {
		state JobState
		src   func() int64
	}{
		{StateDone, s.sched.completed.Load},
		{StateFailed, s.sched.failed.Load},
		{StateCanceled, s.sched.canceled.Load},
		{StateExpired, s.sched.expired.Load},
	} {
		src := st.src
		states.Func(func() float64 { return float64(src()) }, string(st.state))
	}
	r.NewCounter("ctsd_job_cache_hits_total", "Jobs served from the result cache without synthesis.").
		Func(func() float64 { return float64(s.sched.cacheHits.Load()) })
	queueGauge := r.NewGauge("ctsd_queue_depth", "Queued jobs per priority.", "priority")
	for _, p := range priorities {
		rank := p.rank()
		queueGauge.Func(func() float64 {
			_, _, by := s.sched.gauges()
			return float64(by[rank])
		}, string(p))
	}
	r.NewGauge("ctsd_running_jobs", "Jobs currently on a worker.").
		Func(func() float64 { _, running, _ := s.sched.gauges(); return float64(running) })

	// Result and subtree tiers: hits per level and misses, read at scrape
	// from each tier's own counters; a disabled subtree tier reports zero.
	for _, c := range []struct {
		t            *tier
		hits, misses obs.CounterVec
		missLabel    []string
	}{
		{s.cache,
			r.NewCounter("ctsd_cache_hits_total", "Result-cache lookup hits per tier.", "tier"),
			r.NewCounter("ctsd_cache_misses_total", "Result-cache lookup misses.", "tier"), []string{"result"}},
		{s.subtrees,
			r.NewCounter("ctsd_subtree_cache_hits_total", "Subtree-cache lookup hits per tier.", "tier"),
			r.NewCounter("ctsd_subtree_cache_misses_total", "Subtree-cache lookup misses (merges recomputed)."), nil},
	} {
		stats := func() SubtreeStats {
			if c.t == nil {
				return SubtreeStats{}
			}
			return c.t.stats()
		}
		c.hits.Func(func() float64 { return float64(stats().MemoryHits) }, "memory")
		c.hits.Func(func() float64 { return float64(stats().DiskHits) }, "disk")
		c.hits.Func(func() float64 { return float64(stats().PeerHits) }, "peer")
		c.misses.Func(func() float64 { return float64(stats().Misses) }, c.missLabel...)
	}
	r.NewCounter("ctsd_cache_evictions_total", "Result-cache memory-tier LRU evictions.").
		Func(func() float64 { return float64(s.cache.stats().Evictions) })

	// Synthesis aggregates from the shared observer sink, and the merge
	// router's scratch-arena recycling and maze work (process-wide, like the
	// pool).
	r.NewCounter("ctsd_flow_reused_merges_total", "Merges served from the subtree cache across all runs.").
		Func(func() float64 { return float64(s.metrics.Snapshot().Reused) })
	r.NewCounter("ctsd_arena_gets_total", "Merge-router scratch workspaces acquired.").
		Func(func() float64 { gets, _ := mergeroute.ArenaStats(); return float64(gets) })
	r.NewCounter("ctsd_arena_allocs_total", "Scratch acquisitions that allocated instead of recycling.").
		Func(func() float64 { _, allocs := mergeroute.ArenaStats(); return float64(allocs) })
	r.NewCounter("ctsd_mergeroute_cells_expanded_total", "Routing-grid cells expanded by the merge router's maze search.").
		Func(func() float64 { return float64(mergeroute.WorkStats()) })

	m.queueWait = r.NewHistogram("ctsd_job_queue_wait_seconds",
		"Admission-to-start wait per priority.", obs.LatencyBuckets, "priority")
	m.runDur = r.NewHistogram("ctsd_job_run_seconds",
		"Start-to-finish synthesis duration per priority.", obs.LatencyBuckets, "priority")
	m.e2e = r.NewHistogram("ctsd_job_e2e_seconds",
		"Admission-to-terminal latency per priority (cache hits included).", obs.LatencyBuckets, "priority")
	m.stageDur = r.NewHistogram("ctsd_stage_seconds",
		"Synthesis stage duration (per level for the leveled stages).", obs.LatencyBuckets, "stage")
	return m
}

// observeStage folds one observer event into the stage histogram; installed
// on every job's flow alongside the cts.MetricsObserver.
func (m *serverMetrics) observeStage(e cts.Event) {
	if e.Kind == cts.EventStageEnd {
		m.stageDur.With(e.Stage).ObserveDuration(e.Elapsed)
	}
}

// observeTerminal records a job's latencies at its terminal transition.
func (m *serverMetrics) observeTerminal(j *job) {
	created, started, finished := j.times()
	p := string(j.priority)
	if !started.IsZero() {
		m.queueWait.With(p).ObserveDuration(started.Sub(created))
		m.runDur.With(p).ObserveDuration(finished.Sub(started))
	}
	m.e2e.With(p).ObserveDuration(finished.Sub(created))
}

// summarize renders one histogram snapshot as the /v1/stats wire summary.
func summarize(s obs.HistogramSnapshot) LatencySummary {
	return LatencySummary{
		Count:      s.Count(),
		SumSeconds: s.Sum,
		P50Seconds: s.Quantile(0.50),
		P90Seconds: s.Quantile(0.90),
		P99Seconds: s.Quantile(0.99),
	}
}

// latencySummaries renders the per-priority histogram summaries for
// GET /v1/stats.  Every priority is present, observed or not, so the wire
// shape is stable.
func (m *serverMetrics) latencySummaries() map[Priority]PriorityLatency {
	out := make(map[Priority]PriorityLatency, len(priorities))
	for _, p := range priorities {
		out[p] = PriorityLatency{
			QueueWait: summarize(m.queueWait.With(string(p)).Snapshot()),
			Run:       summarize(m.runDur.With(string(p)).Snapshot()),
			E2E:       summarize(m.e2e.With(string(p)).Snapshot()),
		}
	}
	return out
}
