package ctsserver

import (
	"math"
	"runtime"
	"time"

	"repro/internal/mergeroute"
	"repro/internal/obs"
	"repro/pkg/cts"
)

// priorities lists the scheduling classes in rank order, for stable metric
// label sets and /v1/stats summaries.
var priorities = []Priority{PriorityLow, PriorityNormal, PriorityHigh}

// stages lists the flow's stage names, the label set of ctsd_stage_seconds.
var stages = []string{cts.StageTopology, cts.StageMergeRoute, cts.StageBuffering, cts.StageTiming, cts.StageVerify}

// serverMetrics is the server's Prometheus-facing metric surface and the only
// source GET /v1/stats reads.  It keeps new state only where none exists
// elsewhere — the per-priority latency histograms — and exports everything
// the options, the scheduler, the cache tiers, the server's MetricsObserver
// and the merge arena already hold through read-at-scrape func series, so no
// number is ever kept twice.
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
}

// newServerMetrics wires the registry over the server's existing state.  It
// must run after the scheduler and caches are constructed.
func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{start: time.Now(), reg: obs.NewRegistry()}
	r := m.reg

	r.NewGauge("ctsd_uptime_seconds", "Seconds since the server started.").
		Func(func() float64 { return time.Since(m.start).Seconds() })
	r.NewGauge("ctsd_goroutines", "Live goroutine count.").
		Func(func() float64 { return float64(runtime.NumGoroutine()) })

	// Scheduler: its bounds, admission counters and live queue occupancy.
	r.NewGauge("ctsd_workers", "Worker pool size.").
		Func(func() float64 { return float64(s.opts.Workers) })
	r.NewGauge("ctsd_queue_limit", "Queued-job bound; submissions beyond it get 429.").
		Func(func() float64 { return float64(s.opts.QueueDepth) })
	r.NewGauge("ctsd_draining", "1 while intake is stopped for shutdown, else 0.").
		Func(func() float64 { return oneIf(s.sched.isDraining()) })
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
		states.Func(func() float64 { return float64(st.src()) }, string(st.state))
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

	// Result and subtree tiers: hits per level, misses, evictions and the
	// memory level's occupancy, read at scrape from each tier's own
	// counters; a disabled subtree tier reports zero throughout.
	for _, c := range []struct {
		t            *tier
		name, what   string // family-name prefix; help-text subject
		hits, misses obs.CounterVec
		missLabel    []string
	}{
		{s.cache, "ctsd_cache", "Result-cache",
			r.NewCounter("ctsd_cache_hits_total", "Result-cache lookup hits per tier.", "tier"),
			r.NewCounter("ctsd_cache_misses_total", "Result-cache lookup misses.", "tier"), []string{"result"}},
		{s.subtrees, "ctsd_subtree_cache", "Subtree-cache",
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
		r.NewCounter(c.name+"_evictions_total", c.what+" memory-tier LRU evictions.").
			Func(func() float64 { return float64(stats().Evictions) })
		r.NewGauge(c.name+"_entries", c.what+" memory-tier entries.").
			Func(func() float64 { return float64(stats().Entries) })
		r.NewGauge(c.name+"_bytes", c.what+" memory-tier bytes held.").
			Func(func() float64 { return float64(stats().Bytes) })
		r.NewGauge(c.name+"_max_bytes", c.what+" memory-tier byte budget (<= 0: disabled).").
			Func(func() float64 { return float64(stats().MaxBytes) })
	}

	// Synthesis aggregates from the server's MetricsObserver, which every
	// job's observer stream feeds: flow and level counters, and the stage
	// durations on its obs.LatencyBuckets grid.
	flows := r.NewCounter("ctsd_flows_total", "Synthesis runs started, done (failed ones included) and failed.", "event")
	flows.Func(func() float64 { return float64(s.metrics.Snapshot().FlowsStarted) }, "started")
	flows.Func(func() float64 { return float64(s.metrics.Snapshot().FlowsDone) }, "done")
	flows.Func(func() float64 { return float64(s.metrics.Snapshot().FlowsFailed) }, "failed")
	r.NewCounter("ctsd_flow_levels_total", "Topology levels merged across all runs.").
		Func(func() float64 { return float64(s.metrics.Snapshot().Levels) })
	r.NewCounter("ctsd_flow_pairs_total", "Sub-tree pairs merged across all runs.").
		Func(func() float64 { return float64(s.metrics.Snapshot().Pairs) })
	r.NewCounter("ctsd_flow_flips_total", "H-structure flippings across all runs.").
		Func(func() float64 { return float64(s.metrics.Snapshot().Flips) })
	r.NewCounter("ctsd_flow_reused_merges_total", "Merges served from the subtree cache across all runs.").
		Func(func() float64 { return float64(s.metrics.Snapshot().Reused) })
	stageSeconds := r.NewHistogram("ctsd_stage_seconds",
		"Synthesis stage duration (per level for the leveled stages).", obs.LatencyBuckets, "stage")
	for _, name := range stages {
		stageSeconds.Func(func() obs.HistogramSnapshot {
			sm := s.metrics.Snapshot().Stages[name]
			counts := make([]uint64, len(obs.LatencyBuckets)+1)
			for i, n := range sm.Buckets {
				counts[i] = uint64(n)
			}
			return obs.HistogramSnapshot{Bounds: obs.LatencyBuckets, Counts: counts, Sum: sm.Total.Seconds()}
		}, name)
	}

	// The merge router's scratch-arena recycling and maze work (process-wide,
	// like the pool).
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
	return m
}

// oneIf renders a condition as a gauge value: 1 when it holds, else 0.
func oneIf(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// observeTerminalLocked records a job's latencies at its terminal
// transition.  Callers must hold j.mu (job.finish runs it).
func (m *serverMetrics) observeTerminalLocked(j *job) {
	p := string(j.priority)
	if !j.started.IsZero() {
		m.queueWait.With(p).ObserveDuration(j.started.Sub(j.created))
		m.runDur.With(p).ObserveDuration(j.finished.Sub(j.started))
	}
	m.e2e.With(p).ObserveDuration(j.finished.Sub(j.created))
}

// newGatewayMetrics builds the gateway's own metric surface, which its
// scrape merges with the members' expositions.
func newGatewayMetrics(g *Gateway) *obs.Registry {
	r := obs.NewRegistry()
	r.NewGauge("ctsd_gateway_uptime_seconds", "Seconds since the gateway started.").
		Func(func() float64 { return time.Since(g.start).Seconds() })
	up := r.NewGauge("ctsd_gateway_member_up", "Per-member liveness: 0 if an exchange with the member failed or it "+
		"answered 503 (draining) within the last "+downCooldown.String()+", else 1.", "member")
	for _, member := range g.ring.members {
		up.Func(func() float64 { return oneIf(g.down.up(member)) }, member)
	}
	r.NewCounter("ctsd_gateway_jobs_submitted_total", "Jobs accepted at the gateway.").
		Func(func() float64 { return float64(g.submitted.Load()) })
	r.NewCounter("ctsd_gateway_jobs_rerouted_total",
		"Dispatches that left the ring owner for a further replica.").
		Func(func() float64 { return float64(g.rerouted.Load()) })
	r.NewGauge("ctsd_gateway_jobs", "Jobs the gateway currently remembers.").
		Func(func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(len(g.jobs))
		})
	return r
}

// statsFromMetrics renders the GET /v1/stats body from an exposition, a
// member's own Gather or the gateway's merge, so /v1/stats and /metrics
// cannot disagree.  The disk snapshots are not series: the member adds
// them.  Subtrees is nil when no tier has a budget (the tier is disabled).
func statsFromMetrics(m *obs.ParsedMetrics) Stats {
	val := func(name string, label ...string) float64 {
		var labels map[string]string
		if len(label) == 2 {
			labels = map[string]string{label[0]: label[1]}
		}
		v, _ := m.Value(name, labels)
		return v
	}
	num := func(name string, label ...string) int64 { return int64(val(name, label...)) }
	tierStats := func(name string, missLabel ...string) SubtreeStats {
		return SubtreeStats{
			Entries:    int(num(name + "_entries")),
			Bytes:      num(name + "_bytes"),
			MaxBytes:   num(name + "_max_bytes"),
			MemoryHits: num(name+"_hits_total", "tier", "memory"),
			DiskHits:   num(name+"_hits_total", "tier", "disk"),
			PeerHits:   num(name+"_hits_total", "tier", "peer"),
			Misses:     num(name+"_misses_total", missLabel...),
			Evictions:  num(name + "_evictions_total"),
		}
	}
	summary := func(name string, p Priority) LatencySummary {
		h, ok := m.Histogram(name, map[string]string{"priority": string(p)})
		if !ok {
			return LatencySummary{}
		}
		return LatencySummary{Count: h.Count, SumSeconds: h.Sum,
			P50Seconds: h.Quantile(0.50), P90Seconds: h.Quantile(0.90), P99Seconds: h.Quantile(0.99)}
	}

	rs := tierStats("ctsd_cache", "tier", "result")
	st := Stats{
		Scheduler: SchedulerStats{
			Workers:          int(num("ctsd_workers")),
			QueueDepth:       int(num("ctsd_queue_limit")),
			QueuedByPriority: map[Priority]int{},
			Running:          int(num("ctsd_running_jobs")),
			Submitted:        num("ctsd_jobs_submitted_total"),
			Completed:        num("ctsd_jobs_terminal_total", "state", string(StateDone)),
			Failed:           num("ctsd_jobs_terminal_total", "state", string(StateFailed)),
			Canceled:         num("ctsd_jobs_terminal_total", "state", string(StateCanceled)),
			Expired:          num("ctsd_jobs_terminal_total", "state", string(StateExpired)),
			Rejected:         num("ctsd_jobs_rejected_total"),
			CacheHits:        num("ctsd_job_cache_hits_total"),
			Draining:         val("ctsd_draining") > 0,
		},
		Cache: CacheStats{
			Entries: rs.Entries, Bytes: rs.Bytes, MaxBytes: rs.MaxBytes,
			Hits:       rs.MemoryHits + rs.DiskHits,
			MemoryHits: rs.MemoryHits, DiskHits: rs.DiskHits, PeerHits: rs.PeerHits,
			Misses: rs.Misses, Evictions: rs.Evictions,
		},
		Metrics: cts.MetricsSnapshot{
			FlowsStarted: int(num("ctsd_flows_total", "event", "started")),
			FlowsDone:    int(num("ctsd_flows_total", "event", "done")),
			FlowsFailed:  int(num("ctsd_flows_total", "event", "failed")),
			Levels:       int(num("ctsd_flow_levels_total")),
			Pairs:        int(num("ctsd_flow_pairs_total")),
			Flips:        int(num("ctsd_flow_flips_total")),
			Reused:       int(num("ctsd_flow_reused_merges_total")),
			Stages:       map[string]cts.StageMetrics{},
		},
		UptimeSeconds: val("ctsd_uptime_seconds"),
		Goroutines:    int(num("ctsd_goroutines")),
		Latency:       map[Priority]PriorityLatency{},
	}
	if sub := tierStats("ctsd_subtree_cache"); sub.MaxBytes > 0 {
		st.Cache.Subtrees = &sub
	}
	for _, p := range priorities {
		n := int(num("ctsd_queue_depth", "priority", string(p)))
		st.Scheduler.QueuedByPriority[p] = n
		st.Scheduler.Queued += n
		st.Latency[p] = PriorityLatency{
			QueueWait: summary("ctsd_job_queue_wait_seconds", p),
			Run:       summary("ctsd_job_run_seconds", p),
			E2E:       summary("ctsd_job_e2e_seconds", p),
		}
	}
	for _, name := range stages {
		h, ok := m.Histogram("ctsd_stage_seconds", map[string]string{"stage": name})
		if !ok || h.Count == 0 {
			continue // only stages that ran are listed
		}
		sm := cts.StageMetrics{Count: int(h.Count), Total: time.Duration(math.Round(h.Sum * float64(time.Second))),
			Buckets: make([]int, len(h.Counts))}
		for i, n := range h.Counts {
			sm.Buckets[i] = int(n)
		}
		st.Metrics.Stages[name] = sm
	}
	return st
}
