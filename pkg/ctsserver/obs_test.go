package ctsserver

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/obs"
)

// scrapeMetrics fetches GET /metrics and strictly parses the exposition; any
// malformed line fails the test.
func scrapeMetrics(t *testing.T, cl *Client) *obs.ParsedMetrics {
	t.Helper()
	resp, err := http.Get(cl.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("invalid /metrics exposition: %v", err)
	}
	return m
}

// mustValue fails unless the named sample exists.
func mustValue(t *testing.T, m *obs.ParsedMetrics, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := m.Value(name, labels)
	if !ok {
		t.Fatalf("metric %s%v missing from /metrics", name, labels)
	}
	return v
}

// TestMetricsExposition runs a synthesis job plus a cached resubmission and
// checks that /metrics is valid Prometheus text (every line parses, HELP/TYPE
// pairs, monotone cumulative buckets, le="+Inf" terminal — all enforced by
// obs.ParseText) carrying the expected counters and latency histograms.
func TestMetricsExposition(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	_ = srv
	ctx := context.Background()

	req := scaledRequest(t, 24)
	req.Priority = PriorityHigh
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, cl, st.ID); fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	st2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatalf("identical resubmission was not a cache hit: %+v", st2)
	}

	m := scrapeMetrics(t, cl)

	if v := mustValue(t, m, "ctsd_jobs_submitted_total", nil); v != 2 {
		t.Errorf("ctsd_jobs_submitted_total = %v, want 2", v)
	}
	if v := mustValue(t, m, "ctsd_job_cache_hits_total", nil); v != 1 {
		t.Errorf("ctsd_job_cache_hits_total = %v, want 1", v)
	}
	if v := mustValue(t, m, "ctsd_jobs_terminal_total", map[string]string{"state": "done"}); v != 2 {
		t.Errorf(`ctsd_jobs_terminal_total{state="done"} = %v, want 2`, v)
	}
	if v := mustValue(t, m, "ctsd_cache_hits_total", map[string]string{"tier": "memory"}); v != 1 {
		t.Errorf(`ctsd_cache_hits_total{tier="memory"} = %v, want 1`, v)
	}
	if v := mustValue(t, m, "ctsd_uptime_seconds", nil); v <= 0 {
		t.Errorf("ctsd_uptime_seconds = %v, want > 0", v)
	}
	// The synthesized job routed merges, so the process-wide work counter
	// has moved; its exact value is pinned in pkg/cts's sized goldens.
	if v := mustValue(t, m, "ctsd_mergeroute_cells_expanded_total", nil); v <= 0 {
		t.Errorf("ctsd_mergeroute_cells_expanded_total = %v, want > 0", v)
	}

	// Both jobs were high priority: the e2e histogram saw both, queue-wait
	// and run only the synthesized one (the hit is born terminal).
	high := map[string]string{"priority": "high"}
	mustHistogram := func(name string, wantCount uint64) *obs.ParsedHistogram {
		t.Helper()
		h, ok := m.Histogram(name, high)
		if !ok {
			t.Fatalf(`%s{priority="high"} missing from /metrics`, name)
		}
		if h.Count != wantCount {
			t.Fatalf(`%s{priority="high"}: count %d, want %d`, name, h.Count, wantCount)
		}
		return h
	}
	e2e := mustHistogram("ctsd_job_e2e_seconds", 2)
	run := mustHistogram("ctsd_job_run_seconds", 1)
	mustHistogram("ctsd_job_queue_wait_seconds", 1)
	if e2e.Sum < run.Sum {
		t.Errorf("e2e sum %v < run sum %v", e2e.Sum, run.Sum)
	}

	// The synthesized run emitted stage-end events for every pipeline stage
	// (verify is opt-in and not enabled on server flows).
	for _, stage := range []string{"topology", "mergeroute", "buffering", "timing"} {
		h, ok := m.Histogram("ctsd_stage_seconds", map[string]string{"stage": stage})
		if !ok {
			t.Errorf(`ctsd_stage_seconds{stage=%q} missing from /metrics`, stage)
		} else if h.Count == 0 {
			t.Errorf(`ctsd_stage_seconds{stage=%q}: no observations`, stage)
		}
	}
}

// TestMetricsStatsReconcile checks that the /metrics histograms and the
// /v1/stats latency summaries are two views of the same state: identical
// counts and sums, identical bucket-interpolated percentiles.
func TestMetricsStatsReconcile(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
	ctx := context.Background()

	for i, p := range []Priority{PriorityLow, PriorityNormal, PriorityNormal, PriorityHigh} {
		req := scaledRequest(t, 16+4*i) // distinct sink sets: no cache hits
		req.Priority = p
		st, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, cl, st.ID); fin.State != StateDone {
			t.Fatalf("job finished %s: %s", fin.State, fin.Error)
		}
	}

	// All jobs are terminal, so nothing moves between the two reads.
	m := scrapeMetrics(t, cl)
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UptimeSeconds <= 0 || stats.Goroutines <= 0 {
		t.Errorf("stats uptime=%v goroutines=%d, want positive", stats.UptimeSeconds, stats.Goroutines)
	}

	for _, p := range []Priority{PriorityLow, PriorityNormal, PriorityHigh} {
		lat, ok := stats.Latency[p]
		if !ok {
			t.Fatalf("/v1/stats latency map lacks priority %q", p)
		}
		labels := map[string]string{"priority": string(p)}
		for _, view := range []struct {
			metric  string
			summary LatencySummary
		}{
			{"ctsd_job_queue_wait_seconds", lat.QueueWait},
			{"ctsd_job_run_seconds", lat.Run},
			{"ctsd_job_e2e_seconds", lat.E2E},
		} {
			h, ok := m.Histogram(view.metric, labels)
			if !ok {
				t.Fatalf("metric %s%v missing from /metrics", view.metric, labels)
			}
			if h.Count != view.summary.Count {
				t.Errorf("%s{priority=%q}: /metrics count %d != /v1/stats count %d",
					view.metric, p, h.Count, view.summary.Count)
			}
			if h.Sum != view.summary.SumSeconds {
				t.Errorf("%s{priority=%q}: /metrics sum %v != /v1/stats sum %v",
					view.metric, p, h.Sum, view.summary.SumSeconds)
			}
			// Same bounds, same counts, same estimator: the percentiles
			// must agree exactly, not approximately.
			for _, q := range []struct {
				q    float64
				want float64
			}{{0.50, view.summary.P50Seconds}, {0.90, view.summary.P90Seconds}, {0.99, view.summary.P99Seconds}} {
				if got := h.Quantile(q.q); got != q.want {
					t.Errorf("%s{priority=%q} p%v: /metrics %v != /v1/stats %v",
						view.metric, p, 100*q.q, got, q.want)
				}
			}
		}
	}
}

// fetchTrace fetches GET /v1/jobs/{id}/trace, returning the raw bytes and the
// decoded trace.
func fetchTrace(t *testing.T, cl *Client, id string) ([]byte, *JobTrace) {
	t.Helper()
	resp, err := http.Get(cl.BaseURL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %s: %s", resp.Status, raw)
	}
	var tr JobTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("decoding trace %s: %v", raw, err)
	}
	return raw, &tr
}

// findSpan returns the first child with the given name.
func findSpan(spans []*obs.SpanJSON, name string) *obs.SpanJSON {
	for _, sp := range spans {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

// TestJobTrace checks GET /v1/jobs/{id}/trace: a completed job's span tree
// has the job/queued/run skeleton, the stage spans tile the run span, the
// whole tree is closed, and replays are byte-identical.
func TestJobTrace(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	st, err := cl.Submit(ctx, scaledRequest(t, 32))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, cl, st.ID); fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}

	raw, tr := fetchTrace(t, cl, st.ID)
	if tr.ID != st.ID || tr.State != StateDone {
		t.Fatalf("trace header: %+v", tr)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "job" {
		t.Fatalf("want a single root span named job, got %+v", tr.Spans)
	}
	root := tr.Spans[0]
	if root.Attrs["state"] != string(StateDone) {
		t.Errorf("root state attr = %q, want %q", root.Attrs["state"], StateDone)
	}

	var assertClosed func(sp *obs.SpanJSON)
	assertClosed = func(sp *obs.SpanJSON) {
		if sp.Open {
			t.Errorf("span %q still open in a terminal trace", sp.Name)
		}
		if sp.DurationMs < 0 {
			t.Errorf("span %q has negative duration %v", sp.Name, sp.DurationMs)
		}
		for _, c := range sp.Spans {
			assertClosed(c)
		}
	}
	assertClosed(root)

	queued := findSpan(root.Spans, "queued")
	run := findSpan(root.Spans, "run")
	if queued == nil || run == nil {
		t.Fatalf("root lacks queued/run children: %+v", root.Spans)
	}
	if queued.StartMs != 0 {
		t.Errorf("queued span starts at %v ms, want 0 (the admission anchor)", queued.StartMs)
	}
	if len(run.Spans) == 0 {
		t.Fatal("run span has no stage children")
	}

	// The stage spans carry the flow's own measured elapsed times, which are
	// sub-intervals of the run: their total can never exceed the run span,
	// and for a non-trivial run they account for most of it.
	var stageSum float64
	for _, sp := range run.Spans {
		stageSum += sp.DurationMs
	}
	if stageSum <= 0 {
		t.Fatal("stage spans sum to zero duration")
	}
	if slack := 5.0; stageSum > run.DurationMs+slack {
		t.Errorf("stage spans sum to %vms, exceeding the %vms run span", stageSum, run.DurationMs)
	}
	if run.DurationMs > 20 && stageSum < run.DurationMs/2 {
		t.Errorf("stage spans sum to %vms of a %vms run: instrumentation lost most of the run", stageSum, run.DurationMs)
	}

	// A terminal trace is frozen: replaying the endpoint yields the same
	// bytes.
	raw2, _ := fetchTrace(t, cl, st.ID)
	if string(raw) != string(raw2) {
		t.Errorf("terminal trace not replayable:\n%s\n%s", raw, raw2)
	}

	// A cache hit is born terminal: its trace has no run span and marks the
	// root as a hit.
	st2, err := cl.Submit(ctx, scaledRequest(t, 32))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatalf("resubmission was not a cache hit: %+v", st2)
	}
	_, hitTr := fetchTrace(t, cl, st2.ID)
	hitRoot := hitTr.Spans[0]
	if hitRoot.Attrs["cacheHit"] != "true" {
		t.Errorf("cache-hit root attrs = %v, want cacheHit=true", hitRoot.Attrs)
	}
	if findSpan(hitRoot.Spans, "run") != nil {
		t.Error("born-terminal job grew a run span")
	}

	resp, err := http.Get(cl.BaseURL + "/v1/jobs/no-such-job/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job: %s, want 404", resp.Status)
	}
}
