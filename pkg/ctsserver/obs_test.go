package ctsserver

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/pkg/cts"
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

// stageExec is one stage execution read off a job's SSE log: the span the
// served trace must show for it under "run".
type stageExec struct {
	stage         string
	level         int
	ended         bool
	pairs, reused int
	elapsedMs     float64
}

// stageExecs pairs a flow log's stage-start and stage-end events, one entry
// per stage-start in event order.
func stageExecs(events []cts.WireEvent) []stageExec {
	var out []stageExec
	for _, e := range events {
		switch e.Kind {
		case "stage-start":
			out = append(out, stageExec{stage: e.Stage, level: e.Level})
		case "stage-end":
			for i := len(out) - 1; i >= 0; i-- {
				if x := &out[i]; x.stage == e.Stage && x.level == e.Level && !x.ended {
					x.ended, x.pairs, x.reused, x.elapsedMs = true, e.Pairs, e.Reused, e.ElapsedMs
					break
				}
			}
		}
	}
	return out
}

// checkStageSpans compares run's children with the stage executions of the
// job's log: one span per execution, in event order, named for the stage,
// with level/pairs/reused attrs exactly where the events carry them and the
// flow's own Elapsed as the duration of every stage the run ended.
func checkStageSpans(t *testing.T, run *obs.SpanJSON, want []stageExec) {
	t.Helper()
	if len(run.Spans) != len(want) {
		t.Fatalf("run has %d stage spans, the log %d stage executions", len(run.Spans), len(want))
	}
	attr := func(n int) string {
		if n > 0 {
			return strconv.Itoa(n)
		}
		return ""
	}
	for i, w := range want {
		sp := run.Spans[i]
		if sp.Name != w.stage {
			t.Errorf("stage span %d is %q, want %q", i, sp.Name, w.stage)
		}
		wantAttrs := map[string]string{"level": attr(w.level), "pairs": "", "reused": ""}
		if w.ended {
			wantAttrs["pairs"], wantAttrs["reused"] = attr(w.pairs), attr(w.reused)
			if sp.DurationMs != w.elapsedMs {
				t.Errorf("%s span %d lasts %vms, its stage-end event %vms", w.stage, i, sp.DurationMs, w.elapsedMs)
			}
		}
		for k, v := range wantAttrs {
			if got, ok := sp.Attrs[k]; got != v || ok != (v != "") {
				t.Errorf("%s span %d: attr %s = %q (present %v), want %q", w.stage, i, k, got, ok, v)
			}
		}
		if len(sp.Attrs) > 3 || len(sp.Spans) != 0 {
			t.Errorf("%s span %d carries extra attrs or children: %+v", w.stage, i, sp)
		}
	}
}

// streamEvents replays a job's SSE log and returns its flow events and final
// status.
func streamEvents(t *testing.T, cl *Client, id string) ([]cts.WireEvent, *JobStatus) {
	t.Helper()
	var events []cts.WireEvent
	final, err := cl.Stream(context.Background(), id, func(we cts.WireEvent) { events = append(events, we) })
	if err != nil {
		t.Fatal(err)
	}
	return events, final
}

// traceRun returns the root and run spans of a trace, failing unless the
// root is a single "job" span whose children are exactly queued and run.
func traceRun(t *testing.T, tr *JobTrace) (root, queued, run *obs.SpanJSON) {
	t.Helper()
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "job" {
		t.Fatalf("want a single root span named job, got %+v", tr.Spans)
	}
	root = tr.Spans[0]
	if len(root.Spans) != 2 || root.Spans[0].Name != "queued" || root.Spans[1].Name != "run" {
		t.Fatalf("root children = %+v, want queued then run", root.Spans)
	}
	return root, root.Spans[0], root.Spans[1]
}

// TestJobTraceStages pins the served span tree against the job's own event
// log: the stage spans of a done job and of a baseJob delta, a job canceled
// while merge-routing, and a fetch while the job runs.
func TestJobTraceStages(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	base := scaledRequest(t, 48)
	stBase, err := cl.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("done", func(t *testing.T) {
		events, fin := streamEvents(t, cl, stBase.ID)
		if fin.State != StateDone {
			t.Fatalf("job finished %s: %s", fin.State, fin.Error)
		}
		_, tr := fetchTrace(t, cl, stBase.ID)
		_, _, run := traceRun(t, tr)
		want := stageExecs(events)
		checkStageSpans(t, run, want)

		// The levelized flow: topology then mergeroute per level, each with
		// its level and mergeroute with its pairs, then the two whole-tree
		// stages without one.
		var m map[string]any
		if err := json.Unmarshal(fin.Result, &m); err != nil {
			t.Fatal(err)
		}
		levels := int(m["levels"].(float64))
		if levels < 2 || len(want) != 2*levels+2 {
			t.Fatalf("%d levels, %d stage executions", levels, len(want))
		}
		for l := 1; l <= levels; l++ {
			topo, mr := run.Spans[2*l-2], run.Spans[2*l-1]
			if topo.Name != cts.StageTopology || mr.Name != cts.StageMergeRoute {
				t.Fatalf("level %d spans %q, %q", l, topo.Name, mr.Name)
			}
			if topo.Attrs["level"] != strconv.Itoa(l) || mr.Attrs["level"] != strconv.Itoa(l) {
				t.Errorf("level %d spans carry levels %q, %q", l, topo.Attrs["level"], mr.Attrs["level"])
			}
			if mr.Attrs["pairs"] == "" {
				t.Errorf("mergeroute level %d has no pairs attr", l)
			}
		}
		for i, stage := range []string{cts.StageBuffering, cts.StageTiming} {
			sp := run.Spans[2*levels+i]
			if sp.Name != stage || sp.Attrs["level"] != "" {
				t.Errorf("span %d = %q with attrs %v, want %s without a level", 2*levels+i, sp.Name, sp.Attrs, stage)
			}
		}
	})

	t.Run("baseJob delta", func(t *testing.T) {
		delta := base
		delta.Sinks = append([]Sink(nil), base.Sinks...)
		delta.Sinks[3].X += 40
		delta.BaseJob = stBase.ID
		st, err := cl.Submit(ctx, delta)
		if err != nil {
			t.Fatal(err)
		}
		events, fin := streamEvents(t, cl, st.ID)
		if fin.State != StateDone || fin.CacheHit {
			t.Fatalf("delta job finished %s (cacheHit %v): %s", fin.State, fin.CacheHit, fin.Error)
		}
		_, tr := fetchTrace(t, cl, st.ID)
		_, _, run := traceRun(t, tr)
		checkStageSpans(t, run, stageExecs(events))
		reused := 0
		for _, sp := range run.Spans {
			if sp.Name == cts.StageMergeRoute && sp.Attrs["reused"] != "" {
				reused++
			}
		}
		if reused == 0 {
			t.Error("no mergeroute span of the delta carries a reused attr")
		}
	})

	t.Run("canceled during merge-routing", func(t *testing.T) {
		bm, err := bench.SyntheticScaled("r5", 1024)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.Submit(ctx, JobRequest{Name: bm.Name, Sinks: SinksFromCTS(bm.Sinks)})
		if err != nil {
			t.Fatal(err)
		}
		var events []cts.WireEvent
		canceled := false
		fin, err := cl.Stream(ctx, st.ID, func(we cts.WireEvent) {
			events = append(events, we)
			if !canceled && we.Kind == "stage-start" && we.Stage == cts.StageMergeRoute {
				canceled = true
				if _, err := cl.Cancel(ctx, st.ID); err != nil {
					t.Error(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != StateCanceled {
			t.Fatalf("job finished %s, want canceled", fin.State)
		}
		_, tr := fetchTrace(t, cl, st.ID)
		root, _, run := traceRun(t, tr)
		if tr.State != StateCanceled || root.Attrs["state"] != string(StateCanceled) {
			t.Errorf("trace state %s, root attrs %v, want canceled", tr.State, root.Attrs)
		}
		var assertClosed func(sp *obs.SpanJSON)
		assertClosed = func(sp *obs.SpanJSON) {
			if sp.Open {
				t.Errorf("span %q still open in a canceled trace", sp.Name)
			}
			for _, c := range sp.Spans {
				assertClosed(c)
			}
		}
		assertClosed(root)
		want := stageExecs(events)
		checkStageSpans(t, run, want)

		last := run.Spans[len(run.Spans)-1]
		if last.Name != cts.StageMergeRoute || want[len(want)-1].ended {
			t.Fatalf("last stage span %q (ended by the flow: %v), want an unfinished mergeroute",
				last.Name, want[len(want)-1].ended)
		}
		// The stage the run never ended closes with the run.  The slack
		// covers float rounding of the offsets.
		const slack = 1.0
		if last.StartMs < run.StartMs || last.StartMs+last.DurationMs > run.StartMs+run.DurationMs+slack {
			t.Errorf("unfinished mergeroute [%v, +%v]ms outside run [%v, +%v]ms",
				last.StartMs, last.DurationMs, run.StartMs, run.DurationMs)
		}
	})

	t.Run("mid-run fetch", func(t *testing.T) {
		srv, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
		release := make(chan struct{})
		hook, started := blockingHook(release)
		started.Add(1)
		srv.runHook = hook
		st, err := cl.Submit(ctx, scaledRequest(t, 16))
		if err != nil {
			t.Fatal(err)
		}
		started.Wait()
		_, tr := fetchTrace(t, cl, st.ID)
		root, queued, run := traceRun(t, tr)
		if tr.State != StateRunning {
			t.Errorf("trace state %s, want running", tr.State)
		}
		if !root.Open || !run.Open || queued.Open {
			t.Errorf("open marks: job %v, queued %v, run %v; want true, false, true", root.Open, queued.Open, run.Open)
		}
		if run.StartMs != queued.DurationMs {
			t.Errorf("run starts at %vms, queued ends at %vms", run.StartMs, queued.DurationMs)
		}
		close(release)
		waitTerminal(t, cl, st.ID)
	})
}

// TestJobTraceWhileRunning renders a job's trace over and over while its
// flow appends to the event log: every live rendering has the job and run
// spans open and at most its last stage span open.  Under -race it checks
// that rendering reads the log safely beside the appends.
func TestJobTraceWhileRunning(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	bm, err := bench.SyntheticScaled("r5", 512)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Submit(context.Background(), JobRequest{Name: bm.Name, Sinks: SinksFromCTS(bm.Sinks)})
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for {
		_, tr := fetchTrace(t, cl, st.ID)
		if tr.State.Terminal() {
			break
		}
		if tr.State != StateRunning {
			continue
		}
		root, queued, run := traceRun(t, tr)
		if !root.Open || queued.Open || !run.Open {
			t.Fatalf("live open marks: job %v, queued %v, run %v", root.Open, queued.Open, run.Open)
		}
		for i, sp := range run.Spans {
			if sp.Open && i != len(run.Spans)-1 {
				t.Fatalf("stage span %d (%s) of %d open in a live trace", i, sp.Name, len(run.Spans))
			}
		}
		if len(run.Spans) > 0 {
			live++
		}
	}
	if live == 0 {
		t.Error("no rendering caught the run with a stage span")
	}
}
