package ctsserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// newTestServer builds a server (analytic library, so construction is fast)
// and an httptest front-end for it.
func newTestServer(t *testing.T, o Options) (*Server, *Client) {
	t.Helper()
	if o.Tech == nil {
		o.Tech = tech.Default()
	}
	if o.Library == nil {
		o.Library = charlib.NewAnalytic(o.Tech)
	}
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

// scaledRequest returns a deterministic scaled-r1 job request.
func scaledRequest(t *testing.T, maxSinks int) JobRequest {
	t.Helper()
	bm, err := bench.SyntheticScaled("r1", maxSinks)
	if err != nil {
		t.Fatal(err)
	}
	return JobRequest{Name: bm.Name, Sinks: SinksFromCTS(bm.Sinks)}
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, cl *Client, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return nil
}

// waitFor polls until the predicate holds.
func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// normalizedResult decodes result JSON and strips the wall-clock field, the
// only nondeterministic part of a Result.
func normalizedResult(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("decoding result %s: %v", data, err)
	}
	delete(m, "elapsedMs")
	return m
}

// TestEndToEnd is the acceptance flow: submit a scaled-r1 job, stream its
// SSE events in valid stage order, fetch a Result bit-identical to a direct
// cts.Flow run, and verify that an identical resubmission is a cache hit
// that performs no synthesis work.
func TestEndToEnd(t *testing.T) {
	lib := charlib.NewAnalytic(tech.Default())
	srv, cl := newTestServer(t, Options{Library: lib, Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	req := scaledRequest(t, 32)
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.CacheHit {
		t.Fatalf("first submission status: %+v", st)
	}
	if st.Key == "" {
		t.Fatal("submission status carries no canonical key")
	}

	var events []cts.WireEvent
	final, err := cl.Stream(ctx, st.ID, func(we cts.WireEvent) { events = append(events, we) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Error != "" {
		t.Fatalf("final status: %+v", final)
	}
	if len(final.Result) == 0 {
		t.Fatal("done job carries no result")
	}

	// The event stream must follow the pipeline's stage order exactly:
	// flow-start, then per level topology start/end, mergeroute start/end,
	// level-done, then buffering, timing, flow-end.
	var m map[string]any
	if err := json.Unmarshal(final.Result, &m); err != nil {
		t.Fatal(err)
	}
	levels := int(m["levels"].(float64))
	if levels < 2 {
		t.Fatalf("scaled r1 built only %d levels", levels)
	}
	expect := []cts.WireEvent{{Kind: "flow-start"}}
	for l := 1; l <= levels; l++ {
		expect = append(expect,
			cts.WireEvent{Kind: "stage-start", Stage: cts.StageTopology, Level: l},
			cts.WireEvent{Kind: "stage-end", Stage: cts.StageTopology, Level: l},
			cts.WireEvent{Kind: "stage-start", Stage: cts.StageMergeRoute, Level: l},
			cts.WireEvent{Kind: "stage-end", Stage: cts.StageMergeRoute, Level: l},
			cts.WireEvent{Kind: "level-done", Level: l},
		)
	}
	expect = append(expect,
		cts.WireEvent{Kind: "stage-start", Stage: cts.StageBuffering},
		cts.WireEvent{Kind: "stage-end", Stage: cts.StageBuffering},
		cts.WireEvent{Kind: "stage-start", Stage: cts.StageTiming},
		cts.WireEvent{Kind: "stage-end", Stage: cts.StageTiming},
		cts.WireEvent{Kind: "flow-end"},
	)
	if len(events) != len(expect) {
		t.Fatalf("got %d events, want %d", len(events), len(expect))
	}
	for i, want := range expect {
		got := events[i]
		if got.Kind != want.Kind || got.Stage != want.Stage || got.Level != want.Level {
			t.Fatalf("event %d = {kind %s stage %s level %d}, want {kind %s stage %s level %d}",
				i, got.Kind, got.Stage, got.Level, want.Kind, want.Stage, want.Level)
		}
	}
	if events[0].Sinks != len(req.Sinks) {
		t.Errorf("flow-start sinks = %d, want %d", events[0].Sinks, len(req.Sinks))
	}

	// The served result is bit-identical to a direct cts.Flow run with the
	// same technology, library and (default) settings, wall clock aside.
	flow, err := cts.New(tech.Default(), cts.WithLibrary(lib))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := flow.Run(ctx, SinksToCTS(req.Sinks))
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizedResult(t, final.Result), normalizedResult(t, directJSON); !reflect.DeepEqual(got, want) {
		t.Errorf("served result differs from direct flow run:\n got %v\nwant %v", got, want)
	}

	// An identical resubmission is a cache hit: born done, same result
	// bytes, and no synthesis work (the server-wide metrics still count a
	// single flow).
	before := srv.Metrics().Snapshot()
	st2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("resubmission status: %+v", st2)
	}
	if st2.Key != final.Key {
		t.Errorf("resubmission key %s differs from original %s", st2.Key, final.Key)
	}
	// Byte-for-byte identity of the cached result, compared through the
	// same endpoint so both pass through identical JSON rendering.
	orig, err := cl.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(st2.Result) != string(orig.Result) {
		t.Error("cached result bytes differ from the original run")
	}
	after := srv.Metrics().Snapshot()
	if before.FlowsStarted != 1 || after.FlowsStarted != 1 || after.FlowsDone != 1 {
		t.Errorf("metrics count %d started / %d done flows after a cache hit, want 1/1",
			after.FlowsStarted, after.FlowsDone)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits != 1 || stats.Scheduler.CacheHits != 1 {
		t.Errorf("stats after cache hit: cache=%+v sched=%+v", stats.Cache, stats.Scheduler)
	}

	// A different sink set misses the cache.
	st3, err := cl.Submit(ctx, scaledRequest(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHit {
		t.Error("different sink set reported a cache hit")
	}
	waitTerminal(t, cl, st3.ID)
}

// TestMemberRunsKeyedSettings pins buildFlow to JobRequest.key.  A job
// caches under CanonicalKey over the request's effective settings, so a
// setting buildFlow failed to pass on would run at its default and then be
// served for the requested key.  For every spelling, the done job's result
// must echo the effective settings, and its key must be CanonicalKey over
// them and the sinks.
func TestMemberRunsKeyedSettings(t *testing.T) {
	_, cl := newTestServer(t, Options{})
	ctx := context.Background()
	spellings := []struct {
		name     string
		settings *cts.Settings
	}{
		{"nil", nil},
		{"zero", &cts.Settings{}},
		{"slew limit", &cts.Settings{SlewLimit: 120}},
		{"slew target", &cts.Settings{SlewTarget: 70}},
		{"alpha", &cts.Settings{Alpha: 2}},
		{"beta", &cts.Settings{Beta: 10}},
		{"grid", &cts.Settings{GridSize: 30}},
		{"re-estimate", &cts.Settings{Correction: cts.CorrectionReEstimate}},
		{"full correction", &cts.Settings{Correction: cts.CorrectionFull}},
		{"bipartition", &cts.Settings{Topology: cts.TopologyBipartition}},
		{"hierarchical", &cts.Settings{Routing: cts.RoutingHierarchical}},
	}
	req := scaledRequest(t, 12)
	for _, sp := range spellings {
		var set cts.Settings
		if sp.settings != nil {
			set = *sp.settings
		}
		want, err := set.Effective()
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		req.Settings = sp.settings
		st, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		st = waitTerminal(t, cl, st.ID)
		if st.State != StateDone {
			t.Fatalf("%s: job ended %s: %s", sp.name, st.State, st.Error)
		}
		var res struct {
			Settings cts.Settings `json:"settings"`
		}
		if err := json.Unmarshal(st.Result, &res); err != nil {
			t.Fatalf("%s: decoding result: %v", sp.name, err)
		}
		if res.Settings != want {
			t.Errorf("%s: ran with %+v, keyed on %+v", sp.name, res.Settings, want)
		}
		if key := cts.CanonicalKey(want, SinksToCTS(req.Sinks)); st.Key != key {
			t.Errorf("%s: key %s, want CanonicalKey of the effective settings %s", sp.name, st.Key, key)
		}
	}
}

// TestValidationErrors pins the structured 400s of the API boundary.
func TestValidationErrors(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 4, MaxSinks: 100})
	ctx := context.Background()

	sink := func(name string, x, y float64) Sink { return Sink{Name: name, X: x, Y: y} }
	cases := []struct {
		name    string
		req     JobRequest
		status  int
		code    string
		sinkIdx int // -1: no sink index expected
	}{
		{"empty", JobRequest{}, 400, cts.SinkErrEmpty, -1},
		{"duplicate", JobRequest{Sinks: []Sink{sink("a", 0, 0), sink("a", 5, 5)}}, 400, cts.SinkErrDuplicateName, 1},
		{"generated-collision", JobRequest{Sinks: []Sink{sink("sink_1", 0, 0), sink("", 5, 5)}}, 400, cts.SinkErrGeneratedCollision, 1},
		{"bad-settings", JobRequest{Sinks: []Sink{sink("a", 0, 0), sink("b", 5, 5)},
			Settings: &cts.Settings{SlewLimit: 100, SlewTarget: 200}}, 400, ErrBadSetting, -1},
		{"too-many-sinks", JobRequest{Sinks: make([]Sink, 101)}, 400, ErrBadRequest, -1},
	}
	for _, tc := range cases {
		_, err := cl.Submit(ctx, tc.req)
		ae, ok := err.(*APIError)
		if !ok {
			t.Errorf("%s: error %v (%T) is not an *APIError", tc.name, err, err)
			continue
		}
		if ae.HTTPStatus != tc.status || ae.Code != tc.code {
			t.Errorf("%s: got HTTP %d code %s, want %d %s", tc.name, ae.HTTPStatus, ae.Code, tc.status, tc.code)
		}
		if tc.sinkIdx >= 0 {
			if ae.Sink == nil || *ae.Sink != tc.sinkIdx {
				t.Errorf("%s: sink index %v, want %d", tc.name, ae.Sink, tc.sinkIdx)
			}
		}
	}

	if _, err := cl.Job(ctx, "nope"); err == nil {
		t.Error("unknown job id: want 404")
	} else if ae, ok := err.(*APIError); !ok || ae.HTTPStatus != 404 || ae.Code != ErrNotFound {
		t.Errorf("unknown job id: %v", err)
	}
	if _, err := cl.Stream(ctx, "nope", nil); err == nil {
		t.Error("unknown job events: want 404")
	}

	// JSON cannot even carry non-finite numbers, so an out-of-range
	// coordinate surfaces as a structured decode 400, not a mid-run
	// failure.  (The SinkErrNonFinite path guards direct Go API callers and
	// is pinned by pkg/cts's TestValidateSinks.)  The body is exactly one
	// object: bytes after it, a second object included, are a 400 too.
	valid := `{"sinks":[{"name":"a","x":1,"y":0},{"name":"b","x":2,"y":0}]}`
	for _, body := range []string{
		`{"sinks":[{"name":"a","x":1e999,"y":0}]}`,
		`{"sinks": not json`,
		valid + ` trailing garbage`,
		valid + `{"sinks":[]}`,
	} {
		resp, err := http.Post(cl.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("body %q: HTTP %d, want 400", body, resp.StatusCode)
		}
		if e := decodeAPIError(resp.StatusCode, data); e.Code != ErrBadRequest {
			t.Errorf("body %q: error %v, want code bad-request", body, e)
		}
	}
}

// TestInfeasibleSettingsRefused pins two settings no tree should be built
// from as 400 bad-settings at submit, on a member and on a gateway in front
// of it: a grid resolution above cts.Settings.Effective's bound of 240
// (refused by the gateway's own key), and a slew limit below the
// technology's 50 ps source slew (refused by the member's cts.New, whose
// 400 the gateway relays).  The member's run hook keeps a wrongly accepted
// job from ever sizing its grid: at R = 10,000 a 4 x 3 mm pair would take
// gigabytes of expansion state per side.  Refused submits must leave the
// gateway's job table empty.
func TestInfeasibleSettingsRefused(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	srv.runHook = func(ctx context.Context, j *job) (*cts.Result, error) {
		return nil, errors.New("run hook: infeasible settings were accepted")
	}
	g, err := NewGateway(GatewayOptions{Members: []string{cl.BaseURL}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g)
	defer gw.Close()

	sinks := `"sinks":[{"name":"a","x":0,"y":0},{"name":"b","x":4000,"y":3000}]`
	for _, settings := range []string{`{"gridSize":10000}`, `{"slewLimit":45}`} {
		for _, base := range []string{cl.BaseURL, gw.URL} {
			body := `{` + sinks + `,"settings":` + settings + `}`
			resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if e := decodeAPIError(resp.StatusCode, data); resp.StatusCode != 400 || e.Code != ErrBadSetting {
				t.Errorf("%s via %s: HTTP %d %s, want 400 %s", settings, base, resp.StatusCode, data, ErrBadSetting)
			}
		}
	}

	// A submit every member refuses takes no slot in the gateway's
	// retention table: its id never reaches a client.
	for i := 0; i < 3; i++ {
		body := `{` + sinks + `,"settings":{"slewLimit":45}}`
		resp, err := http.Post(gw.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("slewLimit 45 via the gateway: HTTP %d, want 400", resp.StatusCode)
		}
	}
	g.mu.Lock()
	jobs, order := len(g.jobs), len(g.order)
	g.mu.Unlock()
	if jobs != 0 || order != 0 {
		t.Errorf("gateway retains %d jobs and %d ids after refused submits, want none", jobs, order)
	}
}

// blockingHook returns a run hook that parks every run until release is
// closed (or the job is canceled) and records how many runs it served.
func blockingHook(release <-chan struct{}) (func(context.Context, *job) (*cts.Result, error), *sync.WaitGroup) {
	var started sync.WaitGroup
	return func(ctx context.Context, j *job) (*cts.Result, error) {
		started.Done()
		select {
		case <-release:
			return &cts.Result{Levels: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, &started
}

// TestQueueFullRejects pins the 429 on a saturated queue and that canceling
// the running job frees the worker slot for the queued one.
func TestQueueFullAndCancelFreesSlot(t *testing.T) {
	release := make(chan struct{})
	hook, started := blockingHook(release)
	srv, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	srv.runHook = hook
	ctx := context.Background()

	started.Add(1)
	a, err := cl.Submit(ctx, scaledRequest(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	started.Wait() // the worker is now parked inside job A

	b, err := cl.Submit(ctx, scaledRequest(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	// A occupies the worker and B the single queue slot: the next
	// submission must bounce with 429 queue-full.
	_, err = cl.Submit(ctx, scaledRequest(t, 6))
	ae, ok := err.(*APIError)
	if !ok || ae.HTTPStatus != 429 || ae.Code != ErrQueueFull {
		t.Fatalf("saturated queue: got %v, want 429 queue-full", err)
	}

	// Canceling the running job frees the slot; the queued job must run.
	started.Add(1)
	if _, err := cl.Cancel(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, cl, a.ID); st.State != StateCanceled {
		t.Fatalf("canceled running job state = %s", st.State)
	}
	started.Wait() // B reached the worker
	close(release)
	if st := waitTerminal(t, cl, b.ID); st.State != StateDone {
		t.Fatalf("queued job after cancel: state = %s, error = %s", st.State, st.Error)
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scheduler.Rejected != 1 || stats.Scheduler.Canceled != 1 || stats.Scheduler.Completed != 1 {
		t.Errorf("scheduler stats: %+v", stats.Scheduler)
	}
}

// TestCancelQueuedJob pins that a queued job canceled before it starts goes
// terminal immediately, releases its queue slot for new submissions, and is
// skipped by the workers.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	hook, started := blockingHook(release)
	srv, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	srv.runHook = hook
	ctx := context.Background()

	started.Add(1)
	if _, err := cl.Submit(ctx, scaledRequest(t, 4)); err != nil {
		t.Fatal(err)
	}
	started.Wait()

	// B fills the single queue slot.
	b, err := cl.Submit(ctx, scaledRequest(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Cancel(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("canceled queued job state = %s, want canceled immediately", st.State)
	}
	// Canceling again is idempotent.
	if st, err = cl.Cancel(ctx, b.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("second cancel: %v, %+v", err, st)
	}
	// The cancellation released B's slot: a new submission is admitted even
	// though B's dead entry is still in the FIFO.
	started.Add(1)
	c, err := cl.Submit(ctx, scaledRequest(t, 6))
	if err != nil {
		t.Fatalf("submission after queued-cancel rejected: %v", err)
	}
	// Unpark the runs: A completes, the worker skips B's dead entry and
	// picks up C.
	close(release)
	if st := waitTerminal(t, cl, c.ID); st.State != StateDone {
		t.Fatalf("job admitted after queued-cancel ended %s", st.State)
	}
}

// TestDrain pins graceful drain: intake stops with 503, in-flight and queued
// jobs complete, and Drain returns once the pool is idle.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	hook, started := blockingHook(release)
	srv, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	srv.runHook = hook
	ctx := context.Background()

	started.Add(1)
	a, err := cl.Submit(ctx, scaledRequest(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	started.Wait()
	b, err := cl.Submit(ctx, scaledRequest(t, 5))
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitFor(t, "drain to stop intake", srv.sched.isDraining)

	if _, err := cl.Submit(ctx, scaledRequest(t, 6)); err == nil {
		t.Error("submission during drain succeeded, want 503")
	} else if ae, ok := err.(*APIError); !ok || ae.HTTPStatus != 503 || ae.Code != ErrDraining {
		t.Errorf("submission during drain: %v", err)
	}
	hz, err := http.Get(cl.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain answered %d, want 503", hz.StatusCode)
	}

	// Releasing the runs lets the drain complete, with both accepted jobs
	// (in-flight A and queued B) done.
	started.Add(1)
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := waitTerminal(t, cl, a.ID); st.State != StateDone {
		t.Errorf("in-flight job after drain: %s", st.State)
	}
	if st := waitTerminal(t, cl, b.ID); st.State != StateDone {
		t.Errorf("queued job after drain: %s", st.State)
	}
}

// TestDrainTimeoutCancels pins the drain's deadline path (ctsd
// -drain-timeout): when the context expires first, Drain cancels the
// running and the queued job, returns the context error once they unwind,
// and the server stays draining.
func TestDrainTimeoutCancels(t *testing.T) {
	hook, started := blockingHook(make(chan struct{})) // never released
	srv, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	srv.runHook = hook
	ctx := context.Background()

	started.Add(1)
	a, err := cl.Submit(ctx, scaledRequest(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	started.Wait()
	b, err := cl.Submit(ctx, scaledRequest(t, 5))
	if err != nil {
		t.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past its deadline returned %v, want context.DeadlineExceeded", err)
	}
	if st := waitTerminal(t, cl, a.ID); st.State != StateCanceled {
		t.Errorf("running job after the drain timeout: %s (%s)", st.State, st.Error)
	}
	if st := waitTerminal(t, cl, b.ID); st.State != StateCanceled || st.Error != "canceled before start" {
		t.Errorf("queued job after the drain timeout: %s (%q)", st.State, st.Error)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scheduler.Canceled != 2 || !stats.Scheduler.Draining {
		t.Errorf("stats after the drain timeout: canceled %d, draining %v; want 2, true",
			stats.Scheduler.Canceled, stats.Scheduler.Draining)
	}
}

// TestSSEReplaysToLateSubscribers pins that subscribing after the job
// finished still yields the full event history and the terminal event.
func TestSSEReplaysToLateSubscribers(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	st, err := cl.Submit(ctx, scaledRequest(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, cl, st.ID)

	var events []cts.WireEvent
	final, err := cl.Stream(ctx, st.ID, func(we cts.WireEvent) { events = append(events, we) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("late-subscriber final state = %s", final.State)
	}
	if len(events) == 0 {
		t.Fatal("late subscriber got no replayed events")
	}
	if events[0].Kind != "flow-start" || events[len(events)-1].Kind != "flow-end" {
		t.Errorf("replayed stream spans %s..%s, want flow-start..flow-end",
			events[0].Kind, events[len(events)-1].Kind)
	}

	// A second late subscription replays identically.
	var again []cts.WireEvent
	if _, err := cl.Stream(ctx, st.ID, func(we cts.WireEvent) { again = append(again, we) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, again) {
		t.Error("two late subscriptions replayed different histories")
	}
}

// TestConcurrentTraffic exercises concurrent submitters, subscribers and
// cancellations; run with -race.
func TestConcurrentTraffic(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 4, QueueDepth: 64})
	ctx := context.Background()

	const submitters = 6
	const perSubmitter = 4
	var wg sync.WaitGroup
	errs := make(chan error, submitters*perSubmitter*2)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				// Sizes repeat across goroutines, so identical requests race
				// between synthesis and the cache.
				req := scaledRequest(t, 4+(g+i)%3)
				st, err := cl.Submit(ctx, req)
				if err != nil {
					errs <- fmt.Errorf("submit: %w", err)
					return
				}
				switch (g + i) % 3 {
				case 0:
					if _, err := cl.Stream(ctx, st.ID, nil); err != nil {
						errs <- fmt.Errorf("stream %s: %w", st.ID, err)
					}
				case 1:
					if _, err := cl.Cancel(ctx, st.ID); err != nil {
						errs <- fmt.Errorf("cancel %s: %w", st.ID, err)
					}
				default:
					waitTerminal(t, cl, st.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := stats.Scheduler.Completed + stats.Scheduler.Failed + stats.Scheduler.Canceled
	if stats.Scheduler.Failed != 0 {
		t.Errorf("concurrent traffic produced failures: %+v", stats.Scheduler)
	}
	if total != stats.Scheduler.Submitted {
		// Cancel is fire-and-forget above, so every submitted job must
		// still account for exactly one terminal state once drained.
		waitFor(t, "all jobs terminal", func() bool {
			s, err := cl.Stats(ctx)
			if err != nil {
				return false
			}
			return s.Scheduler.Completed+s.Scheduler.Failed+s.Scheduler.Canceled == s.Scheduler.Submitted
		})
	}
}
