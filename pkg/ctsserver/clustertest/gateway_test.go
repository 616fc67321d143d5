package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/tech"
	"repro/pkg/cts"
	"repro/pkg/ctsserver"
)

// rawCall sends one request and returns the status, headers and body, for
// assertions on what the typed Client does not expose.
func rawCall(t *testing.T, method, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// submitRaw posts a job request through the gateway and decodes the answer:
// the status on 2xx, the APIError otherwise.
func submitRaw(t *testing.T, c *Cluster, req ctsserver.JobRequest) (int, http.Header, *ctsserver.JobStatus, *ctsserver.APIError) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, hdr, data := rawCall(t, http.MethodPost, c.GatewayURL+"/v1/jobs", body)
	if code/100 != 2 {
		return code, hdr, nil, decodeError(t, data)
	}
	var st ctsserver.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding status %s: %v", data, err)
	}
	return code, hdr, &st, nil
}

// decodeError decodes a structured error envelope.
func decodeError(t *testing.T, data []byte) *ctsserver.APIError {
	t.Helper()
	var env struct {
		Error *ctsserver.APIError `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Error == nil {
		t.Fatalf("not an error envelope: %s (%v)", data, err)
	}
	return env.Error
}

// plainKey is the canonical key of a request's sinks under the default
// settings, computed without any server.
func plainKey(t *testing.T, req ctsserver.JobRequest) string {
	t.Helper()
	flow, err := cts.New(tech.Default())
	if err != nil {
		t.Fatal(err)
	}
	return cts.CanonicalKey(flow.Settings(), ctsserver.SinksToCTS(req.Sinks))
}

// moved returns a copy of the request with sink i shifted by (dx, dy).
func moved(req ctsserver.JobRequest, i int, dx, dy float64) ctsserver.JobRequest {
	out := req
	out.Sinks = append([]ctsserver.Sink(nil), req.Sinks...)
	out.Sinks[i].X += dx
	out.Sinks[i].Y += dy
	return out
}

// decodeResult decodes a status's Result JSON.
func decodeResult(t *testing.T, st *ctsserver.JobStatus) *cts.Result {
	t.Helper()
	var res cts.Result
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	return &res
}

// TestGatewayCancelLiveMember cancels a running job through the gateway: the
// member performs the cancel and the answer carries the gateway id.
func TestGatewayCancelLiveMember(t *testing.T) {
	c := New(t, Options{})
	ctx := context.Background()

	st, err := c.Client.Submit(ctx, scaledRequest(t, 600))
	if err != nil {
		t.Fatal(err)
	}
	owner := c.MemberAt(c.Gateway.MemberFor(st.Key))
	got, err := c.Client.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID || got.Key != st.Key {
		t.Fatalf("cancel answer %s/%s, want gateway id %s and key %s", got.ID, got.Key, st.ID, st.Key)
	}
	final := waitTerminal(t, c.Client, st.ID)
	if final.State != ctsserver.StateCanceled || final.ID != st.ID {
		t.Fatalf("after cancel: %+v", final)
	}
	stats, err := owner.Client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scheduler.Canceled != 1 {
		t.Fatalf("owner canceled %d jobs, want 1 (the cancel must reach the member)", stats.Scheduler.Canceled)
	}
}

// TestGatewayCancelDeadMember cancels a job whose member died: the gateway
// answers canceled itself, and the job is never redispatched.
func TestGatewayCancelDeadMember(t *testing.T) {
	c := New(t, Options{})
	ctx := context.Background()

	st, err := c.Client.Submit(ctx, scaledRequest(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	c.Kill(c.MemberAt(c.Gateway.MemberFor(st.Key)))

	got, err := c.Client.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != ctsserver.StateCanceled || got.ID != st.ID || got.Key != st.Key {
		t.Fatalf("cancel on a dead member: %+v, want canceled with id %s and key %s", got, st.ID, st.Key)
	}
	for i := 0; i < 3; i++ {
		again, err := c.Client.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if again.State != ctsserver.StateCanceled {
			t.Fatalf("canceled job came back as %s", again.State)
		}
	}
	final, err := c.Client.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != ctsserver.StateCanceled || final.ID != st.ID {
		t.Fatalf("stream of a canceled job ended with %+v", final)
	}
	for _, m := range c.Alive() {
		stats, err := m.Client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Scheduler.Submitted != 0 {
			t.Fatalf("member %s was handed %d jobs after the cancel", m.URL, stats.Scheduler.Submitted)
		}
	}
}

// TestGatewayTrace fetches a job's trace through the gateway (the id is the
// gateway's), then kills the member that holds the spans: 503.
func TestGatewayTrace(t *testing.T) {
	c := New(t, Options{})
	ctx := context.Background()

	st, err := c.Client.Submit(ctx, scaledRequest(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, c.Client, st.ID)

	code, hdr, data := rawCall(t, http.MethodGet, c.GatewayURL+"/v1/jobs/"+st.ID+"/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("trace answered %d: %s", code, data)
	}
	var tr ctsserver.JobTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != st.ID || tr.State != ctsserver.StateDone || len(tr.Spans) == 0 {
		t.Fatalf("trace %+v, want id %s, state done and spans", tr, st.ID)
	}
	member := hdr.Get(ctsserver.HeaderMember)
	if member != c.Gateway.MemberFor(st.Key) {
		t.Fatalf("trace served by %q, want the job's member %q", member, c.Gateway.MemberFor(st.Key))
	}

	c.Kill(c.MemberAt(member))
	code, _, data = rawCall(t, http.MethodGet, c.GatewayURL+"/v1/jobs/"+st.ID+"/trace", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("trace on a dead member answered %d: %s", code, data)
	}
	if e := decodeError(t, data); e.Code != ctsserver.ErrMemberUnreachable {
		t.Fatalf("trace on a dead member: code %q", e.Code)
	}
}

// TestGatewayCachedDoneAfterMemberDies streams a finished job after its
// member died: the gateway's cached terminal status is the whole stream.
func TestGatewayCachedDoneAfterMemberDies(t *testing.T) {
	c := New(t, Options{})
	ctx := context.Background()

	st, err := c.Client.Submit(ctx, scaledRequest(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, c.Client, st.ID)
	c.Kill(c.MemberAt(c.Gateway.MemberFor(st.Key)))

	flows := 0
	final, err := c.Client.Stream(ctx, st.ID, func(cts.WireEvent) { flows++ })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != ctsserver.StateDone || final.ID != st.ID {
		t.Fatalf("cached done event: %+v", final)
	}
	if flows != 0 {
		t.Fatalf("%d flow events replayed from a dead member", flows)
	}
	if !reflect.DeepEqual(normalizedResult(t, final.Result), normalizedResult(t, done.Result)) {
		t.Fatal("cached done event carries a different result")
	}
}

// TestGatewayUnknownJob pins 404 not-found on every job route.
func TestGatewayUnknownJob(t *testing.T) {
	c := New(t, Options{})
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/gwjob-none-1"},
		{http.MethodDelete, "/v1/jobs/gwjob-none-1"},
		{http.MethodGet, "/v1/jobs/gwjob-none-1/events"},
		{http.MethodGet, "/v1/jobs/gwjob-none-1/trace"},
	} {
		code, _, data := rawCall(t, r.method, c.GatewayURL+r.path, nil)
		if code != http.StatusNotFound {
			t.Fatalf("%s %s answered %d: %s", r.method, r.path, code, data)
		}
		if e := decodeError(t, data); e.Code != ctsserver.ErrNotFound {
			t.Fatalf("%s %s: code %q", r.method, r.path, e.Code)
		}
	}
}

// TestGatewayRejectsBeforeDispatch pins the requests the gateway turns away
// itself.  Every member is dead, so any answer other than 503
// member-unreachable can only have come from the gateway.
func TestGatewayRejectsBeforeDispatch(t *testing.T) {
	c := New(t, Options{})
	for _, m := range c.Members {
		c.Kill(m)
	}
	good := scaledRequest(t, 8)
	enc := func(req ctsserver.JobRequest) []byte {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	badSettings := good
	badSettings.Settings = &cts.Settings{SlewLimit: 50, SlewTarget: 90}
	dup := good
	dup.Sinks = append(append([]ctsserver.Sink(nil), good.Sinks...), good.Sinks[2])
	unknownBase := good
	unknownBase.BaseJob = "gwjob-none-1"

	for _, tc := range []struct {
		name string
		body []byte
		code int
		err  string
		sink int
	}{
		{"bad settings", enc(badSettings), http.StatusBadRequest, ctsserver.ErrBadSetting, -1},
		{"duplicate sink", enc(dup), http.StatusBadRequest, cts.SinkErrDuplicateName, len(good.Sinks)},
		{"undecodable body", []byte(`{"sinks": [`), http.StatusBadRequest, ctsserver.ErrBadRequest, -1},
		{"trailing garbage", append(enc(good), " trailing garbage"...), http.StatusBadRequest, ctsserver.ErrBadRequest, -1},
		{"two objects", append(enc(good), `{"sinks":[]}`...), http.StatusBadRequest, ctsserver.ErrBadRequest, -1},
		{"unknown base", enc(unknownBase), http.StatusNotFound, ctsserver.ErrUnknownBase, -1},
	} {
		code, _, data := rawCall(t, http.MethodPost, c.GatewayURL+"/v1/jobs", tc.body)
		if code != tc.code {
			t.Fatalf("%s: answered %d, want %d: %s", tc.name, code, tc.code, data)
		}
		e := decodeError(t, data)
		if e.Code != tc.err {
			t.Fatalf("%s: code %q, want %q", tc.name, e.Code, tc.err)
		}
		if tc.sink >= 0 && (e.Sink == nil || *e.Sink != tc.sink) {
			t.Fatalf("%s: sink index %v, want %d", tc.name, e.Sink, tc.sink)
		}
	}
}

// TestGatewayMemberRejectionPassesThrough pins that a member's 400 reaches
// the client unchanged and counts as no submission.
func TestGatewayMemberRejectionPassesThrough(t *testing.T) {
	c := New(t, Options{})
	req := scaledRequest(t, 8)
	req.Priority = "urgent"
	code, _, _, e := submitRaw(t, c, req)
	if code != http.StatusBadRequest || e.Code != ctsserver.ErrBadRequest {
		t.Fatalf("unknown priority: %d %+v, want the member's 400 bad-request", code, e)
	}
	if cs := clusterStats(t, c.GatewayURL); cs.Gateway.Submitted != 0 {
		t.Fatalf("gateway counted %d submissions for a rejected request", cs.Gateway.Submitted)
	}
}

// TestGatewayBaseJobAffinity sends an incremental request to the member that
// ran its base, where the subtree cache is warm; with that member dead the
// delta runs as a plain ring-routed request.
func TestGatewayBaseJobAffinity(t *testing.T) {
	c := New(t, Options{})
	ctx := context.Background()

	base := scaledRequest(t, 48)
	st, err := c.Client.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, c.Client, st.ID)
	baseMember := c.Gateway.MemberFor(st.Key)

	delta := moved(base, 7, 40, 0)
	delta.BaseJob = st.ID
	_, hdr, dst, e := submitRaw(t, c, delta)
	if e != nil {
		t.Fatalf("delta rejected: %+v", e)
	}
	if got := hdr.Get(ctsserver.HeaderMember); got != baseMember {
		t.Fatalf("delta served by %q, want the base's member %q", got, baseMember)
	}
	if dst.BaseJob != st.ID {
		t.Fatalf("delta echoes base %q, want the gateway id %q", dst.BaseJob, st.ID)
	}
	final := waitTerminal(t, c.Client, dst.ID)
	if final.State != ctsserver.StateDone {
		t.Fatalf("delta: %+v", final)
	}
	if inc := decodeResult(t, final).Incremental; inc == nil || inc.ReusedSubtrees == 0 {
		t.Fatalf("delta reused no sub-trees: %+v", inc)
	}

	c.Kill(c.MemberAt(baseMember))
	cold := moved(base, 9, 0, 40)
	cold.BaseJob = st.ID
	_, _, cst, e := submitRaw(t, c, cold)
	if e != nil {
		t.Fatalf("delta after the base's member died: %+v", e)
	}
	final = waitTerminal(t, c.Client, cst.ID)
	if final.State != ctsserver.StateDone || final.BaseJob != st.ID {
		t.Fatalf("plain fallback: %+v", final)
	}
	if want := plainKey(t, cold); final.Key != want {
		t.Fatalf("plain fallback key %s, want the plain request's %s", final.Key, want)
	}
	if decodeResult(t, final).Incremental != nil {
		t.Fatal("plain fallback ran incrementally")
	}
}

// TestGatewayHealth pins /healthz while members live and die, and the
// submit answer of a cluster with no member left.
func TestGatewayHealth(t *testing.T) {
	c := New(t, Options{})
	if code, _, data := rawCall(t, http.MethodGet, c.GatewayURL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthy cluster: /healthz answered %d: %s", code, data)
	}
	for _, m := range c.Members {
		c.Kill(m)
	}
	waitFor(t, "/healthz 503", func() bool {
		code, _, _ := rawCall(t, http.MethodGet, c.GatewayURL+"/healthz", nil)
		return code == http.StatusServiceUnavailable
	})
	code, hdr, _, e := submitRaw(t, c, scaledRequest(t, 8))
	if code != http.StatusServiceUnavailable || e.Code != ctsserver.ErrMemberUnreachable {
		t.Fatalf("submit with every member dead: %d %+v", code, e)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("member-unreachable answer carries no Retry-After")
	}
}

// TestGatewayKeyAgreement pins that the gateway routes on the key the member
// computes: for every settings spelling, the member that answered is the
// ring owner of the key it reported.
func TestGatewayKeyAgreement(t *testing.T) {
	c := New(t, Options{})
	spellings := []struct {
		name     string
		settings *cts.Settings
		verify   bool
	}{
		{"nil", nil, false},
		{"zero", &cts.Settings{}, false},
		{"explicit defaults", &cts.Settings{SlewLimit: 100, SlewTarget: 80, Alpha: 1, Beta: 20, GridSize: 45}, false},
		{"limit only", &cts.Settings{SlewLimit: 140}, false},
		{"alpha only", &cts.Settings{Alpha: 2}, false},
		{"hierarchical", &cts.Settings{Routing: cts.RoutingHierarchical}, false},
		{"bipartition", &cts.Settings{Topology: cts.TopologyBipartition}, false},
		{"re-estimate", &cts.Settings{Correction: cts.CorrectionReEstimate}, false},
		{"verify", nil, true},
	}
	var ids []string
	for _, design := range []string{"r1", "r2", "r3"} {
		bm, err := bench.SyntheticScaled(design, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range spellings {
			req := ctsserver.JobRequest{Name: bm.Name, Sinks: ctsserver.SinksFromCTS(bm.Sinks),
				Settings: sp.settings, Verify: sp.verify}
			_, hdr, st, e := submitRaw(t, c, req)
			if e != nil {
				t.Fatalf("%s/%s: %+v", design, sp.name, e)
			}
			if got, want := hdr.Get(ctsserver.HeaderMember), c.Gateway.MemberFor(st.Key); got != want {
				t.Fatalf("%s/%s: served by %s, but the member's key belongs to %s", design, sp.name, got, want)
			}
			ids = append(ids, st.ID)
		}
	}
	for _, id := range ids {
		waitTerminal(t, c.Client, id)
	}
}

// TestGatewayAffinityMemberForgotBase covers a base whose member is alive
// but has dropped the base from its retention: the member answers 404
// unknown-base-job, and the delta must run as a plain ring-routed request
// instead of failing with an error that names the member's own job id.
func TestGatewayAffinityMemberForgotBase(t *testing.T) {
	c := New(t, Options{Server: func(_ int, o *ctsserver.Options) { o.JobRetention = 1 }})
	ctx := context.Background()

	base := scaledRequest(t, 32)
	st, err := c.Client.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, c.Client, st.ID)
	// One more finished job on the base's member pushes the base out.
	owner := c.MemberAt(c.Gateway.MemberFor(st.Key))
	other, err := owner.Client.Submit(ctx, scaledRequest(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, owner.Client, other.ID)

	delta := moved(base, 3, 40, 0)
	delta.BaseJob = st.ID
	dst, err := c.Client.Submit(ctx, delta)
	if err != nil {
		t.Fatalf("delta after the base's member forgot the base: %v", err)
	}
	final := waitTerminal(t, c.Client, dst.ID)
	if final.State != ctsserver.StateDone || final.BaseJob != st.ID {
		t.Fatalf("plain fallback: %+v", final)
	}
	if want := plainKey(t, delta); final.Key != want {
		t.Fatalf("plain fallback key %s, want the plain request's %s", final.Key, want)
	}
}

// TestGatewayLivenessIsTheCooldown pins the gateway's one liveness rule.
// /healthz probes the members on every call, so it answers ok past a dead
// member at once, and the /metrics scrape that follows reports the dead
// member down (the scrape's own failed exchange starts its cooldown) and
// the others up.  With every member dead, the first /healthz answers 503.
func TestGatewayLivenessIsTheCooldown(t *testing.T) {
	c := New(t, Options{})
	dead := c.Members[1]
	c.Kill(dead)
	if code, _, data := rawCall(t, http.MethodGet, c.GatewayURL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("one member dead: /healthz answered %d: %s", code, data)
	}
	m := scrapeGateway(t, c)
	for _, mem := range c.Members {
		want := 1.0
		if mem == dead {
			want = 0
		}
		if v, ok := m.Value("ctsd_gateway_member_up", map[string]string{"member": mem.URL}); !ok || v != want {
			t.Errorf("ctsd_gateway_member_up for %s = %v (present %v), want %v", mem.URL, v, ok, want)
		}
	}

	for _, mem := range c.Alive() {
		c.Kill(mem)
	}
	code, _, data := rawCall(t, http.MethodGet, c.GatewayURL+"/healthz", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("every member dead: the first /healthz answered %d: %s", code, data)
	}
	var h ctsserver.Health
	if err := json.Unmarshal(data, &h); err != nil || h.Status != "no healthy members" || h.Draining {
		t.Fatalf("every member dead: /healthz body %s (%v)", data, err)
	}
}
