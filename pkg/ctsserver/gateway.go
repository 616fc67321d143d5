package ctsserver

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/pkg/cts"
)

// HeaderMember is the response header naming the member base URL that
// served a request the gateway forwarded.
const HeaderMember = "X-Ctsd-Member"

// gatewayTimeout bounds one forwarded non-streaming request.  Members
// answer submissions asynchronously (202 + job id), so every forwarded call
// is queue bookkeeping, not synthesis; anything slower is effectively down.
// Event streams are never subject to it.
const gatewayTimeout = 15 * time.Second

// gatewayJobRetention bounds how many jobs the gateway remembers; the oldest
// are forgotten beyond it, as a member forgets its own (Options.JobRetention
// defaults to the same count).
const gatewayJobRetention = 4096

// gatewayEventAttempts bounds how many member streams one client SSE
// subscription will chain through: the initial stream plus a reconnect per
// failover.  A job reroutes at most once per member, so the member count
// (plus slack) is the natural bound; beyond it the stream ends and the
// client falls back to polling GET.
const gatewayEventAttempts = 8

// GatewayOptions configures a Gateway.  The gateway needs no technology or
// library: it keys each request with the same function members cache on, and
// CanonicalKey covers neither.
type GatewayOptions struct {
	// Members are the ctsd base URLs the gateway routes over; required,
	// order-insensitive (the ring sorts them).
	Members []string
	// Logger receives structured routing logs; nil discards them.
	Logger *slog.Logger
}

// Gateway is the cluster's entry point: an http.Handler exposing the same
// job API as Server, consistent-hashing each request's canonical key over
// the member ring and forwarding.  It holds no synthesis state of its own —
// jobs run on members — but it remembers which member each job went to, so
// GET/DELETE/events address the right node, and it caches terminal statuses
// so a finished job survives its member's death.  Liveness is the cluster's
// one cooldown rule, fed by the gateway's own exchanges; it runs no
// goroutine.  See doc.go ("Cluster mode") for the wire contract.
type Gateway struct {
	ring   *ring
	client *http.Client // forwarded requests (bounded by gatewayTimeout)
	stream *http.Client // SSE proxying (no timeout), on client's transport
	down   cooldown     // members that failed an exchange or answered 503
	mux    *http.ServeMux
	log    *slog.Logger
	start  time.Time
	reg    *obs.Registry

	submitted atomic.Int64
	rerouted  atomic.Int64

	mu    sync.Mutex
	jobs  map[string]*gwJob // guarded by mu
	order []string          // gateway job ids, oldest first // guarded by mu

	idPrefix string
	idCtr    atomic.Uint64
}

// gwJob is the gateway's record of one forwarded job: where it lives, how to
// resubmit it, and — once terminal — its frozen status.
type gwJob struct {
	id     string
	key    string
	baseID string // gateway-side base job id of an incremental request
	body   []byte // member-bound request JSON, baseJob stripped (redispatch-safe)

	mu       sync.Mutex
	member   string     // current member base URL // guarded by mu
	memberID string     // the member's own job id // guarded by mu
	terminal *JobStatus // frozen terminal status, gateway ids // guarded by mu
}

// placement snapshots where the job currently runs.
func (j *gwJob) placement() (member, memberID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.member, j.memberID
}

// terminalStatus returns the frozen terminal status, if any.
func (j *gwJob) terminalStatus() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminal
}

// adopt takes a member's status of the job into the gateway: a non-empty
// member records that the job now runs there under the status's id, the
// status is translated into the gateway namespace, and a terminal status is
// frozen exactly once (first writer wins, so a status learned over GET and
// one learned over the event stream agree).
func (j *gwJob) adopt(member string, st *JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if member != "" {
		j.member, j.memberID = member, st.ID
	}
	st.ID, st.BaseJob = j.id, j.baseID
	if j.terminal == nil && st.State.Terminal() {
		j.terminal = st
	}
}

// NewGateway assembles a Gateway over the member set.  Close releases its
// idle member connections.
func NewGateway(o GatewayOptions) (*Gateway, error) {
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	r := newRing(cleanURLs(o.Members))
	if len(r.members) == 0 {
		return nil, fmt.Errorf("ctsserver: gateway needs at least one member")
	}
	var prefix [4]byte
	if _, err := rand.Read(prefix[:]); err != nil {
		return nil, fmt.Errorf("ctsserver: seeding gateway job ids: %w", err)
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	g := &Gateway{
		ring:     r,
		client:   &http.Client{Transport: transport, Timeout: gatewayTimeout},
		stream:   &http.Client{Transport: transport},
		log:      o.Logger,
		start:    time.Now(),
		jobs:     map[string]*gwJob{},
		idPrefix: hex.EncodeToString(prefix[:]),
	}
	g.reg = newGatewayMetrics(g)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", g.handleTrace)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	g.mux = mux
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Close releases the gateway's idle member connections.  Safe to call more
// than once.
func (g *Gateway) Close() {
	g.client.CloseIdleConnections()
}

// MemberFor returns the ring owner of a canonical key (testing and
// operational introspection; dispatch may still reroute past it).
func (g *Gateway) MemberFor(key string) string {
	return g.ring.owner(key)
}

// fanOut calls fn for every member concurrently and returns once every call
// has.
func (g *Gateway) fanOut(fn func(i int, member string)) {
	var wg sync.WaitGroup
	for i, m := range g.ring.members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, m)
		}()
	}
	wg.Wait()
}

// register remembers a job, forgetting the oldest beyond retention.
func (g *Gateway) register(j *gwJob) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.jobs[j.id] = j
	g.order = append(g.order, j.id)
	for len(g.order) > gatewayJobRetention {
		old := g.order[0]
		g.order = g.order[1:]
		delete(g.jobs, old)
	}
}

// job resolves the {id} of a job route, answering 404 when the gateway does
// not remember it.
func (g *Gateway) job(w http.ResponseWriter, r *http.Request) (*gwJob, bool) {
	g.mu.Lock()
	j, ok := g.jobs[r.PathValue("id")]
	g.mu.Unlock()
	if !ok {
		writeNotFound(w, r)
	}
	return j, ok
}

// call is the gateway's one exchange with a member: it sends the request
// (a body is JSON), reads the answer under maxRequestBytes and hands a 2xx
// body to decode (fromJSON for a JSON answer).  It returns the member's HTTP
// status (0 when no answer arrived) and, on failure, the error to answer
// with: a transport or read failure is a 503 member-unreachable, a non-2xx
// answer is the member's own error, and an undecodable 2xx body is a 502
// member-unreachable.  A transport failure or a 503 (a draining member)
// starts its cooldown.
func (g *Gateway) call(method, member, path string, body []byte, decode func([]byte) error) (int, *APIError) {
	req, err := http.NewRequest(method, member+path, bytes.NewReader(body))
	if err != nil {
		return 0, &APIError{HTTPStatus: http.StatusBadGateway, Code: ErrMemberUnreachable,
			Message: fmt.Sprintf("member %s: %v", member, err)}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes))
		resp.Body.Close()
	}
	if err != nil || resp.StatusCode == http.StatusServiceUnavailable {
		g.down.markDown(member)
	}
	if err != nil {
		g.log.Warn("member unreachable", "member", member, "path", path, "error", err)
		return 0, &APIError{HTTPStatus: http.StatusServiceUnavailable, Code: ErrMemberUnreachable,
			Message: fmt.Sprintf("member %s unreachable: %v", member, err), RetryAfter: retryAfterSeconds}
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, decodeAPIError(resp.StatusCode, data)
	}
	if err := decode(data); err != nil {
		return resp.StatusCode, &APIError{HTTPStatus: http.StatusBadGateway, Code: ErrMemberUnreachable,
			Message: fmt.Sprintf("member %s: undecodable answer to %s %s: %v", member, method, path, err)}
	}
	return resp.StatusCode, nil
}

// fromJSON is call's decode for a JSON answer: it unmarshals into out.
func fromJSON(out any) func([]byte) error {
	return func(data []byte) error { return json.Unmarshal(data, out) }
}

// candidates lists the key's ring replicas outside a failure cooldown, in
// dispatch order.
func (g *Gateway) candidates(key string) []string {
	out := make([]string, 0, len(g.ring.members))
	for _, m := range g.ring.replicas(key) {
		if g.down.up(m) {
			out = append(out, m)
		}
	}
	return out
}

// refused reports whether a member's answer to a submission leaves the job
// to the next replica: no answer (0), backpressure (429) or drain and
// failure (5xx).  Any other 4xx is the request's own fault, which no
// replica would fix.
func refused(code int) bool {
	return code == 0 || code == http.StatusTooManyRequests || code >= 500
}

// forwardSubmit POSTs a job body to one member.  On acceptance (200/202) the
// job is adopted there and the status comes back in the gateway namespace
// with the member's HTTP code; otherwise the member's code (0 when it could
// not be reached) and the error come back for the caller to judge.
func (g *Gateway) forwardSubmit(j *gwJob, body []byte, member string) (*JobStatus, int, *APIError) {
	var st JobStatus
	code, err := g.call(http.MethodPost, member, "/v1/jobs", body, fromJSON(&st))
	if err != nil {
		return nil, code, err
	}
	j.adopt(member, &st)
	return &st, code, nil
}

// dispatch walks the job's candidate members until one accepts, counting a
// reroute whenever the job lands anywhere but the first candidate.  It
// returns the accepted status (gateway namespace) plus the member's HTTP
// code, or the terminal APIError.
func (g *Gateway) dispatch(j *gwJob) (*JobStatus, int, *APIError) {
	cands := g.candidates(j.key)
	for i, m := range cands {
		st, code, err := g.forwardSubmit(j, j.body, m)
		if err == nil {
			if i > 0 {
				g.rerouted.Add(1)
				g.log.Info("job rerouted", "job", j.id, "key", j.key, "member", m, "attempt", i+1)
			}
			return st, code, nil
		}
		if !refused(code) {
			return nil, 0, err
		}
	}
	return nil, 0, &APIError{HTTPStatus: http.StatusServiceUnavailable, Code: ErrMemberUnreachable,
		Message:    fmt.Sprintf("no cluster member accepted the job (%d healthy candidates)", len(cands)),
		RetryAfter: retryAfterSeconds}
}

// redispatch re-submits a job whose member died (or forgot it) to the next
// live replica.  The terminal-status cache short-circuits it: a finished job
// is never re-run.  It reports whether the job is addressable again.
func (g *Gateway) redispatch(j *gwJob) bool {
	if j.terminalStatus() != nil {
		return true
	}
	st, _, err := g.dispatch(j)
	if err != nil {
		g.log.Warn("redispatch failed", "job", j.id, "key", j.key, "error", err.Message)
		return false
	}
	g.rerouted.Add(1)
	g.log.Info("job redispatched", "job", j.id, "key", j.key, "state", string(st.State))
	return true
}

// handleSubmit implements POST /v1/jobs on the gateway: validate enough to
// compute the canonical key, pick the ring owner, forward, reroute on
// refusal.  Incremental requests (baseJob) prefer the base's member — that
// is where the subtree cache is warm — with the base id rewritten into the
// member's namespace; when that member is gone, refuses or has forgotten
// the base, the baseJob field is dropped and the request ring-routes as a
// plain run (correct, just cold).
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, apiErr := readJobRequest(w, r)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	sinks := SinksToCTS(req.Sinks)
	if err := cts.ValidateSinks(sinks); err != nil {
		writeError(w, validationError(err))
		return
	}
	key, err := req.key(sinks)
	if err != nil {
		writeError(w, &APIError{HTTPStatus: http.StatusBadRequest, Code: ErrBadSetting, Message: err.Error()})
		return
	}

	j := &gwJob{id: fmt.Sprintf("gwjob-%s-%d", g.idPrefix, g.idCtr.Add(1)), key: key, baseID: req.BaseJob}
	var affinity, baseMemberID string
	if req.BaseJob != "" {
		g.mu.Lock()
		base, ok := g.jobs[req.BaseJob]
		g.mu.Unlock()
		if !ok {
			writeError(w, &APIError{HTTPStatus: http.StatusNotFound, Code: ErrUnknownBase,
				Message: fmt.Sprintf("unknown base job %q", req.BaseJob)})
			return
		}
		if member, memberID := base.placement(); member != "" && g.down.up(member) {
			affinity, baseMemberID = member, memberID
		}
		// The base id means something only on the base's member, so every
		// other dispatch, redispatch included, sends the plain request.
		req.BaseJob = ""
	}
	j.body, err = json.Marshal(req)
	var affinityBody []byte
	if err == nil && affinity != "" {
		req.BaseJob = baseMemberID
		affinityBody, err = json.Marshal(req)
	}
	if err != nil {
		writeError(w, &APIError{HTTPStatus: http.StatusInternalServerError, Code: ErrBadRequest, Message: err.Error()})
		return
	}

	var st *JobStatus
	var code int
	if affinity != "" {
		st, code, apiErr = g.forwardSubmit(j, affinityBody, affinity)
	}
	// A base's member that refused, died or has forgotten the base leaves
	// the plain request to the ring.
	if affinity == "" || (apiErr != nil && (refused(code) || apiErr.Code == ErrUnknownBase)) {
		st, code, apiErr = g.dispatch(j)
	}
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	// Only an accepted job takes a retention slot.
	g.register(j)
	g.submitted.Add(1)
	member, _ := j.placement()
	w.Header().Set(HeaderMember, member)
	g.log.Info("job forwarded", "job", j.id, "key", j.key, "member", member, "state", string(st.State))
	writeJSON(w, code, st)
}

// memberStatus fetches a job's status from its member.  A member that
// cannot be reached or has forgotten the job (404 after a restart) triggers
// a redispatch, and the status is read again from the new member.
func (g *Gateway) memberStatus(j *gwJob) (*JobStatus, *APIError) {
	for attempt := 0; ; attempt++ {
		if st := j.terminalStatus(); st != nil {
			return st, nil
		}
		member, memberID := j.placement()
		if attempt == 2 || member == "" {
			return nil, &APIError{HTTPStatus: http.StatusServiceUnavailable, Code: ErrMemberUnreachable,
				Message: fmt.Sprintf("job %s is not reachable on any member", j.id), RetryAfter: retryAfterSeconds}
		}
		var st JobStatus
		code, err := g.call(http.MethodGet, member, "/v1/jobs/"+memberID, nil, fromJSON(&st))
		switch {
		case err == nil:
			j.adopt("", &st)
			return &st, nil
		case code/100 == 2:
			return nil, err
		case !g.redispatch(j):
			return nil, &APIError{HTTPStatus: http.StatusServiceUnavailable, Code: ErrMemberUnreachable,
				Message:    fmt.Sprintf("job %s lost with member %s and no replica accepted it", j.id, member),
				RetryAfter: retryAfterSeconds}
		}
	}
}

// handleGet implements GET /v1/jobs/{id} on the gateway.
func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := g.job(w, r)
	if !ok {
		return
	}
	st, apiErr := g.memberStatus(j)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	member, _ := j.placement()
	w.Header().Set(HeaderMember, member)
	writeJSON(w, http.StatusOK, st)
}

// handleCancel implements DELETE /v1/jobs/{id} on the gateway.  When the
// job's member is unreachable the cancel is honored locally: the job is
// frozen as canceled at the gateway, so it will never be redispatched.
func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := g.job(w, r)
	if !ok {
		return
	}
	if st := j.terminalStatus(); st != nil {
		writeJSON(w, http.StatusOK, st)
		return
	}
	member, memberID := j.placement()
	var st JobStatus
	if _, err := g.call(http.MethodDelete, member, "/v1/jobs/"+memberID, nil, fromJSON(&st)); err == nil {
		j.adopt("", &st)
		w.Header().Set(HeaderMember, member)
		writeJSON(w, http.StatusOK, &st)
		return
	}
	// The member is gone (or forgot the job): honor the cancel at the
	// gateway so the job cannot come back through redispatch.
	j.adopt("", &JobStatus{State: StateCanceled, Priority: PriorityNormal, Key: j.key,
		Error: fmt.Sprintf("member %s unreachable; canceled at gateway", member)})
	writeJSON(w, http.StatusOK, j.terminalStatus())
}

// handleTrace implements GET /v1/jobs/{id}/trace on the gateway: the
// member's trace with the job id translated.  Spans live only on the member,
// so a dead member means a 503 — unlike the status, the trace has no
// gateway-side copy to fall back to.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := g.job(w, r)
	if !ok {
		return
	}
	member, memberID := j.placement()
	var tr JobTrace
	code, err := g.call(http.MethodGet, member, "/v1/jobs/"+memberID+"/trace", nil, fromJSON(&tr))
	switch {
	case err == nil:
		tr.ID = j.id
		w.Header().Set(HeaderMember, member)
		writeJSON(w, http.StatusOK, tr)
	case code == 0 || code/100 == 2:
		writeError(w, err)
	default:
		// The member answered but no longer has the job; its error would
		// name the member-side id.
		writeError(w, &APIError{HTTPStatus: http.StatusNotFound, Code: ErrNotFound,
			Message: fmt.Sprintf("no trace for job %q on member %s", j.id, member)})
	}
}

// handleEvents implements GET /v1/jobs/{id}/events on the gateway: an SSE
// proxy over the member's stream.  The member replays the job's full history
// first (its own contract), so proxying preserves late-subscriber replay.
// When the member dies mid-stream the job is redispatched and the stream
// reconnects to the new member, replaying the new run from its beginning;
// event ids are gateway-minted and strictly increasing across the splice.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := g.job(w, r)
	if !ok {
		return
	}
	flusher, ok := startSSE(w)
	if !ok {
		return
	}
	seq := 0
	emit := func(event string, data []byte) {
		writeEvent(w, seq, event, data)
		seq++
		flusher.Flush()
	}
	sendDone := func(st *JobStatus) error {
		data, err := json.Marshal(st)
		if err == nil {
			emit(EventTypeDone, data)
		}
		return err
	}
	for attempt := 0; attempt < gatewayEventAttempts && r.Context().Err() == nil; attempt++ {
		if st := j.terminalStatus(); st != nil && attempt > 0 {
			// The member died after finishing but the gateway knows the
			// terminal status: the flow history is gone with the member, the
			// outcome is not.
			sendDone(st)
			return
		}
		member, memberID := j.placement()
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
			member+"/v1/jobs/"+memberID+"/events", nil)
		if err != nil {
			return
		}
		resp, err := g.stream.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				return // the client left; the member did not fail
			}
			g.down.markDown(member)
			if !g.redispatch(j) {
				return
			}
			continue
		}
		finished := false
		if resp.StatusCode == http.StatusOK {
			err = readSSE(resp.Body, func(event string, data []byte) error {
				if event != EventTypeDone {
					emit(event, data)
					return nil
				}
				var st JobStatus
				if err := json.Unmarshal(data, &st); err != nil {
					return err
				}
				j.adopt("", &st)
				finished = true
				return sendDone(&st)
			})
		}
		resp.Body.Close()
		if finished || r.Context().Err() != nil {
			return
		}
		if resp.StatusCode == http.StatusOK {
			// The stream broke before its done event: the member died mid-job.
			g.down.markDown(member)
			g.log.Warn("member event stream broke", "member", member, "job", j.id, "error", err)
		}
		if !g.redispatch(j) {
			return
		}
	}
}

// handleHealth implements GET /healthz on the gateway: it probes every
// member's /healthz live and answers ok as soon as one member does, so a
// slow member cannot delay it, or 503 once every member has failed (dead,
// draining or unreachable).
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	ok := make(chan bool, len(g.ring.members)) // a slot per probe, so late ones never block
	for _, m := range g.ring.members {
		go func() {
			_, err := g.call(http.MethodGet, m, "/healthz", nil, fromJSON(&Health{}))
			ok <- err == nil
		}()
	}
	for range g.ring.members {
		if <-ok {
			writeJSON(w, http.StatusOK, Health{Status: "ok"})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, Health{Status: "no healthy members", Draining: false})
}

// scrape is the gateway's one scrape-and-merge, behind GET /metrics and
// GET /v1/stats: it reads every member's /metrics concurrently through call,
// strictly parsed, and sums the parsable expositions with the gateway's own
// registry.  Given members, it also polls each member's /v1/stats into it
// and sums only the members that answered both, so the merge covers exactly
// the members listed healthy.
func (g *Gateway) scrape(members []MemberStatus) (*obs.ParsedMetrics, error) {
	parts := make([]*obs.ParsedMetrics, len(g.ring.members)+1)
	g.fanOut(func(i int, m string) {
		if members != nil {
			var st Stats
			if _, err := g.call(http.MethodGet, m, "/v1/stats", nil, fromJSON(&st)); err != nil {
				members[i] = MemberStatus{URL: m, Error: err.Message}
				return
			}
			members[i] = MemberStatus{URL: m, Healthy: true, Stats: &st}
		}
		_, err := g.call(http.MethodGet, m, "/metrics", nil, func(data []byte) (err error) {
			parts[i+1], err = obs.ParseText(bytes.NewReader(data))
			return err
		})
		if err != nil && members != nil {
			members[i] = MemberStatus{URL: m, Error: err.Message}
		}
	})
	parts[0] = g.reg.Gather() // last, so member_up counts this scrape's failures
	return obs.MergeParsed(parts...)
}

// handleStats implements GET /v1/stats on the gateway.  Members are polled
// live, so a member that died a millisecond ago reports unhealthy here; the
// gateway's own numbers and the merged view are read off the same merge GET
// /metrics serves.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	members := make([]MemberStatus, len(g.ring.members))
	m, err := g.scrape(members)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	own := func(name string) float64 { v, _ := m.Value(name, nil); return v }
	cs := ClusterStats{
		Gateway: GatewayStats{
			Members:       len(members),
			Submitted:     int64(own("ctsd_gateway_jobs_submitted_total")),
			Rerouted:      int64(own("ctsd_gateway_jobs_rerouted_total")),
			Jobs:          int(own("ctsd_gateway_jobs")),
			UptimeSeconds: own("ctsd_gateway_uptime_seconds"),
		},
		Members: members,
		Merged:  statsFromMetrics(m),
	}
	// Percentiles do not sum (the merged histograms are in /metrics), and
	// the cluster is as old as its oldest member.
	cs.Merged.Latency, cs.Merged.UptimeSeconds = nil, 0
	for _, ms := range members {
		if ms.Healthy {
			cs.Gateway.Healthy++
			cs.Merged.UptimeSeconds = max(cs.Merged.UptimeSeconds, ms.Stats.UptimeSeconds)
		}
	}
	writeJSON(w, http.StatusOK, cs)
}

// handleMetrics implements GET /metrics on the gateway: the merged
// exposition, whose histograms give true cluster-wide percentiles.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m, err := g.scrape(nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_ = obs.WriteText(w, m)
}
