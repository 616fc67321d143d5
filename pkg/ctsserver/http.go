package ctsserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/pkg/cts"
)

// maxRequestBytes bounds a POST /v1/jobs body (a million-sink set is ~100
// MB of JSON; anything beyond this is rejected before decoding).
const maxRequestBytes = 256 << 20

// writeJSON renders a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders the structured error envelope; a positive RetryAfter
// also becomes the response's Retry-After header.
func writeError(w http.ResponseWriter, e *APIError) {
	status := e.HTTPStatus
	if status == 0 {
		status = http.StatusInternalServerError
	}
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(e.RetryAfter))
	}
	writeJSON(w, status, errorBody{Error: e})
}

// validationError maps a sink-set rejection onto a structured 400.
func validationError(err error) *APIError {
	var se *cts.SinkSetError
	if errors.As(err, &se) {
		e := &APIError{HTTPStatus: http.StatusBadRequest, Code: se.Code, Message: se.Error()}
		if se.Index >= 0 {
			idx := se.Index
			e.Sink = &idx
		}
		return e
	}
	return &APIError{HTTPStatus: http.StatusBadRequest, Code: ErrBadRequest, Message: err.Error()}
}

// writeNotFound answers a job route whose {id} names no job the handler
// knows (never assigned, or forgotten by retention).
func writeNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, &APIError{HTTPStatus: http.StatusNotFound, Code: ErrNotFound,
		Message: fmt.Sprintf("unknown job %q", r.PathValue("id"))})
}

// startSSE sends the headers of an event stream and returns the flusher
// the events go through; it answers 500 and reports false when the
// response writer cannot stream.
func startSSE(w http.ResponseWriter) (http.Flusher, bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &APIError{HTTPStatus: http.StatusInternalServerError,
			Code: ErrBadRequest, Message: "response writer does not support streaming"})
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	return flusher, true
}

// writeEvent writes one SSE frame: an id, an event type and one data line
// (readSSE reads exactly this subset back).  The caller flushes.
func writeEvent(w io.Writer, id int, event string, data []byte) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
}

// handleSubmit implements POST /v1/jobs: validate, serve from the result
// cache when the canonical key hits, otherwise enqueue a run.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.sched.isDraining() {
		writeError(w, &APIError{HTTPStatus: http.StatusServiceUnavailable,
			Code: ErrDraining, Message: "server is draining, not accepting new jobs"})
		return
	}
	req, apiErr := readJobRequest(w, r)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if s.opts.MaxSinks > 0 && len(req.Sinks) > s.opts.MaxSinks {
		writeError(w, &APIError{HTTPStatus: http.StatusBadRequest, Code: ErrBadRequest,
			Message: fmt.Sprintf("%d sinks exceeds the server limit of %d", len(req.Sinks), s.opts.MaxSinks)})
		return
	}
	sinks := SinksToCTS(req.Sinks)
	// Validation runs before any synthesis work, so empty sets, duplicate
	// names and non-finite coordinates come back as structured 400s instead
	// of mid-run failures.
	if err := cts.ValidateSinks(sinks); err != nil {
		writeError(w, validationError(err))
		return
	}
	priority, err := ParsePriority(string(req.Priority))
	if err != nil {
		writeError(w, &APIError{HTTPStatus: http.StatusBadRequest, Code: ErrBadRequest, Message: err.Error()})
		return
	}
	var deadline time.Time
	if req.Deadline != "" {
		deadline, err = time.Parse(time.RFC3339, req.Deadline)
		if err != nil {
			writeError(w, &APIError{HTTPStatus: http.StatusBadRequest, Code: ErrBadRequest,
				Message: fmt.Sprintf("parsing deadline (want RFC 3339): %v", err)})
			return
		}
	}
	if req.BaseJob != "" {
		// baseJob is advisory — the subtree cache, not the base job's state,
		// provides the reuse — but a dangling id is almost always a client
		// bug (stale id, wrong server), so it is rejected rather than quietly
		// degraded to a cold run.
		if s.subtrees == nil {
			writeError(w, &APIError{HTTPStatus: http.StatusBadRequest, Code: ErrIncrementalDisabled,
				Message: "baseJob set but the server runs without a subtree cache"})
			return
		}
		if _, ok := s.lookup(req.BaseJob); !ok {
			writeError(w, &APIError{HTTPStatus: http.StatusNotFound, Code: ErrUnknownBase,
				Message: fmt.Sprintf("unknown base job %q", req.BaseJob)})
			return
		}
	}

	key, err := req.key(sinks)
	if err != nil {
		writeError(w, &APIError{HTTPStatus: http.StatusBadRequest, Code: ErrBadSetting, Message: err.Error()})
		return
	}

	j := newJob(s.newJobID(), req, key, sinks, priority, deadline)
	if data, hit := s.cache.Get(key); hit {
		// Cache hit (memory-, disk- or peer-served, a peer's value re-cached
		// locally): the job is born terminal and no synthesis runs.  The
		// hit is served even past the deadline — the result already
		// exists, so expiring it would only withhold it.
		s.register(j)
		s.sched.submitted.Add(1)
		s.finishJob(j, StateQueued, StateDone, true, data, "")
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		// The deadline passed before admission: the job is born expired and
		// never queues.  Retry-After: 0 tells the client the condition is
		// not a server limit — resubmitting with a fresh (or no) deadline
		// may proceed immediately.
		s.register(j)
		s.sched.submitted.Add(1)
		s.finishJob(j, StateQueued, StateExpired, false, nil,
			fmt.Sprintf("deadline %s already passed at submission", rfc3339(deadline)))
		w.Header().Set("Retry-After", "0")
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	// Only a job that will run gets a flow: key has already rejected every
	// setting New would, so hits and born-expired jobs need none.
	if j.flow, err = s.buildFlow(req, j); err != nil {
		writeError(w, &APIError{HTTPStatus: http.StatusBadRequest, Code: ErrBadSetting, Message: err.Error()})
		return
	}

	// The job context carries the deadline, so a run that outlives it is
	// canceled mid-flight and terminates as expired.
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline.IsZero() {
		ctx, cancel = context.WithCancel(context.Background())
	} else {
		ctx, cancel = context.WithDeadline(context.Background(), deadline)
	}
	j.ctx, j.cancel = ctx, cancel
	s.register(j)
	if err := s.sched.enqueue(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		cancel()
		var ae *APIError
		if errors.As(err, &ae) {
			writeError(w, ae)
		} else {
			writeError(w, &APIError{HTTPStatus: http.StatusInternalServerError,
				Code: ErrBadRequest, Message: err.Error()})
		}
		return
	}
	s.log.Info("job accepted",
		"job", j.id, "priority", string(j.priority), "sinks", j.sinkCount,
		"key", j.key, "baseJob", j.baseJob)
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleGet implements GET /v1/jobs/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeNotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleCancel implements DELETE /v1/jobs/{id}: queued jobs become terminal
// immediately, running jobs are canceled through their context.  Canceling
// a terminal job is a no-op; the response always carries the job's current
// status, so the call is idempotent.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeNotFound(w, r)
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents implements GET /v1/jobs/{id}/events: a Server-Sent Events
// stream of the job's observer events ("flow" events carrying
// cts.WireEvent JSON), terminated by a "done" event carrying the final
// JobStatus.  The whole history is replayed first, so late subscribers to a
// finished job still see every event, terminal one included.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeNotFound(w, r)
		return
	}
	flusher, ok := startSSE(w)
	if !ok {
		return
	}

	next := 0
	for {
		tail, terminal, changed := j.snapshotSince(next)
		for _, ev := range tail {
			writeEvent(w, ev.seq, ev.kind, ev.data)
		}
		if len(tail) > 0 {
			next += len(tail)
			flusher.Flush()
		}
		if terminal {
			// finish appends the "done" event under the same lock that sets
			// the terminal state, so the log is complete here.
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace implements GET /v1/jobs/{id}/trace: the job's span tree,
// rendered from its event log (see job.trace).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeNotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, j.trace())
}

// handleMetrics implements GET /metrics: the Prometheus text exposition of
// the server registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.obsm.reg.WritePrometheus(w)
}

// handleStats implements GET /v1/stats: the registry's numbers, plus the
// disk tiers' snapshots, which are not series.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := statsFromMetrics(s.obsm.reg.Gather())
	st.Cache.Disk = s.cache.stats().Disk
	if st.Cache.Subtrees != nil {
		st.Cache.Subtrees.Disk = s.subtrees.stats().Disk
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealth implements GET /healthz; a draining server reports 503 so
// load balancers stop routing to it.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.sched.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, Health{Status: "draining", Draining: true})
		return
	}
	writeJSON(w, http.StatusOK, Health{Status: "ok"})
}
