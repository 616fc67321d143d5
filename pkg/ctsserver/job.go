package ctsserver

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/pkg/cts"
)

// jobEvent is one entry of a job's event log, ready to be written to an SSE
// stream: a monotonically increasing sequence number (the SSE id), the SSE
// event type (EventTypeFlow or EventTypeDone) and the JSON payload.  at is
// the instant the log received the entry; it stays off the wire and places
// the stage spans of the job's trace.
type jobEvent struct {
	seq  int
	kind string
	data json.RawMessage
	at   time.Time
}

// job is one submitted synthesis run.  The whole event history is retained
// (a run emits a few events per topology level, so the log stays small),
// which is what lets late SSE subscribers replay a finished job from the
// start, terminal event included, and what its trace is rendered from.
type job struct {
	id        string
	name      string
	key       string
	sinkCount int
	// baseJob routes the run through the delta path when the request named
	// a base job; it is fixed at submission.
	baseJob string
	// priority and deadline drive the dispatch order (see jobQueue.Less);
	// both are fixed at submission.  A zero deadline means none.
	priority Priority
	deadline time.Time
	// seq is the scheduler's admission sequence, the FIFO tiebreak within a
	// priority/deadline class; assigned under the scheduler lock.
	seq int64
	// ctx/cancel bound the run; both are set before the job is enqueued and
	// never change, so they are safe to read without the mutex.
	ctx    context.Context
	cancel context.CancelFunc

	// sinks and flow are only needed while the job can still run; finish
	// drops them so the retention window does not pin large sink sets (and
	// their flows) in a long-lived daemon.  flow is set before the job is
	// enqueued and stays nil for a job born terminal.
	sinks []cts.Sink
	flow  *cts.Flow

	mu       sync.Mutex
	state    JobState   // guarded by mu
	cacheHit bool       // guarded by mu
	log      []jobEvent // guarded by mu
	// notify is closed and replaced whenever the log or state changes;
	// subscribers re-grab it via snapshotSince, so no event is ever missed.
	notify   chan struct{}   // guarded by mu
	result   json.RawMessage // guarded by mu
	errMsg   string          // guarded by mu
	created  time.Time
	started  time.Time // guarded by mu
	finished time.Time // guarded by mu
}

func newJob(id string, req JobRequest, key string, sinks []cts.Sink, priority Priority, deadline time.Time) *job {
	return &job{
		id:        id,
		name:      req.Name,
		key:       key,
		sinkCount: len(sinks),
		baseJob:   req.BaseJob,
		sinks:     sinks,
		priority:  priority,
		deadline:  deadline,
		state:     StateQueued,
		notify:    make(chan struct{}),
		created:   time.Now(),
	}
}

// wake closes the current notify channel and installs a fresh one.  Callers
// must hold j.mu.
func (j *job) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendFlow adds one observer event to the log, stamped with its arrival.
func (j *job) appendFlow(w cts.WireEvent) {
	at := time.Now()
	data, err := json.Marshal(w)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.log = append(j.log, jobEvent{seq: len(j.log), kind: EventTypeFlow, data: data, at: at})
	j.wake()
}

// setRunning transitions a queued job to running; it reports false when the
// job is already terminal (canceled while queued).
func (j *job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.wake()
	return true
}

// finish moves the job to a terminal state and appends the terminal "done"
// event (carrying the final JobStatus) to the log.  It reports false when
// the job was already terminal, so racing finishers (a DELETE against the
// worker's own completion) resolve to exactly one outcome.  A non-empty
// from restricts the transition to jobs currently in that state — the
// queued-cancel path uses it so a job the worker just started cannot be
// declared "canceled before start" while its run keeps emitting events.
// count runs on the winning transition only, with j.mu held, before the
// terminal status and the done event become visible.
func (j *job) finish(from, state JobState, cacheHit bool, result json.RawMessage, errMsg string, count func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || (from != "" && j.state != from) {
		return false
	}
	j.state = state
	// The run is over (or never happens): release the sink set and the flow
	// so retention holds only the status and the event log.
	j.sinks = nil
	j.flow = nil
	j.cacheHit = cacheHit
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now()
	count()
	data, err := json.Marshal(j.statusLocked())
	if err == nil {
		j.log = append(j.log, jobEvent{seq: len(j.log), kind: EventTypeDone, data: data, at: j.finished})
	}
	j.wake()
	return true
}

// status snapshots the job's wire status.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() JobStatus {
	return JobStatus{
		ID:       j.id,
		Name:     j.name,
		State:    j.state,
		Priority: j.priority,
		Deadline: rfc3339(j.deadline),
		BaseJob:  j.baseJob,
		Key:      j.key,
		CacheHit: j.cacheHit,
		Sinks:    j.sinkCount,
		Error:    j.errMsg,
		Created:  rfc3339(j.created),
		Started:  rfc3339(j.started),
		Finished: rfc3339(j.finished),
		Result:   j.result,
	}
}

// retainedSize approximates the bytes a terminal job pins: its result JSON
// plus the event-log payloads (which embed the result once more in the
// terminal event).
func (j *job) retainedSize() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	size := int64(len(j.result))
	for _, ev := range j.log {
		size += int64(len(ev.data))
	}
	return size
}

// times snapshots the job's lifecycle timestamps.
func (j *job) times() (created, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.created, j.started, j.finished
}

// snapshotSince returns the log tail from sequence n on, whether the job is
// terminal, and the channel that will be closed on the next change.  Reading
// the tail and grabbing the channel under one lock is what makes the
// subscriber loop lossless: an event appended after the snapshot closes the
// returned channel, so the subscriber always re-reads.
func (j *job) snapshotSince(n int) (tail []jobEvent, terminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < len(j.log) {
		tail = append(tail, j.log[n:]...)
	}
	return tail, j.state.Terminal(), j.notify
}
