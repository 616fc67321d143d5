package ctsserver

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/pkg/cts"
	"repro/pkg/ctsserver/store"
)

// Sink is the wire form of one clock sink: a name, a position in
// micrometres and an optional load capacitance in fF (zero selects the
// technology default).
type Sink struct {
	// Name identifies the sink; empty names are auto-generated ("sink_i").
	Name string `json:"name,omitempty"`
	// X and Y are the sink position in micrometres.
	X float64 `json:"x"`
	// Y is the position's second coordinate (see X).
	Y float64 `json:"y"`
	// Cap is the load capacitance in fF; zero selects the technology
	// default.
	Cap float64 `json:"cap,omitempty"`
}

// CTS converts the wire sink to the pipeline's sink type.
func (s Sink) CTS() cts.Sink {
	return cts.Sink{Name: s.Name, Pos: geom.Pt(s.X, s.Y), Cap: s.Cap}
}

// SinksToCTS converts a wire sink set to pipeline sinks.
func SinksToCTS(sinks []Sink) []cts.Sink {
	out := make([]cts.Sink, len(sinks))
	for i, s := range sinks {
		out[i] = s.CTS()
	}
	return out
}

// SinksFromCTS converts pipeline sinks to their wire form.
func SinksFromCTS(sinks []cts.Sink) []Sink {
	out := make([]Sink, len(sinks))
	for i, s := range sinks {
		out[i] = Sink{Name: s.Name, X: s.Pos.X, Y: s.Pos.Y, Cap: s.Cap}
	}
	return out
}

// Priority is a job's scheduling class.  The dispatcher always pops the
// highest class with queued work, so a high-priority job never waits behind
// a lower-priority one once a worker frees; within a class, earlier
// deadlines dispatch first and equal deadlines dispatch in submission
// order.  The zero value ("", like an absent wire field) means
// PriorityNormal.
type Priority string

const (
	// PriorityLow yields to everything else: batch and backfill work.
	PriorityLow Priority = "low"
	// PriorityNormal is the default class, used when the wire field is
	// absent or empty.
	PriorityNormal Priority = "normal"
	// PriorityHigh preempts the queue order (never a running job): the next
	// free worker takes the oldest high-priority job first.
	PriorityHigh Priority = "high"
)

// numPriorities is the number of scheduling classes, sizing the per-class
// queue-depth counters.
const numPriorities = 3

// rank orders priorities for dispatch; higher dispatches first.
func (p Priority) rank() int {
	switch p {
	case PriorityLow:
		return 0
	case PriorityHigh:
		return 2
	default: // "" and "normal"
		return 1
	}
}

// ParsePriority parses a wire priority: "low", "normal", "high", or empty
// (which selects PriorityNormal, the zero-value behavior of the wire
// field).
func ParsePriority(s string) (Priority, error) {
	switch Priority(s) {
	case PriorityLow, PriorityNormal, PriorityHigh:
		return Priority(s), nil
	case "":
		return PriorityNormal, nil
	}
	return PriorityNormal, fmt.Errorf("ctsserver: unknown priority %q (want low, normal, high)", s)
}

// JobRequest is the body of POST /v1/jobs: a sink set plus the synthesis
// parameters.  A nil Settings selects the flow defaults (the zero Settings
// defaults field by field, exactly as the cts.With… options do).  Verify
// enables the transient-simulation verify stage on the run.
type JobRequest struct {
	// Name labels the job in status reports and observer events (e.g. the
	// benchmark name); it does not participate in the result-cache key.
	Name string `json:"name,omitempty"`
	// Sinks is the clock sink set to synthesize; required, validated by
	// cts.ValidateSinks before any work runs.
	Sinks []Sink `json:"sinks"`
	// Settings are the synthesis parameters; nil (or any zero field)
	// defaults as the cts.With… options do.
	Settings *cts.Settings `json:"settings,omitempty"`
	// Verify enables the transient-simulation verify stage; verified runs
	// cache separately from unverified ones.
	Verify bool `json:"verify,omitempty"`
	// Priority selects the scheduling class; empty means normal.  It does
	// not participate in the result-cache key: a cached result serves every
	// priority.
	Priority Priority `json:"priority,omitempty"`
	// Deadline, when non-empty, is an RFC 3339 timestamp after which the
	// result is worthless to the client.  A job whose deadline passes before
	// it starts terminates as StateExpired without running synthesis (a
	// deadline already in the past expires the job at submission); a running
	// job is canceled through its context when the deadline passes and also
	// terminates as StateExpired.  The deadline does not participate in the
	// result-cache key, and a cache hit is served regardless of it.
	Deadline string `json:"deadline,omitempty"`
	// BaseJob, when non-empty, names an earlier job this request is a small
	// delta of (an ECO resubmission: a few sinks moved, added or dropped).
	// The job then runs through the incremental path, reusing every merged
	// sub-tree of prior work whose content key is unchanged; the result is
	// bit-identical to a from-scratch run and caches under the same key.
	// BaseJob is advisory — an exact result-cache hit is still served first,
	// and a cold subtree cache just recomputes everything — but the id must
	// name a job the server still remembers (404 unknown-base-job otherwise),
	// and the server must have a subtree cache (400 incremental-disabled
	// otherwise).  Reuse needs stable sink names across base and delta:
	// renamed sinks change every enclosing sub-tree's key.
	BaseJob string `json:"baseJob,omitempty"`
}

// key is the request's content address, on which Server caches and Gateway
// routes: cts.CanonicalKey over the effective settings and the sinks, plus
// a "+verify" marker, since verification adds the simulated timing to the
// Result and so makes a distinct entry.  A request spelling out the defaults
// and one leaving them zero share a key.
func (req JobRequest) key(sinks []cts.Sink) (string, error) {
	var set cts.Settings
	if req.Settings != nil {
		set = *req.Settings
	}
	eff, err := set.Effective()
	if err != nil {
		return "", err
	}
	key := cts.CanonicalKey(eff, sinks)
	if req.Verify {
		key += "+verify"
	}
	return key, nil
}

// JobState is the lifecycle state of a job.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: synthesis in progress on a worker.
	StateRunning JobState = "running"
	// StateDone: finished; JobStatus.Result carries the cts.Result JSON.
	StateDone JobState = "done"
	// StateFailed: synthesis returned an error (JobStatus.Error).
	StateFailed JobState = "failed"
	// StateCanceled: ended by DELETE (or a timed-out drain) before
	// completing.
	StateCanceled JobState = "canceled"
	// StateExpired: the job's deadline passed before it produced a result —
	// either before it started (no synthesis ran) or mid-run (the run was
	// canceled through its context).  Expired jobs are retryable: resubmit
	// the identical request with a later (or no) deadline; nothing about
	// the expiry is remembered against the request's cache key.
	StateExpired JobState = "expired"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateExpired
}

// JobStatus is the wire form of a job: returned by POST /v1/jobs and
// GET /v1/jobs/{id}, and carried by the terminal "done" event of the SSE
// stream.  Result holds the cts.Result JSON once the job is done.
type JobStatus struct {
	// ID is the server-minted job identity for GET/DELETE/events calls.
	ID string `json:"id"`
	// Name echoes the request's label.
	Name string `json:"name,omitempty"`
	// State is the lifecycle state; Terminal states never change again.
	State JobState `json:"state"`
	// Priority echoes the request's scheduling class (always concrete on
	// the wire: an absent request field reports as "normal").
	Priority Priority `json:"priority"`
	// Deadline echoes the request's deadline as RFC 3339, empty when none
	// was set.
	Deadline string `json:"deadline,omitempty"`
	// BaseJob echoes the request's base-job id for incremental runs.
	BaseJob string `json:"baseJob,omitempty"`
	// Key is the content-addressed identity of the request
	// (cts.CanonicalKey over the effective settings and sinks).
	Key string `json:"key"`
	// CacheHit reports that the result was served from the result cache
	// without running synthesis.
	CacheHit bool `json:"cacheHit"`
	// Sinks is the request's sink count.
	Sinks int `json:"sinks"`
	// Error describes why the job failed, was canceled or expired.
	Error string `json:"error,omitempty"`
	// Created/Started/Finished are RFC 3339 timestamps; Started and
	// Finished are empty while the job has not reached them.
	Created string `json:"created,omitempty"`
	// Started is when a worker picked the job up (empty until then).
	Started string `json:"started,omitempty"`
	// Finished is when the job went terminal (empty until then).
	Finished string `json:"finished,omitempty"`
	// Result is the cts.Result JSON of a done job.
	Result json.RawMessage `json:"result,omitempty"`
}

// Error codes used by the API beyond the cts.SinkErr validation codes.
const (
	// ErrBadRequest: undecodable body, oversized sink set, or a malformed
	// priority/deadline field.
	ErrBadRequest = "bad-request"
	// ErrBadSetting: the settings failed cts.New validation.
	ErrBadSetting = "bad-settings"
	// ErrNotFound: the job id is unknown (never assigned, or already
	// forgotten by retention).
	ErrNotFound = "not-found"
	// ErrQueueFull: admission would exceed the queue depth; the 429
	// response carries a Retry-After header.
	ErrQueueFull = "queue-full"
	// ErrDraining: the server is shutting down and rejects new work.
	ErrDraining = "draining"
	// ErrUnknownBase: the request's baseJob names a job the server does not
	// remember (never assigned, or already dropped by retention).
	ErrUnknownBase = "unknown-base-job"
	// ErrIncrementalDisabled: the request set baseJob but the server runs
	// without a subtree cache (SubtreeCacheBytes < 0).
	ErrIncrementalDisabled = "incremental-disabled"
	// ErrMemberUnreachable: the gateway exhausted every ring replica for the
	// key without finding a member that would take (or still had) the job.
	// The 503 response carries a Retry-After header — by the next attempt the
	// gateway skips the members that just failed (each sits out a 5 s
	// cooldown) and has usually found a live one.
	ErrMemberUnreachable = "member-unreachable"
)

// retryAfterSeconds is the Retry-After hint on 429 queue-full responses: a
// queue this saturated typically frees a slot within a couple of job
// completions, so clients are told to back off briefly rather than hammer.
const retryAfterSeconds = 1

// APIError is the structured error body of every non-2xx response, wrapped
// as {"error": {...}}.  Sink points at the offending sink for validation
// errors.  It implements the error interface, so the Client returns it
// directly.
type APIError struct {
	// HTTPStatus is the response status; not serialized.
	HTTPStatus int `json:"-"`
	// Code is the machine-readable error class (the Err… constants, or a
	// cts.SinkErr… validation code).
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Sink is the index of the offending sink for validation errors.
	Sink *int `json:"sink,omitempty"`
	// RetryAfter, when positive, is the server's back-off hint in seconds;
	// it is also sent as the response's Retry-After header (429 queue-full
	// carries it).
	RetryAfter int `json:"retryAfter,omitempty"`
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("ctsserver: %s (%s)", e.Message, e.Code)
}

// errorBody is the JSON envelope of an APIError.
type errorBody struct {
	Error *APIError `json:"error"`
}

// SchedulerStats summarizes the job scheduler for GET /v1/stats.
type SchedulerStats struct {
	// Workers is the pool size; QueueDepth the admission bound.
	Workers int `json:"workers"`
	// QueueDepth is the accepted-but-not-running bound (429 beyond it).
	QueueDepth int `json:"queueDepth"`
	// Queued is the live queued-job count; QueuedByPriority splits it per
	// scheduling class (keys "low", "normal", "high").
	Queued int `json:"queued"`
	// QueuedByPriority is Queued split per scheduling class.
	QueuedByPriority map[Priority]int `json:"queuedByPriority"`
	// Running is the number of jobs currently on a worker.
	Running int `json:"running"`
	// Submitted counts every admitted job (including born-terminal ones);
	// each eventually lands in exactly one of Completed, Failed, Canceled
	// or Expired.
	Submitted int64 `json:"submitted"`
	// Completed counts jobs that finished with a result.
	Completed int64 `json:"completed"`
	// Failed counts jobs whose synthesis returned an error.
	Failed int64 `json:"failed"`
	// Canceled counts jobs ended by DELETE or a timed-out drain.
	Canceled int64 `json:"canceled"`
	// Expired counts jobs terminated by their deadline.
	Expired int64 `json:"expired"`
	// Rejected counts submissions bounced at admission (queue full); they
	// are not part of Submitted.
	Rejected int64 `json:"rejected"`
	// CacheHits counts submissions served without synthesis (memory-,
	// disk- or peer-served).
	CacheHits int64 `json:"cacheHits"`
	// Draining reports that intake has stopped for shutdown.
	Draining bool `json:"draining"`
}

// CacheStats summarizes the result cache for GET /v1/stats: the in-memory
// LRU tier, plus the disk tier when one is configured.
type CacheStats struct {
	// Entries/Bytes/MaxBytes describe the in-memory tier's occupancy.
	Entries int `json:"entries"`
	// Bytes is the memory tier's current total over stored Result JSON.
	Bytes int64 `json:"bytes"`
	// MaxBytes is the memory tier's byte budget (<= 0: tier disabled).
	MaxBytes int64 `json:"maxBytes"`
	// Hits counts lookups answered by either tier (MemoryHits + DiskHits;
	// kept for wire compatibility with pre-split clients).
	Hits int64 `json:"hits"`
	// MemoryHits counts lookups the in-memory tier answered directly,
	// siblings' probes included.
	MemoryHits int64 `json:"memoryHits"`
	// DiskHits counts lookups the memory tier missed but the disk tier
	// answered, siblings' probes included (each also promotes the entry
	// back into memory).
	DiskHits int64 `json:"diskHits"`
	// PeerHits counts submissions both local tiers missed but a sibling
	// member's cache answered with a value that passed the result check
	// (cluster mode only; each hit is re-cached locally).  Peer hits are
	// not part of Hits, which stays local-only, nor of Misses.
	PeerHits int64 `json:"peerHits,omitempty"`
	// Misses counts submissions no tier could answer, peers included: each
	// one is a synthesis.  A sibling's probe of this member's cache is not
	// a lookup of its own and never counts as a miss.
	Misses int64 `json:"misses"`
	// Evictions counts memory-tier LRU evictions.
	Evictions int64 `json:"evictions"`
	// Disk is the disk tier's snapshot; nil when the server runs without a
	// cache directory.
	Disk *store.Stats `json:"disk,omitempty"`
	// Subtrees is the subtree tier backing incremental (baseJob) runs; nil
	// when the server runs with the tier disabled.
	Subtrees *SubtreeStats `json:"subtrees,omitempty"`
}

// SubtreeStats summarizes the subtree cache tier for GET /v1/stats: the
// per-merge sub-tree values behind incremental (baseJob) synthesis.  Counter
// semantics mirror CacheStats, but per sub-tree lookup rather than per job.
type SubtreeStats struct {
	// Entries/Bytes/MaxBytes describe the in-memory tier's occupancy.
	Entries int `json:"entries"`
	// Bytes is the memory tier's current total over encoded sub-trees.
	Bytes int64 `json:"bytes"`
	// MaxBytes is the memory tier's byte budget (always positive: a
	// negative Options.SubtreeCacheBytes disables the whole tier).
	MaxBytes int64 `json:"maxBytes"`
	// MemoryHits counts sub-tree lookups the memory tier answered.
	MemoryHits int64 `json:"memoryHits"`
	// DiskHits counts lookups answered by the disk tier (and promoted).
	DiskHits int64 `json:"diskHits"`
	// PeerHits counts lookups both local tiers missed but a sibling member
	// answered with a value that passed the codec's checksum (cluster mode,
	// incremental runs only; re-cached in memory, and on disk when coarse).
	PeerHits int64 `json:"peerHits,omitempty"`
	// Misses counts lookups no tier could answer, peers included (each one
	// is a merge recomputed from scratch); sibling probes never count.
	Misses int64 `json:"misses"`
	// Evictions counts memory-tier LRU evictions.
	Evictions int64 `json:"evictions"`
	// Disk is the disk tier's snapshot; nil when the server runs without a
	// cache directory.
	Disk *store.Stats `json:"disk,omitempty"`
}

// LatencySummary condenses one latency histogram for GET /v1/stats: the
// observation count and sum plus bucket-interpolated percentiles (the same
// estimator /metrics consumers apply to the exported buckets, so the two
// views agree).
type LatencySummary struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// SumSeconds is the sum of observed latencies in seconds.
	SumSeconds float64 `json:"sumSeconds"`
	// P50Seconds is the estimated median, interpolated from the buckets.
	P50Seconds float64 `json:"p50Seconds"`
	// P90Seconds is the estimated 90th percentile.
	P90Seconds float64 `json:"p90Seconds"`
	// P99Seconds is the estimated 99th percentile.
	P99Seconds float64 `json:"p99Seconds"`
}

// PriorityLatency groups one scheduling class's latency summaries.
type PriorityLatency struct {
	// QueueWait is the admission-to-start wait of jobs that started.
	QueueWait LatencySummary `json:"queueWait"`
	// Run is the start-to-finish synthesis duration of jobs that started.
	Run LatencySummary `json:"run"`
	// E2E is the admission-to-terminal latency of every job, born-terminal
	// ones (cache hits, born-expired) included.
	E2E LatencySummary `json:"e2e"`
}

// Stats is the body of GET /v1/stats: scheduler and cache counters plus the
// aggregated per-stage synthesis metrics (the same cts.MetricsSnapshot the
// CLI's -metrics flag renders) and the per-priority latency summaries.
type Stats struct {
	// Scheduler is the queue/worker/terminal-state summary.
	Scheduler SchedulerStats `json:"scheduler"`
	// Cache is the two-tier result-cache summary.
	Cache CacheStats `json:"cache"`
	// Metrics aggregates every job's observer stream per stage.
	Metrics cts.MetricsSnapshot `json:"metrics"`
	// UptimeSeconds is the time since the server was assembled.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
	// Latency is the per-priority latency summary (every class present,
	// observed or not); the same histograms back /metrics.
	Latency map[Priority]PriorityLatency `json:"latency"`
}

// JobTrace is the body of GET /v1/jobs/{id}/trace: the job's span tree.
// Spans holds the root "job" span with "queued", "run" and per-stage child
// spans nested under it; offsets and durations are milliseconds from the
// job's admission.  On a terminal job the tree is frozen and replays
// byte-identically; on a live job open spans carry open=true.
type JobTrace struct {
	// ID is the job id the trace belongs to.
	ID string `json:"id"`
	// Name echoes the request's label.
	Name string `json:"name,omitempty"`
	// State is the job's lifecycle state at rendering time.
	State JobState `json:"state"`
	// Spans is the span forest (in practice a single "job" root).
	Spans []*obs.SpanJSON `json:"spans"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status string `json:"status"` // "ok", "draining" or, on a gateway, "no healthy members"
	// Draining mirrors Status for programmatic checks.
	Draining bool `json:"draining"`
}

// GatewayStats summarizes the gateway's own routing work for the cluster
// view of GET /v1/stats.
type GatewayStats struct {
	// Members is the configured member count; Healthy of them answered this
	// request's polls (a degraded cluster reports Healthy < Members).
	Members int `json:"members"`
	// Healthy is the number of members that answered this request's
	// /v1/stats and /metrics polls.
	Healthy int `json:"healthy"`
	// Submitted counts jobs accepted at the gateway.
	Submitted int64 `json:"submitted"`
	// Rerouted counts dispatches that left a key's ring owner for a further
	// replica (the owner was down, refused, or dropped mid-job).
	Rerouted int64 `json:"rerouted"`
	// Jobs is the number of jobs the gateway currently remembers.
	Jobs int `json:"jobs"`
	// UptimeSeconds is the time since the gateway was assembled.
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// MemberStatus is one member's slice of the cluster view of GET /v1/stats.
type MemberStatus struct {
	// URL is the member's base URL (its ring identity).
	URL string `json:"url"`
	// Healthy reports whether the member answered the stats and metrics
	// polls; a degraded member has Healthy false, an Error, and no Stats.
	Healthy bool `json:"healthy"`
	// Error describes why an unhealthy member could not be polled.
	Error string `json:"error,omitempty"`
	// Stats is the member's own GET /v1/stats body; nil when unhealthy.
	Stats *Stats `json:"stats,omitempty"`
}

// ClusterStats is the body of GET /v1/stats on a gateway: the gateway's own
// routing counters, each member's status and stats, and a merged view that
// sums the members' counters, read off the merge the gateway's /metrics
// serves.  Merged omits the per-priority Latency map — percentiles cannot be
// summed from summaries; cluster-wide percentiles come from the gateway's
// /metrics, where the members' histogram buckets merge exactly.
type ClusterStats struct {
	// Gateway is the gateway's own routing summary.
	Gateway GatewayStats `json:"gateway"`
	// Members lists every configured member's status and stats.
	Members []MemberStatus `json:"members"`
	// Merged sums the healthy members' scheduler, cache and synthesis
	// counters (occupancy gauges like queue depth sum too: the cluster-wide
	// totals).
	Merged Stats `json:"merged"`
}

// SSE event types on GET /v1/jobs/{id}/events.
const (
	// EventTypeFlow carries one cts.WireEvent from the run's observer
	// stream.
	EventTypeFlow = "flow"
	// EventTypeDone terminates the stream and carries the final JobStatus.
	EventTypeDone = "done"
)

// rfc3339 renders a timestamp for the wire, empty when unset.
func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
