// Package ctsserver is the long-lived synthesis service in front of the
// repro/pkg/cts pipeline: an HTTP JSON job API with streaming progress, a
// priority/deadline scheduler and a two-tier (memory + disk) content-
// addressed result cache, served by the ctsd command and consumed by the
// Client in this package (or any HTTP client).
//
// # Wire contract
//
// Every request and response body is JSON; every non-2xx response wraps an
// APIError as {"error": {"code": ..., "message": ..., ...}}.  The endpoints:
//
//	POST   /v1/jobs             submit a JobRequest
//	GET    /v1/jobs/{id}        fetch a JobStatus
//	GET    /v1/jobs/{id}/events subscribe to the job's event stream (SSE)
//	GET    /v1/jobs/{id}/trace  fetch the job's span tree (JobTrace)
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/stats            scheduler/cache/synthesis statistics (Stats)
//	GET    /metrics             Prometheus text exposition (not JSON)
//	GET    /healthz             liveness (Health)
//
// # POST /v1/jobs
//
// The body is a JobRequest: a sink set (required), optional cts.Settings
// (absent fields default exactly as the cts.With… options do — including
// the strategy fields topology: "greedy"/"bipartition" and routing:
// "flat"/"hierarchical", which select the pairing and merge-routing
// strategies and participate in the cache key), an optional verify marker,
// the scheduling fields priority ("low", "normal", "high"; absent means
// "normal") and deadline (RFC 3339; absent means none), and an optional
// baseJob id for incremental resubmission (see Incremental synthesis
// below).  The body must be exactly one JSON object: bytes after it,
// whitespace aside, are a 400.  It decodes exactly as json.Unmarshal
// decodes it into a JobRequest, so keys match as encoding/json matches
// them (case-insensitively, the last of a repeated key winning); the
// exact-case spelling of each key, once, is the fast path.  Responses:
//
//	202 Accepted  the job was queued; the JobStatus carries its id
//	200 OK        the job was born terminal: either a cache hit (state
//	              "done", cacheHit true, result attached) or — when the
//	              deadline already passed at submission — state "expired"
//	              with a Retry-After: 0 header (see Deadlines below)
//	400           undecodable body, sink-set validation failure (structured
//	              cts.SinkSetError codes, with the offending sink index),
//	              rejected settings (code "bad-settings": a slew target
//	              above the limit, a gridSize above 240, an unknown enum
//	              token, or a slewLimit at or below the technology's
//	              source slew, which no tree can meet), an unknown
//	              priority, a malformed deadline, a sink set over the
//	              server's -max-sinks, or a baseJob on a server whose
//	              subtree cache is disabled (code "incremental-disabled")
//	404           the baseJob id names a job the server does not remember
//	              (code "unknown-base-job"; never assigned, or dropped by
//	              retention) — resubmit without baseJob to run cold
//	429           the queue is full; the response carries a Retry-After
//	              header and the same hint in error.retryAfter (seconds)
//	503           the server is draining and accepts no new work
//
// # GET /v1/jobs/{id}
//
// 200 with the job's JobStatus, or 404 once retention has forgotten it
// (terminal jobs stay addressable until the retention bounds evict them).
// A done job's status carries the full cts.Result JSON in result.  A run
// whose tree misses its slew limit (timed worst slew above slewLimit) is
// not done but "failed", with the cts.ErrSlewLimit message in error; like
// every failed job it is never cached.
//
// # GET /v1/jobs/{id}/events
//
// A Server-Sent Events stream.  Each event has an incrementing id, an
// event type and one data line:
//
//	event: flow   data: one cts.WireEvent JSON — an observer event of the
//	              running synthesis (stage-start/stage-end/level-done/…)
//	event: done   data: the final JobStatus JSON; the stream ends after it
//
// The full history is replayed first, so subscribing to a finished job
// yields every event, terminal one included; subscribers never miss events
// in the gap between replay and live tail.  Cache-hit and born-expired
// jobs emit only the terminal "done" event.
//
// # DELETE /v1/jobs/{id}
//
// Cancellation is idempotent and always answers 200 with the job's current
// status (404 only for unknown ids).  A queued job goes terminal
// ("canceled") immediately and releases its queue slot; a running job is
// canceled through its context and reaches "canceled" when the run
// unwinds, so the response may still report "running".  DELETE on an
// already-terminal job — done, failed, canceled or expired — is a no-op:
// the state never changes (a done job keeps its result), the canceled
// counter is not incremented, and the response simply carries the
// unchanged status.  This is the pinned contract; clients may retry
// DELETE freely.
//
// # GET /v1/jobs/{id}/trace
//
// 200 with the job's JobTrace: the id, name, current state and a span tree
// (repro/internal/obs SpanJSON — name, startMs offset from admission,
// durationMs, attrs, children), rendered from the job's event log, the
// record the SSE stream replays, and its lifecycle instants.  The root
// "job" span covers admission to terminal and carries state and cacheHit
// attrs; its "queued" child covers admission to worker pickup and its
// "run" child covers the synthesis, with one child span per stage
// execution, named for the stage ("topology", "mergeroute", "buffering",
// "timing").  The leveled stages carry a level attr, and mergeroute spans
// carry pairs and, when merges came from the subtree cache, reused.
// Stage durations are the flow's own measured elapsed times, not
// re-measured at render; a stage the run never ended (a canceled run)
// closes when the job finished.  While the job is live the tree is a
// snapshot and open spans are marked open:true; once the job is terminal
// the trace is frozen and replays byte-identically, like the SSE event
// log.  Born-terminal jobs (cache hits, born-expired) have no run span.
// 404 once retention has forgotten the id.
//
// # GET /metrics
//
// The one non-JSON endpoint: the server's metric registry in Prometheus
// text exposition format 0.0.4 (Content-Type "text/plain; version=0.0.4").
// Series are prefixed ctsd_ — the scheduler's bounds (ctsd_workers,
// ctsd_queue_limit), ctsd_draining, admission and terminal-state counters,
// queue depth and running-job gauges; per cache tier (ctsd_cache_*,
// ctsd_subtree_cache_*) hits per level, misses, evictions, entries, bytes
// and max_bytes; the observer stream's ctsd_flows_total{event} and
// ctsd_flow_{levels,pairs,flips,reused_merges}_total; merge-arena
// recycling, the merge router's deterministic work count
// (ctsd_mergeroute_cells_expanded_total); and latency histograms:
// ctsd_job_queue_wait_seconds, ctsd_job_run_seconds and
// ctsd_job_e2e_seconds labeled by priority (observed once per job at its
// terminal transition; born-terminal jobs observe only e2e) plus
// ctsd_stage_seconds labeled by stage.  Every histogram ends in a
// le="+Inf" bucket; repro/internal/obs.ParseText parses the exposition
// strictly and is what cmd/ctsload and the package's own tests use.
//
// GET /v1/stats renders the same registry (plus the disk snapshots, which
// are not series), so the two reconcile exactly.  Wire change: a
// cts.StageMetrics has no Min or Max, and its 16 Buckets follow
// ctsd_stage_seconds (obs.LatencyBuckets plus overflow).
//
// # Scheduling: priorities and deadlines
//
// Behind the API sits a bounded scheduler: a priority queue of
// configurable depth (Options.QueueDepth) drained by a fixed worker pool
// (Options.Workers).  Dispatch order is priority class first (high >
// normal > low), earliest deadline next (a job without a deadline sorts
// after any job with one in its class), submission order last.  A
// high-priority job therefore never waits behind lower-priority work once
// a worker frees; priorities never preempt a run already in progress.
// Submissions beyond the queue depth fail fast with 429 rather than
// building an unbounded backlog.
//
// Deadlines bound a result's usefulness, and expiry is its own terminal
// state, "expired", distinct from "failed" and "canceled":
//
//   - A deadline already in the past at submission: the job is born
//     expired (200, never queued, no synthesis).  The response carries
//     Retry-After: 0 — the condition is client-chosen, not a server
//     limit, so an immediate resubmission with a fresh deadline is fine.
//   - The deadline passes while the job is queued: the worker that pops
//     it retires it as expired instead of running it.
//   - The deadline passes mid-run: the job context (which carries the
//     deadline) cancels the run, and the job terminates as expired.
//
// Nothing about an expiry is remembered against the request's cache key:
// resubmitting the identical sink set afterwards runs (or serves)
// normally.  Conversely a cache hit is served even past the deadline —
// the result already exists, so expiring it would only withhold it.
// Neither priority nor deadline participates in the cache key.
//
// Server.Drain — wired to SIGTERM in ctsd — stops intake (new submissions
// see 503, /healthz flips to 503) and completes every job already accepted
// before returning.
//
// # Result cache
//
// Results are cached under cts.CanonicalKey(effective settings, sinks)
// (plus a "+verify" marker for verified runs): a resubmitted sink set is
// answered as a job born done with cacheHit set, performing no synthesis.
// Because synthesis is deterministic, a cached result is bit-identical to
// what a fresh run would produce.
//
// The result cache is one of the server's two cache tiers; the subtree
// cache below is the other, and both are the same type with the same
// levels.  The memory level is LRU within a byte budget
// (Options.CacheBytes) over the stored Result JSON.  The optional disk
// level (Options.CacheDir / Options.CacheDiskBytes; package
// repro/pkg/ctsserver/store) persists one gzip file per key, its deflate
// blocks stored rather than compressed, with crash-safe writes and its own
// least-recently-used byte budget, recency kept in each entry file's
// mtime: completed jobs write through to it, memory misses read through
// from it (promoting the entry), and because it survives restarts, a
// freshly started server answers resubmissions of pre-restart work from
// disk — the restart-survival path ctsd's -cache-dir flag enables.  In
// cluster mode the sibling members are the third level (see Cluster
// mode).  GET /v1/stats reports the tier as CacheStats: each lookup for a
// submission counts in exactly one of memoryHits, diskHits, peerHits or
// misses, and the disk level's own snapshot sits under "disk" (hits,
// misses, evictions, corrupt-entry deletions, occupancy).
//
// Terminal jobs stay addressable (status and event replay) until the
// retention bounds (Options.JobRetention, and 256 MiB of retained result
// JSON and event logs) forget the oldest ones.
//
// # Incremental synthesis (baseJob)
//
// A JobRequest may name an earlier job in baseJob, declaring the request a
// small delta of that job's design (an ECO resubmission: a few sinks moved,
// added or dropped).  The job then runs through cts.Flow.RunIncremental
// against the server's shared subtree cache: every merged sub-tree whose
// content key (a hash of the effective settings and its two inputs' keys,
// down to each sink's name and exact position and capacitance) is
// unchanged is decoded from the cache instead of re-routed, and only the
// affected region recomputes.  The
// result is bit-identical to a from-scratch run — same canonical key, same
// tree bytes — so it caches under the same result-cache entry; only the
// incremental block of the Result (reusedSubtrees, recomputedMerges, the
// sink diff) and the wall time differ.
//
// baseJob is advisory.  An exact result-cache hit is still served first
// (the delta may collapse to a known request), and a cold subtree cache
// simply recomputes everything.  What the id buys is validation: it must
// name a job the server still remembers (404 "unknown-base-job" otherwise),
// catching stale ids and wrong-server submissions early, and the server
// must have a subtree cache at all (400 "incremental-disabled" when ctsd
// ran with a negative -subtree-cache-mb).  Reuse requires stable sink names
// across base and delta — renaming a sink changes every enclosing
// sub-tree's key.
//
// The subtree cache is the result cache's type over encoded sub-trees,
// shared by every job: plain runs write their merges through (warming it
// for free), incremental runs read them back.  The memory level is LRU
// within Options.SubtreeCacheBytes; with a CacheDir, the disk level keeps
// only coarse sub-trees (a 16 KiB floor on the encoded size) in a
// "subtrees" directory under it, bounded by Options.SubtreeCacheDiskBytes,
// so the expensive upper levels of pre-restart work stay reusable.  The
// floor exists because every disk write pays a file creation, an fsync and
// a rename (about 1 ms per entry in the store's BenchmarkStorePut, against
// about 1,000 merges in a 1,024-sink job) — persisting every tiny
// leaf-adjacent merge would spend that on entries that are cheap to
// recompute anyway.  GET /v1/stats reports the tier under cache.subtrees
// (SubtreeStats: occupancy, the same four lookup counters per sub-tree
// lookup, evictions, and the disk store's own snapshot).
//
// # Cluster mode
//
// Several ctsd members can run behind a Gateway (ctsd -gateway
// -members=...), which serves the same wire contract above — clients need
// no changes — and routes each job by consistent-hashing its canonical
// request key over the member set.  The gateway computes the key itself
// with the function members cache on, so every job for the same design
// lands on the same member and its caches concentrate instead of
// fragmenting.  The key covers neither technology nor library, so the
// gateway needs neither; members should still share both, because that is
// what makes one member's result interchangeable with another's.  The
// gateway mints its own job ids; the member's ids never leak (statuses,
// traces and SSE done events are rewritten).  An incremental request's
// baseJob is a gateway id: the request goes to the member that ran the
// base, where the subtree cache is warm, and when that member is down,
// refuses, or has forgotten the base, it runs as a plain ring-routed
// request instead (the same result, computed cold).
//
// One response header exposes the routing:
//
//	X-Ctsd-Member  (response, gateway→client) the member that served
//
// Failover: a member that refuses (429/503/5xx) or cannot be reached is
// skipped and the job is dispatched to the next member in the key's
// deterministic replica order; a member that dies mid-job is detected on
// the next poll or SSE read and the job is redispatched the same way
// (terminal statuses are cached at the gateway, so a finished job is never
// re-run).  Only when every member is down does the client see an error:
// 503 with code "member-unreachable".  Liveness is one rule, the members'
// own: a member that fails an exchange at the transport level or answers
// 503 (draining) is skipped for 5 s, by dispatch, baseJob affinity and
// ctsd_gateway_member_up alike, so a draining member refuses one submission
// and is then passed over.  The gateway runs no probe loop: its GET
// /healthz probes the members live, answering 200 with the first member
// that does and 503 once all have failed.  DELETE on a job whose member died
// answers with a gateway-synthesized "canceled" status.  GET /v1/jobs/
// {id}/trace does not fail over (the span tree lives on the member that
// ran the job): it answers 503 "member-unreachable" until the member
// returns.
//
// Members gossip nothing; instead each member can be given its siblings'
// URLs (ctsd -peers=...), and on a local result-cache miss it consults
// their caches (GET /v1/peer/result/{key}, one hop, never forwarded)
// before synthesizing, re-caching any hit locally.  The subtree tier does
// the same for incremental runs (GET /v1/peer/subtree/{key}).  This is
// the lazy rebalance story: after membership changes move ~1/N of the key
// space, moved keys miss once on their new owner, are fetched from the old
// one's cache, and are local thereafter.  A sibling's value is checked
// before it is kept or served — a result must be a JSON object with
// settings and a positive stats.sinks, a sub-tree must pass the codec's
// checksum — and a rejected value is a miss.  A kept value is re-cached
// like a local one, so peer-served results and coarse sub-trees also
// reach the disk level and survive a restart.  Peer hits are reported in
// cache.peerHits and cache.subtrees.peerHits of GET /v1/stats.  Counters
// follow the lookups a member makes for its own jobs: a peer hit is not
// also a miss, and a sibling's probe counts on the probed member only as
// the memory or disk hit it was (a probe that misses counts nothing).
//
// On a gateway, GET /v1/stats answers ClusterStats instead of Stats: the
// gateway's own routing counters (gateway), every member's health and
// Stats (members — a dead member has healthy false, an error and no
// stats; a member counts as healthy only if it answered both its
// /v1/stats and /metrics polls), and a merged view read off the same
// merge the gateway's GET /metrics serves (merged: sums over the healthy
// members, draining their OR, the oldest member's uptime; its latency
// block and disk snapshots are omitted, since percentiles cannot be
// summed — cluster-wide percentiles come from GET /metrics, whose
// histogram buckets merge exactly).
package ctsserver
