// Command ctsbench is the repository's end-to-end benchmark.  It serves
// clock tree synthesis jobs from in-process ctsd servers (ctsserver.New and
// ctsserver.NewGateway behind httptest, each member with a real cache
// directory) to closed-loop clients that use the public HTTP API through
// ctsserver.Client (Submit, then Stream until the done event).  It checks
// every answer and reports what a caller of ctsd sees: throughput, latency,
// set-up time, memory and the quality of the tree.  A traced run of the same
// workloads also reports what each layer of the job path contributed.
//
// # Running it
//
// ctsbench is a module of its own that imports the repository through a
// replace directive, so it runs from its directory or through run.sh, which
// builds it under .bench_build/ in the current directory:
//
//	bash cmd/ctsbench/run.sh --workload cache_hits --seed 1 --seconds 15 --trace 0
//	cd cmd/ctsbench && go run . -seed 1                    # every workload
//	cd cmd/ctsbench && go run . -seed 1 -trace 1           # plus a traced set
//	cd cmd/ctsbench && go run . -seed 1 -runs 5 -out base.json
//	cd cmd/ctsbench && go run . compare -spec ../../BENCHMARK.json base.json head.json
//	cd cmd/ctsbench && go test ./...                        # -short: smoke only
//
// With -workload, one workload runs in the process for -seconds.  The output
// is a "# host" line, then "workload metric value unit" lines, then one JSON
// object with the keys correct, attempted, failed and metrics.  The JSON
// metrics are the end-to-end metrics BENCHMARK.json lists, or its per-layer
// metrics under -trace 1.  The exit status is non-zero when any request or
// check failed.
//
// Without -workload, every workload runs, each in its own child process (a
// re-exec of the binary, so peak RSS and GC state are per workload).  The
// children set up one after another.  Then the parent hands out 5 s epochs,
// always to the workload with the smallest share of its time done and never
// twice in a row, until synth_cold has had 40 s and the others 30 s.  A
// child is idle between its epochs.  The host's speed drifts over minutes,
// and the epochs spread that drift over all four workloads instead
// of letting it land on whichever ran during a slow minute.  Between epochs
// the parent prints host_ref_ms, a fixed single-threaded 256-sink
// Flow.Run.  It is context for reading a set, never a gated metric.  -runs
// repeats the set; -out writes every set plus each metric's median and
// quartile spread, which is what compare reads.
//
// # Closed loop, two clients
//
// ctsd's callers (cts -server, CI scripts) block on their result, so each
// client sends its next job only after the previous one is done.  Two clients
// match the two cores the benchmark was sized on: at most two connections
// and two load goroutines.  Each client's designs are a pure function of the
// seed and the client index; the servers see only the generated sink sets.
// Every set-up ends with two warm-up jobs per client that are not measured.
//
// # Workloads
//
// synth_cold: one server with default options.  Every job is a never-seen
// 1,024-sink design, bench.SyntheticSized(1024) with a seeded 1% move, so
// every key is fresh.  The engine does almost all the work (merge-routing is
// 97% of the run on the reference host) and the result cache only misses and
// writes.  A cache, HTTP or gateway change must show no change here.
//
// eco_resubmit: one server with default options.  Set-up synthesizes a
// 2,048-sink base; clients send 0.5% deltas of it (move, add and drop in
// turn, fresh seeds, so no delta hits the result cache) with baseJob set to
// the base.  This is the engine used the other way round: the subtree tier
// (keying, codec decode, the memory LRU and the disk tier) serves about 88%
// of the merges and the topology is replayed level by level, so only the
// invalidated spine is routed.  On the reference host that routing is still
// 93% of the run (about 250 of 2,047 merges per delta), so a cheaper
// cascade shows here first.
//
// cache_hits: one server with a 16 KiB memory tier.  Set-up warms 128
// designs of 64 to 256 sinks (16 from each of 8 size bands); clients resubmit them
// uniformly at random.  No synthesis runs: request decode, ValidateSinks,
// CanonicalKey, the tier lookup, the disk read and the response encode do
// the work.  The memory tier holds about a quarter of the working set, so
// most hits are disk hits, on the store's read path that rewrites the
// manifest on every Get.  An engine change must show no change here.
//
// cluster_gateway: three members (1 worker, parallelism 1, each with its own
// cache directory, peer-wired) behind a Gateway.  Requests are dealt from
// shuffled decks of 10: 5 fresh 128-384-sink designs through the gateway, 3
// resubmissions through the gateway (memory hits on the owner) and 2
// resubmissions sent straight to a member that has not seen the key (a
// guaranteed peer hit, checked against the members' peerHits).
// Client 0 also reads the gateway's /v1/stats and /metrics about once a
// second between its jobs.  The hop, the gateway's own CanonicalKey, the
// ring, id rewriting, the SSE proxy and peer reads run on every request.
//
// # End-to-end metrics
//
// These are in the JSON line of every untraced run, on every workload:
//
//	jobs_per_s        done jobs / measured time (windows end when the last
//	                  in-flight job does)
//	latency_p50_ms    submit to done event, nearest-rank percentiles over
//	latency_p90_ms    the done jobs (failures count against throughput);
//	                  on cluster_gateway the median is over the
//	                  cache-served half only, see below
//	setup_s           start to ready for the first measured request, warm-up
//	                  included; median of 3 full set-ups per run, the first
//	                  timed from process start
//	peak_rss_mb       the process's VmHWM
//	skew_ps           clock skew, wire length per sink and buffers per sink,
//	wire_um_per_sink  as the ISPD 2009 contest scores them: means over the
//	buffers_per_sink  quality panel
//
// The quality panel is 16 fresh designs of the workload drawn from a
// constant seed, not from -seed, and served through the workload's entry
// point after the windows.  It is the same on every run, so the quality
// metrics repeat exactly and any change in them comes from the code.
//
// cluster_gateway mixes two modes in equal shares: fresh designs near 200 ms,
// and gateway hits and peer reads near 3 ms.  The median of all its requests
// would fall on the boundary between the modes and jump from one to the
// other between runs, so its latency_p50_ms is the median of the
// cache-served half, the paths the workload exists for.  Its latency_p90_ms
// is over all requests, as elsewhere, and lies in the fresh designs' mode.
// A percentile over the cache-served half's tail would be no use: with about
// 100 samples per run, its 90th percentile moved between 4 and 10 ms from
// seed to seed with the synthesis and garbage collection running beside it
// in the process.  Text lines add latency_p99_ms, fail_ratio, the sample
// counts behind the percentiles, the per-class medians of
// cluster_gateway (cold_, hit_ and peer_latency_p50_ms) and any failures by
// reason.  They stay out of the JSON line because that line carries the same
// non-zero metrics on every workload: a failure share is zero when the run is
// correct (attempted and failed are in the line itself), and a class median
// exists only where the class does.
//
// # Per-layer metrics
//
// A traced run (-trace 1) records spans at every layer boundary the client
// can see: the job (submit to done), its POST, the queue wait and run from
// the JobStatus timestamps (the servers share the client's clock), the
// engine stages from the SSE stage-end events laid back to back from the
// run's start, gateway scrapes and owner probes.  Spans stay in memory and
// are written to -trace-file at the end.  A span's self time is its duration
// minus the union of its children, so overlapping children count once.  The
// traced run also replays parts of the job path outside the servers.
//
//	metric                          layer      measures                                moves
//	http.post_ms_p50                http       POST round trip, any request            latency_p50_ms @ cache_hits, cluster_gateway
//	http.post_hit_ms_p50            http       POST that came back a cache hit         latency_p50_ms @ cache_hits
//	http.post_accept_ms_p50         http       POST answered 202                       latency_p50_ms @ synth_cold, eco_resubmit
//	http.{decode,validate,key,encode}_us_p50   replays on the run's requests of        latency_p50_ms @ cache_hits,
//	                                http       json.Unmarshal into JobRequest,         cluster_gateway
//	                                           ValidateSinks, CanonicalKey, indented
//	                                           JobStatus encode
//	http.request_kb                 http       mean request body                       latency_p50_ms @ cache_hits, cluster_gateway
//	sched.queue_wait_ms_p50         sched      Started - Created                       latency_p50_ms @ synth_cold, eco_resubmit
//	sched.run_ms_p50                sched      Finished - Started                      latency_p50_ms @ synth_cold, eco_resubmit
//	sched.rejected                  sched      429s                                    failed
//	cache.{memory,disk,peer}_hits,  cache      /v1/stats deltas over the windows       latency_p50_ms @ cache_hits
//	cache.{misses,evictions}
//	store.get_us_p50                store      store.Get on a copy of the result store latency_p50_ms @ cache_hits
//	store.put_ms_p50                store      store.Put on that copy                  jobs_per_s @ synth_cold, eco_resubmit
//	store.manifest_kb               store      its manifest.json                       jobs_per_s @ synth_cold, eco_resubmit
//	store.open_ms                   store      store.Open of the result and subtree    setup_s, every workload
//	                                           stores                                  (restart cost)
//	peer.hit_ms_p50                 peer       peer POST - direct owner POST           latency_p50_ms @ cluster_gateway
//	gateway.hop_ms_p50              gateway    gateway hit POST - direct owner POST    latency_p50_ms @ cluster_gateway
//	gateway.reroutes                gateway    reroute count                           failed @ cluster_gateway
//	gateway.{stats,metrics}_ms_p50  gateway    scrape round trips                      - (guards the stats merge)
//	subtree.reuse_ratio             subtree    Result.Incremental reused / total       latency_p50_ms @ eco_resubmit
//	subtree.{memory_hits,disk_hits, subtree    /v1/stats deltas; disk entries at end   latency_p50_ms @ eco_resubmit
//	  misses,evictions,disk_entries}
//	subtree.get_us_p50              subtree    timed SubtreeCache wrapper over         latency_p50_ms @ eco_resubmit
//	subtree.put_us_p50,                        NewMemorySubtreeCache on an in-process  jobs_per_s @ synth_cold
//	subtree.put_share                          Flow replaying 8 quality-panel designs
//	codec.decode_us_p50             codec      (Run, then a 0.5% RunIncremental)       latency_p50_ms @ eco_resubmit
//	topology.ms_per_job             topology   stage-end time per synthesized job      latency_p50_ms @ eco_resubmit
//	topology.levels_per_job         topology   levels per job                          latency_p50_ms @ eco_resubmit
//	mergeroute.ms_per_job           mergeroute stage-end time per job                  latency_p50_ms, jobs_per_s @ synth_cold
//	mergeroute.us_per_routed_merge  mergeroute per merge actually routed               latency_p50_ms, jobs_per_s @ synth_cold
//	mergeroute.routed_per_job       mergeroute pairs - reused                          latency_p50_ms @ eco_resubmit
//	mergeroute.arena_allocs_per_get mergeroute scratch arena allocs / gets             jobs_per_s @ synth_cold
//	buffering.ms_per_job            buffering  stage-end time per job                  latency_p50_ms @ synth_cold
//	timing.ms_per_job               timing     stage-end time per job                  latency_p50_ms @ synth_cold
//	flow.unattributed_ms_p50        residual   run minus the stage spans (subtree      latency_p50_ms @ synth_cold, eco_resubmit
//	                                           keying and puts, result encode, cache
//	                                           write)
//	job.unattributed_ms_p50         residual   job minus POST, queue and run           latency_p50_ms
//	proc.cpu_s_per_job              proc       rusage user+system per request          jobs_per_s, every workload
//	proc.{allocs,alloc_mb}_per_job  proc       runtime/metrics heap allocations        jobs_per_s, every workload
//	proc.gc_cpu_share               proc       GC CPU / available CPU                  jobs_per_s, every workload
//
// Both residuals are always reported; a change that grows either should say
// why.  The stage means plus flow.unattributed_ms_per_job add up to
// sched.run_ms_per_job.  The JSON line of a traced run carries the metrics
// that every workload exercises (BENCHMARK.json's per_layer list); the rest
// are text lines.  BENCHMARK.json entries hold only a name, unit and
// direction, so the layer and moves columns of the JSON metrics live in the
// perLayer table in report.go, which a test checks and compare prints.  The
// proc allocation counts repeat almost exactly from run
// to run, which makes them the noise-free regression signal.  In the
// all-workload mode, the traced set's latency_p50_ms minus the untraced one's
// is printed as trace.overhead_latency_p50_ms.
//
// # Correctness
//
// Every done result must keep the worst slew within the slew limit and
// report the request's sink count.  Every cache hit and peer hit must return
// the bytes of that design's first result.  Fresh designs must not hit.
// After the windows, an oracle re-synthesizes three seeded served designs
// and one ECO delta (submitted with baseJob) with a direct in-process
// Flow.Run; the served result must be byte-identical, ignoring elapsedMs and
// incremental.  In cluster_gateway, the members' peerHits delta must equal
// the successful peer requests.  A 429, a transport error, a terminal state
// other than done or any failed check counts in failed and makes the exit
// status non-zero.
//
// # Noise and bounds
//
// BENCHMARK.json gives each end-to-end metric the share by which a change
// may worsen its median before it counts as a regression.  On the 2-core
// reference host the timings drift at every time scale.  Within one
// cache_hits run the per-second throughput moved between 1,186 and 1,712
// jobs/s.  Between runs, stretches of minutes ran 20 to 50% slow across every
// workload at once, with host_ref_ms nearly doubling and steal under 1%.  In
// calm stretches, ten consecutive seeds at 15 s gave quartile spreads of 8
// to 17% for jobs_per_s and the latency percentiles on synth_cold,
// eco_resubmit and cluster_gateway, and 13 to 45% on cache_hits, whose
// median request is a disk hit that rewrites the store manifest.  A ten-seed
// set that straddled a slow stretch spread by up to 38%, and its medians sat
// 16 to 50% above those of a calm set of the same code.  Neither a stdlib
// calibration kernel (its own time was bimodal and uncorrelated with the
// workloads), nor steal or iowait (both under 4%), nor more clients
// explained the drift, so timings are reported raw and their bounds are the
// widest allowed, 0.25.  At these spreads a regression under about 10%
// cannot be told from noise, and a set taken in a slow stretch can exceed
// any bound.  Two later ten-seed sets at 15 s show both cases.  In one,
// the spreads of jobs_per_s and the latency percentiles were 0.05 to 0.19 on
// every workload.  In the other, synth_cold, eco_resubmit and
// cluster_gateway stayed within 0.03 to 0.10.  cache_hits there ran at
// 1,190 to 1,315 jobs/s for five seeds and at 870 to 1,090 for the next
// five, a spread of 0.27 to 0.30.  Its disk hits rewrite the store manifest
// through a temporary file and a rename on every request, so its speed
// follows the shared disk.  Peak RSS spread 1 to 14% (bound 0.25).  The quality
// metrics come from the fixed panel and repeat exactly on every run and seed.
// Their bound is 0.001, not 0, so that a spread of zero lies strictly inside
// it; any change in tree quality larger than a thousandth counts.
// testdata/baseline.json records five untraced sets and one traced set with
// -seed 1 and each metric's spread over the five.
package main
