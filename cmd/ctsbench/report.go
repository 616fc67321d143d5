package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of the benchmark's contract (BENCHMARK.json).  A
// per-layer metric's layer is its name up to the first dot, and moves names
// the end-to-end metric it should move and the workloads it should move it
// on, as "metric@workload,workload".  BENCHMARK.json entries carry only name,
// unit and better, so this table is where that mapping is kept.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics a user of ctsd sees, reported by every untraced
// run of every workload.  BENCHMARK.json lists exactly these, with bounds.
var endToEnd = []metricDef{
	{name: "jobs_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "skew_ps", unit: "ps", better: "lower"},
	{name: "wire_um_per_sink", unit: "um", better: "lower"},
	{name: "buffers_per_sink", unit: "count", better: "lower"},
}

// Workload lists of the per-layer table.
const (
	onSynthesis = "@synth_cold,eco_resubmit"
	onHits      = "@cache_hits,cluster_gateway"
	onEvery     = "@synth_cold,eco_resubmit,cache_hits,cluster_gateway"
)

// perLayer are the layer metrics every traced run of every workload reports:
// the ones each workload exercises.  Layer metrics that exist on some
// workloads only (the gateway hop, the engine stages, the scheduler) are
// printed as text lines but kept out of the JSON line, which must carry the
// same names on every workload.
var perLayer = []metricDef{
	{"http.post_ms_p50", "ms", "lower", "latency_p50_ms" + onHits},
	{"http.decode_us_p50", "us", "lower", "latency_p50_ms" + onHits},
	{"http.validate_us_p50", "us", "lower", "latency_p50_ms" + onHits},
	{"http.key_us_p50", "us", "lower", "latency_p50_ms" + onHits},
	{"http.encode_us_p50", "us", "lower", "latency_p50_ms" + onHits},
	{"http.request_kb", "kB", "lower", "latency_p50_ms" + onHits},
	{"cache.memory_hits", "count", "higher", "latency_p50_ms@cache_hits"},
	{"cache.disk_hits", "count", "higher", "latency_p50_ms@cache_hits"},
	{"cache.misses", "count", "lower", "latency_p50_ms@cache_hits"},
	{"store.get_us_p50", "us", "lower", "latency_p50_ms@cache_hits"},
	{"store.put_ms_p50", "ms", "lower", "jobs_per_s" + onSynthesis},
	{"store.open_ms", "ms", "lower", "setup_s" + onEvery},
	{"store.manifest_kb", "kB", "lower", "jobs_per_s" + onSynthesis},
	{"subtree.get_us_p50", "us", "lower", "latency_p50_ms@eco_resubmit"},
	{"subtree.put_us_p50", "us", "lower", "jobs_per_s@synth_cold"},
	{"subtree.put_share", "ratio", "lower", "jobs_per_s@synth_cold"},
	{"codec.decode_us_p50", "us", "lower", "latency_p50_ms@eco_resubmit"},
	{"proc.cpu_s_per_job", "s", "lower", "jobs_per_s" + onEvery},
	{"proc.allocs_per_job", "count", "lower", "jobs_per_s" + onEvery},
	{"proc.alloc_mb_per_job", "MB", "lower", "jobs_per_s" + onEvery},
	{"proc.gc_cpu_share", "ratio", "lower", "jobs_per_s" + onEvery},
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is one workload run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  map[string]int
	metrics   []metric
}

// add records a metric; NaN (nothing to measure on this workload) is
// dropped.
func (rep *report) add(name string, value float64, unit string) {
	if !math.IsNaN(value) {
		rep.metrics = append(rep.metrics, metric{name, value, unit})
	}
}

func (rep *report) fail(reason string, n int) {
	if n <= 0 {
		return
	}
	rep.failed += n
	rep.failures[reason] += n
}

// get returns the named metric.
func (rep *report) get(name string) (float64, bool) {
	for _, m := range rep.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// writeText prints every metric as "workload metric value unit".
func (rep *report) writeText(w io.Writer) {
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", rep.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	reasons := make([]string, 0, len(rep.failures))
	for k := range rep.failures {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Fprintf(w, "%s failure %s %d\n", rep.workload, k, rep.failures[k])
	}
}

// metricJSON is one value of the JSON result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line a workload run prints.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result builds the JSON line over defs, or over every metric when defs is
// nil.  A contract metric the run could not measure is an error: the line
// must carry every name.
func (rep *report) result(defs []metricDef) (resultJSON, error) {
	out := resultJSON{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricJSON{}}
	if defs == nil {
		for _, m := range rep.metrics {
			out.Metrics[m.name] = metricJSON{m.value, m.unit}
		}
		return out, nil
	}
	for _, d := range defs {
		v, ok := rep.get(d.name)
		if !ok || math.IsInf(v, 0) {
			return out, fmt.Errorf("%s: metric %s was not measured", rep.workload, d.name)
		}
		out.Metrics[d.name] = metricJSON{v, d.unit}
	}
	return out, nil
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// endToEndMetrics computes the user-visible timings of the run over every
// done job, except a median the workload restricts to some classes.
func (r *runner) endToEndMetrics(rep *report) {
	var lat []float64
	byClass := map[string][]float64{}
	for _, ss := range r.samples {
		for _, s := range ss {
			rep.attempted++
			if s.failure != "" {
				rep.fail(s.failure, 1)
				continue
			}
			lat = append(lat, ms(s.end-s.start))
			byClass[s.class] = append(byClass[s.class], ms(s.end-s.start))
		}
	}
	p50Lat := lat
	if cs := r.opts.workload.p50Classes; cs != nil {
		p50Lat = nil
		for _, class := range cs {
			p50Lat = append(p50Lat, byClass[class]...)
		}
	}
	rep.add("jobs_per_s", float64(len(lat))/r.measured.Seconds(), "1/s")
	rep.add("latency_p50_ms", percentile(p50Lat, 50), "ms")
	rep.add("latency_p90_ms", percentile(lat, 90), "ms")
	rep.add("setup_s", median(r.setupS), "s")
	rep.add("peak_rss_mb", peakRSSMB(), "MB")

	// Context lines, not part of the JSON contract: the tail, the sample
	// counts behind the percentiles and the per-class medians of mixed
	// workloads.
	rep.add("latency_p99_ms", percentile(lat, 99), "ms")
	rep.add("samples", float64(len(lat)), "count")
	rep.add("p50_samples", float64(len(p50Lat)), "count")
	rep.add("measured_s", r.measured.Seconds(), "s")
	if len(byClass) > 1 {
		for _, class := range []string{classCold, classHit, classPeer} {
			rep.add(class+"_latency_p50_ms", percentile(byClass[class], 50), "ms")
		}
	}
}

// scorePanel serves the fixed quality panel through the workload's entry
// point after the windows and reports the trees' quality the way the ISPD
// 2009 contest scores it: skew, wire per sink and buffers per sink, each a
// mean over the panel.  Every panel result must pass the checks a window
// result passes.
func (r *runner) scorePanel(ctx context.Context, rep *report) error {
	r.panel = make([]*design, panelDesigns)
	for i := range r.panel {
		r.panel[i] = r.rig.fresh(jobSeed(panelSeed, -5, i), i)
	}
	if err := serveAll(ctx, r.rig.entry, r.panel); err != nil {
		return fmt.Errorf("serving the quality panel: %w", err)
	}
	var skew, wire, bufs []float64
	for _, d := range r.panel {
		sum, failure := checkResult(d.first, len(d.sinks))
		if failure != "" {
			rep.fail("panel-"+failure, 1)
			continue
		}
		skew = append(skew, sum.Timing.Skew)
		wire = append(wire, sum.Stats.Wire/float64(sum.Stats.Sinks))
		bufs = append(bufs, float64(sum.Stats.Buffers)/float64(sum.Stats.Sinks))
	}
	rep.add("skew_ps", mean(skew), "ps")
	rep.add("wire_um_per_sink", mean(wire), "um")
	rep.add("buffers_per_sink", mean(bufs), "count")
	rep.add("quality_designs", float64(len(skew)), "count")
	return nil
}

// served is every design the run has had served: each client's fresh
// designs and the cache_hits pool.
func (r *runner) served() []*design {
	var out []*design
	for _, c := range r.clients {
		out = append(out, c.own...)
	}
	return append(out, r.rig.pool...)
}

// sampleLayerMetrics computes the traced metrics that come straight from the
// window's samples: HTTP round trips, scheduler waits, engine stages and the
// unattributed residuals.
func (r *runner) sampleLayerMetrics(rep *report) {
	var post, postHit, postAccept, queue, run, jobResid, flowResid, reuse []float64
	var peerPost, localHitPost []float64 // cache hits served by a peer / by the entry's own tiers
	var jobs, levels, routed, pairs int
	stageMS := map[string]float64{}
	for _, ss := range r.samples {
		for _, s := range ss {
			if s.failure != "" {
				continue
			}
			post = append(post, ms(s.postEnd-s.start))
			switch {
			case s.class == classPeer:
				peerPost = append(peerPost, ms(s.postEnd-s.start))
			case s.cacheHit:
				localHitPost = append(localHitPost, ms(s.postEnd-s.start))
			}
			if s.cacheHit {
				postHit = append(postHit, ms(s.postEnd-s.start))
				continue
			}
			postAccept = append(postAccept, ms(s.postEnd-s.start))
			queue = append(queue, ms(s.started-s.created))
			run = append(run, ms(s.finished-s.started))
			spans := s.spans()
			jobResid = append(jobResid, selfTime(spans.job, []interval{spans.post, spans.queue, spans.run}).Seconds()*1e3)
			flowResid = append(flowResid, selfTime(spans.run, spans.stages).Seconds()*1e3)
			if s.reused+s.recomputed > 0 {
				reuse = append(reuse, float64(s.reused)/float64(s.reused+s.recomputed))
			}
			jobs++
			for _, st := range s.stages {
				stageMS[st.stage] += st.ms
				switch st.stage {
				case "topology":
					levels++
				case "mergeroute":
					pairs += st.pairs
					routed += st.pairs - st.reused
				}
			}
		}
	}
	rep.add("http.post_ms_p50", percentile(post, 50), "ms")
	rep.add("http.post_hit_ms_p50", percentile(postHit, 50), "ms")
	rep.add("http.post_accept_ms_p50", percentile(postAccept, 50), "ms")
	rep.add("sched.queue_wait_ms_p50", percentile(queue, 50), "ms")
	rep.add("sched.run_ms_p50", percentile(run, 50), "ms")
	rep.add("sched.run_ms_per_job", mean(run), "ms")
	rep.add("job.unattributed_ms_p50", percentile(jobResid, 50), "ms")
	if jobs == 0 {
		return
	}
	n := float64(jobs)
	rep.add("flow.unattributed_ms_p50", percentile(flowResid, 50), "ms")
	rep.add("flow.unattributed_ms_per_job", mean(flowResid), "ms")
	for _, stage := range []string{"topology", "mergeroute", "buffering", "timing"} {
		rep.add(stage+".ms_per_job", stageMS[stage]/n, "ms")
	}
	rep.add("topology.levels_per_job", float64(levels)/n, "count")
	rep.add("mergeroute.routed_per_job", float64(routed)/n, "count")
	rep.add("mergeroute.pairs_per_job", float64(pairs)/n, "count")
	if routed > 0 {
		rep.add("mergeroute.us_per_routed_merge", stageMS["mergeroute"]*1e3/float64(routed), "us")
	}
	rep.add("subtree.reuse_ratio", mean(reuse), "ratio")

	if r.rig.gateway != nil {
		var direct, stats, expo []float64
		for _, ps := range r.probes {
			for _, p := range ps {
				direct = append(direct, ms(p.end-p.start))
			}
		}
		for _, s := range r.scrapes {
			if s.path == "/metrics" {
				expo = append(expo, ms(s.end-s.start))
			} else {
				stats = append(stats, ms(s.end-s.start))
			}
		}
		base := percentile(direct, 50)
		rep.add("gateway.hop_ms_p50", percentile(localHitPost, 50)-base, "ms")
		rep.add("peer.hit_ms_p50", percentile(peerPost, 50)-base, "ms")
		rep.add("gateway.stats_ms_p50", percentile(stats, 50), "ms")
		rep.add("gateway.metrics_ms_p50", percentile(expo, 50), "ms")
	}
}

// jobSpans are one synthesized job's spans on the shared clock.
type jobSpans struct {
	job, post, queue, run interval
	stages                []interval
	stageNames            []string
}

// spans lays a sample's spans out: the job from submit to done, the POST
// round trip, the queue wait and run from the server's timestamps, and the
// stages back to back from the run's start in the order the events arrived
// (the SSE events carry durations, not start times).
func (s sample) spans() jobSpans {
	js := jobSpans{
		job:   interval{s.start, s.end},
		post:  interval{s.start, s.postEnd},
		queue: interval{s.created, s.started},
		run:   interval{s.started, s.finished},
	}
	at := s.started
	for _, st := range s.stages {
		d := int64(st.ms * 1e6)
		js.stages = append(js.stages, interval{at, at + d})
		js.stageNames = append(js.stageNames, st.stage)
		at += d
	}
	return js
}

// procStats are the process-wide counters the proc.* metrics difference.
type procStats struct {
	cpu                 time.Duration
	allocs, allocBytes  uint64
	gcCPU, availableCPU float64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return procStats{
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:       samples[0].Value.Uint64(),
		allocBytes:   samples[1].Value.Uint64(),
		gcCPU:        samples[2].Value.Float64(),
		availableCPU: samples[3].Value.Float64(),
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, NaN where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
