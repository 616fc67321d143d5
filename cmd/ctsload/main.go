// Command ctsload is a sustained-load harness for ctsd: it drives a
// mixed-priority, mixed-size stream of synthesis jobs at a configurable rate
// for a configurable duration, scrapes GET /metrics before and after, and
// prints an SLO report — achieved throughput, p50/p99 queue-wait, run and
// end-to-end latency per priority, and the 429/expired rates.
//
// Usage:
//
//	ctsload -addr http://127.0.0.1:8155                 # 20 jobs/s for 10 s
//	ctsload -addr http://127.0.0.1:8155 -qps 50 -duration 30s
//	ctsload -addr ... -sinks-min 16 -sinks-max 256 -mix low:1,normal:3,high:1
//
// The workload is seeded (-seed) and every job's sink positions are drawn
// fresh, so repeated runs are reproducible while distinct jobs miss the
// result cache and exercise real synthesis; lower -qps or raise -duration to
// study steady state rather than queue buildup.
//
// The latency figures come from the server's own /metrics histograms
// (differenced across the run, so a long-lived daemon's history does not
// pollute the report); the percentile estimator is the same
// bucket-interpolation ctsd applies in /v1/stats, so the two views agree.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/pkg/ctsserver"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctsload: %v\n", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ctsload: %v\n", err)
		os.Exit(1)
	}
}

// config is the parsed command line; run takes it whole so tests can drive
// the harness without a process boundary.
type config struct {
	addr      string
	qps       float64
	duration  time.Duration
	sinksMin  int
	sinksMax  int
	mix       []weightedPriority
	seed      int64
	wait      time.Duration
	span      float64 // placement span in micrometres
	deadline  time.Duration
	reqTimout time.Duration
}

// weightedPriority is one entry of the priority mix.
type weightedPriority struct {
	p ctsserver.Priority
	w int
}

// parseMix parses "low:1,normal:3,high:1".
func parseMix(s string) ([]weightedPriority, error) {
	var out []weightedPriority
	for _, part := range strings.Split(s, ",") {
		name, weight, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("malformed -mix entry %q (want priority:weight)", part)
		}
		p, err := ctsserver.ParsePriority(name)
		if err != nil {
			return nil, err
		}
		w, err := strconv.Atoi(weight)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("malformed -mix weight %q", weight)
		}
		if w > 0 {
			out = append(out, weightedPriority{p: p, w: w})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-mix selects no priorities")
	}
	return out, nil
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("ctsload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8155", "ctsd base URL")
		qps      = fs.Float64("qps", 20, "target submissions per second")
		duration = fs.Duration("duration", 10*time.Second, "how long to generate load")
		sinksMin = fs.Int("sinks-min", 8, "minimum sinks per job")
		sinksMax = fs.Int("sinks-max", 64, "maximum sinks per job")
		mix      = fs.String("mix", "low:1,normal:3,high:1", "priority mix as priority:weight pairs")
		seed     = fs.Int64("seed", 1, "workload seed (same seed, same job stream)")
		wait     = fs.Duration("wait", 60*time.Second, "how long to wait for the queue to drain after the load stops")
		deadline = fs.Duration("deadline", 0, "per-job deadline from submission (0 = none; short deadlines provoke expiries)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	m, err := parseMix(*mix)
	if err != nil {
		return config{}, err
	}
	switch {
	case *qps <= 0:
		return config{}, fmt.Errorf("-qps must be positive")
	case *duration <= 0:
		return config{}, fmt.Errorf("-duration must be positive")
	case *sinksMin < 2 || *sinksMax < *sinksMin:
		return config{}, fmt.Errorf("want 2 <= -sinks-min <= -sinks-max")
	}
	return config{
		addr: strings.TrimRight(*addr, "/"), qps: *qps, duration: *duration,
		sinksMin: *sinksMin, sinksMax: *sinksMax, mix: m, seed: *seed,
		wait: *wait, span: 1000, deadline: *deadline, reqTimout: 30 * time.Second,
	}, nil
}

// counts tallies submission outcomes per priority.
type counts struct {
	mu       sync.Mutex
	accepted map[ctsserver.Priority]int // guarded by mu
	rejected int                        // guarded by mu; 429 queue-full
	failed   int                        // guarded by mu; any other non-2xx or transport error
}

// submit posts one job and tallies the outcome.
func submit(client *http.Client, cfg config, req ctsserver.JobRequest, c *counts) {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request is built from plain values; this cannot fail
	}
	resp, err := client.Post(cfg.addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		c.mu.Lock()
		c.failed++
		c.mu.Unlock()
		return
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		c.accepted[req.Priority]++
	case resp.StatusCode == http.StatusTooManyRequests:
		c.rejected++
	default:
		c.failed++
	}
}

// makeRequest draws one job from the seeded workload stream.
func makeRequest(rng *rand.Rand, cfg config, total int) ctsserver.JobRequest {
	n := cfg.sinksMin
	if cfg.sinksMax > cfg.sinksMin {
		n += rng.Intn(cfg.sinksMax - cfg.sinksMin + 1)
	}
	sinks := make([]ctsserver.Sink, n)
	for i := range sinks {
		sinks[i] = ctsserver.Sink{X: rng.Float64() * cfg.span, Y: rng.Float64() * cfg.span}
	}
	pick := rng.Intn(total)
	var priority ctsserver.Priority
	for _, wp := range cfg.mix {
		if pick < wp.w {
			priority = wp.p
			break
		}
		pick -= wp.w
	}
	req := ctsserver.JobRequest{Name: "ctsload", Sinks: sinks, Priority: priority}
	if cfg.deadline > 0 {
		req.Deadline = time.Now().Add(cfg.deadline).UTC().Format(time.RFC3339Nano)
	}
	return req
}

// scrape fetches and strictly parses GET /metrics.
func scrape(client *http.Client, addr string) (*obs.ParsedMetrics, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("invalid /metrics exposition: %w", err)
	}
	return m, nil
}

// drainQueue polls /metrics until no job is queued or running (or the wait
// budget runs out), so the report covers completed work.  A gateway's
// exposition sums both gauges over the members it reached.
func drainQueue(client *http.Client, cfg config) error {
	deadline := time.Now().Add(cfg.wait)
	for {
		m, err := scrape(client, cfg.addr)
		if err != nil {
			return err
		}
		running, ok := m.Value("ctsd_running_jobs", nil)
		depth, ok2 := m.Family("ctsd_queue_depth")
		if !ok || !ok2 {
			return fmt.Errorf("GET /metrics: no ctsd_running_jobs or ctsd_queue_depth series")
		}
		var queued float64
		for _, s := range depth.Samples {
			queued += s.Value
		}
		if queued == 0 && running == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("queue did not drain within %v (%.0f queued, %.0f running)",
				cfg.wait, queued, running)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// run generates the load and prints the report.
func run(cfg config, out io.Writer) error {
	client := &http.Client{Timeout: cfg.reqTimout}
	before, err := scrape(client, cfg.addr)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	total := 0
	for _, wp := range cfg.mix {
		total += wp.w
	}
	c := &counts{accepted: map[ctsserver.Priority]int{}}
	interval := time.Duration(float64(time.Second) / cfg.qps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.After(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
loop:
	for {
		select {
		case <-stop:
			break loop
		case <-ticker.C:
			// Requests are drawn on the generator goroutine (the rng is not
			// concurrency-safe) and posted off it, so a slow server does not
			// stall the arrival process.
			req := makeRequest(rng, cfg, total)
			wg.Add(1)
			go func() {
				defer wg.Done()
				submit(client, cfg, req, c)
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	if err := drainQueue(client, cfg); err != nil {
		fmt.Fprintf(out, "warning: %v\n", err)
	}
	after, err := scrape(client, cfg.addr)
	if err != nil {
		return err
	}
	report(out, cfg, c, elapsed, before, after)
	return nil
}
