// Command ctsd is the long-lived clock-tree-synthesis service: an HTTP JSON
// job API over repro/pkg/ctsserver with streaming progress events, a
// content-addressed result cache, Prometheus metrics on GET /metrics and
// per-job trace spans on GET /v1/jobs/{id}/trace.  See the package
// documentation of repro/pkg/ctsserver for the endpoint list.
//
// Usage:
//
//	ctsd                                  # listen on :8155, characterized library
//	ctsd -addr 127.0.0.1:0 -analytic      # random port, fast start
//	ctsd -workers 8 -queue 128 -cache-mb 256
//	ctsd -cache-dir /var/lib/ctsd -cache-disk-mb 4096  # cache survives restarts
//	ctsd -addr 127.0.0.1:0 -addr-file /tmp/ctsd.addr   # write the bound address
//	ctsd -log-level debug                 # per-request and per-job debug logs
//	ctsd -pprof-addr 127.0.0.1:6060       # opt-in net/http/pprof listener
//
// Cluster mode (see "Cluster mode" in the repro/pkg/ctsserver docs):
//
//	ctsd -addr :8156 -peers http://h2:8156,http://h3:8156   # member with peer cache reads
//	ctsd -gateway -addr :8155 -members http://h1:8156,http://h2:8156,http://h3:8156
//
// A member given -peers consults its siblings' caches on local misses before
// synthesizing.  A -gateway process runs no synthesis at all, so it loads no
// library (-analytic and -lib are member flags): it consistent-hashes each
// request's canonical key over -members, forwards the job API (SSE streams
// included), retries refused or dead members on the next ring replica, and
// aggregates /v1/stats and /metrics cluster-wide.
//
// With -cache-dir the result cache gains a disk tier: completed results are
// written through to the directory (one gzip file per canonical key)
// and read back on memory misses, so a restarted ctsd answers resubmissions
// of pre-restart jobs from disk without running synthesis.
//
// Logs are structured (log/slog): one line per HTTP request (debug level),
// per job admission and per terminal job transition, each carrying the job
// id, canonical key, state and durations.  -log-level selects the floor
// (debug, info, warn, error; default info).
//
// With -pprof-addr the standard net/http/pprof handlers are served on a
// separate listener, so profiling stays off the public API surface and is
// strictly opt-in.
//
// On SIGINT/SIGTERM the server drains gracefully: intake stops (new
// submissions answer 503, /healthz flips to 503) and every accepted job
// finishes before the process exits; jobs still running when -drain-timeout
// expires are canceled.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/charlib"
	"repro/internal/tech"
	"repro/pkg/ctsserver"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ctsd: %v\n", err)
		os.Exit(1)
	}
}

// parseLogLevel maps the -log-level flag onto a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error)", s)
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (the SSE endpoint requires it).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestLog wraps a handler with a one-line debug log per request.
func requestLog(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		log.Debug("request",
			"method", r.Method, "path", r.URL.Path, "status", rec.status,
			"elapsed", time.Since(start).Round(time.Microsecond))
	})
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// serve listens on addr, writes the bound address to addrFile when one is
// named, and serves handler until ctx is done.  Then it runs drain while the
// listener still answers, so clients can poll their jobs during a drain,
// and shuts down with a 5s grace window of its own for in-flight responses
// (drain may have spent its budget; canceled jobs' event streams end once
// their terminal events are written).
func serve(ctx context.Context, addr, addrFile string, handler http.Handler, log *slog.Logger, drain func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	log.Info("listening", "addr", bound)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	httpSrv := &http.Server{Handler: requestLog(log, handler)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Warn("shutdown closed lingering connections", "error", err)
	}
	return nil
}

// runGateway serves the cluster gateway: the same job API, consistent-hashed
// over the member set, with aggregated /v1/stats and /metrics.
func runGateway(addr, addrFile, members string, log *slog.Logger) error {
	list := splitList(members)
	if len(list) == 0 {
		return fmt.Errorf("-gateway requires -members (comma-separated member base URLs)")
	}
	gw, err := ctsserver.NewGateway(ctsserver.GatewayOptions{Members: list, Logger: log})
	if err != nil {
		return err
	}
	defer gw.Close()
	log.Info("gateway mode", "members", len(list))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, addr, addrFile, gw, log, func() { log.Info("signal received, shutting gateway down") })
}

func run() error {
	var (
		addr         = flag.String("addr", ":8155", "listen address (host:port; port 0 picks a free one)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening")
		workers      = flag.Int("workers", 0, "concurrently running jobs (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "queued-job bound; submissions beyond it answer 429")
		cacheMB      = flag.Int64("cache-mb", 64, "memory result-cache budget in MiB (0 disables the memory tier)")
		cacheDir     = flag.String("cache-dir", "", "directory for the persistent result-cache tier (empty = memory only)")
		cacheDiskMB  = flag.Int64("cache-disk-mb", 1024, "disk cache budget in MiB (0 = unbounded); needs -cache-dir")
		subtreeMB    = flag.Int64("subtree-cache-mb", 64, "subtree cache budget in MiB for incremental (baseJob) runs (0 disables incremental synthesis)")
		subtreeDisk  = flag.Int64("subtree-cache-disk-mb", 1024, "subtree disk tier budget in MiB (0 = unbounded); needs -cache-dir")
		par          = flag.Int("parallelism", 0, "intra-run merge fan-out per job (0 = GOMAXPROCS)")
		maxSinks     = flag.Int("max-sinks", 0, "per-request sink limit (0 = unlimited)")
		retention    = flag.Int("retention", 4096, "terminal jobs kept addressable for status/replay")
		analytic     = flag.Bool("analytic", false, "member: use the closed-form library instead of characterizing")
		libPath      = flag.String("lib", "", "member: load a previously characterized library (JSON)")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "how long a drain waits before canceling jobs")
		logLevel     = flag.String("log-level", "info", "log floor: debug, info, warn, error")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		gateway      = flag.Bool("gateway", false, "run as a cluster gateway: route jobs over -members instead of synthesizing")
		members      = flag.String("members", "", "comma-separated member base URLs the gateway routes over (requires -gateway)")
		peers        = flag.String("peers", "", "comma-separated sibling ctsd base URLs consulted on cache misses (cluster member mode)")
	)
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *gateway {
		return runGateway(*addr, *addrFile, *members, log)
	}
	if *members != "" {
		return fmt.Errorf("-members requires -gateway (members run with -peers)")
	}
	t := tech.Default()
	lib, err := charlib.Select(t, *analytic, *libPath)
	if err != nil {
		return err
	}

	cacheBytes := *cacheMB << 20
	if *cacheMB == 0 {
		cacheBytes = -1 // disabled
	}
	cacheDiskBytes := *cacheDiskMB << 20
	if *cacheDiskMB == 0 {
		cacheDiskBytes = -1 // unbounded
	}
	subtreeBytes := *subtreeMB << 20
	if *subtreeMB == 0 {
		subtreeBytes = -1 // disabled
	}
	subtreeDiskBytes := *subtreeDisk << 20
	if *subtreeDisk == 0 {
		subtreeDiskBytes = -1 // unbounded
	}
	srv, err := ctsserver.New(ctsserver.Options{
		Tech:                  t,
		Library:               lib,
		Workers:               *workers,
		QueueDepth:            *queue,
		CacheBytes:            cacheBytes,
		CacheDir:              *cacheDir,
		CacheDiskBytes:        cacheDiskBytes,
		SubtreeCacheBytes:     subtreeBytes,
		SubtreeCacheDiskBytes: subtreeDiskBytes,
		Parallelism:           *par,
		MaxSinks:              *maxSinks,
		JobRetention:          *retention,
		Peers:                 splitList(*peers),
		Logger:                log,
	})
	if err != nil {
		return err
	}
	if len(splitList(*peers)) > 0 {
		log.Info("cluster member mode", "peers", *peers)
	}
	if *cacheDir != "" {
		log.Info("persistent result cache enabled", "dir", *cacheDir)
	}

	if *pprofAddr != "" {
		// pprof gets its own mux and listener: profiling endpoints never
		// leak onto the public API address.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("listening for pprof: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Info("pprof listening", "addr", pln.Addr().String())
		go func() {
			if err := http.Serve(pln, pmux); err != nil {
				log.Warn("pprof server exited", "error", err)
			}
		}()
	}

	drain := func() {
		log.Info("signal received, draining", "timeout", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(drainCtx); err != nil {
			log.Warn("drain canceled remaining jobs", "error", err)
		}
	}
	// The signal context starts here, after the library is ready: nothing
	// before this point polls a context, so until now a signal keeps its
	// default action and ends a long characterization at once.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, *addr, *addrFile, srv, log, drain); err != nil {
		return err
	}
	log.Info("drained, exiting")
	return nil
}
