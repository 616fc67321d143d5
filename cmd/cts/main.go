// Command cts synthesizes a buffered clock tree for a benchmark (a named
// synthetic benchmark or a sink file) and reports the library-estimated and
// simulated worst slew, skew and latency.  It drives the repro/pkg/cts
// pipeline API; interrupting the process (Ctrl-C) cancels the run.
//
// Usage:
//
//	cts -bench r1                      # synthetic GSRC r1
//	cts -file mysinks.txt -slew 100    # sink-list or ISPD-style file
//	cts -bench f11 -correction full -deck tree.sp
//	cts -bench r2 -json                # machine-readable cts.Result JSON
//	cts -bench r3 -progress            # per-stage pipeline progress on stderr
//	cts -bench r3 -metrics             # per-stage counters/histograms on stderr
//	cts -bench r4 -parallelism 8       # bound the intra-run merge fan-out
//	cts -bench r5 -topology bipartition  # recursive-geometric pairing strategy
//	cts -bench r4 -routing hierarchical  # coarse-corridor merge routing
//	cts -bench r1 -server http://127.0.0.1:8155   # submit to a ctsd instance
//	cts -file eco.txt -base design.txt            # local ECO run against a base design
//	cts -bench r1 -server http://127.0.0.1:8155 -base job-ab12-3   # server-side ECO resubmission
//
// With -server the sink set is submitted to a running ctsd (see cmd/ctsd)
// instead of synthesized locally; progress events stream back over SSE when
// -progress is set, and the final JobStatus JSON (including the cts.Result
// and the cacheHit marker) is printed to stdout.
//
// On any failure — a missing or malformed input file included — cts exits
// non-zero after printing a one-line error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/clocktree"
	"repro/internal/spice"
	"repro/internal/tech"
	"repro/pkg/cts"
	"repro/pkg/ctsserver"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h/-help printed the usage; that is a successful exit.
			return
		}
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintln(os.Stderr, errorLine(err))
		}
		os.Exit(1)
	}
}

// errorLine is the line main prints for a failed run: the error with one
// "cts: " prefix, which pkg/cts errors already carry.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "cts: ") {
		msg = "cts: " + msg
	}
	return msg
}

// errFlagParse marks flag-parse failures the FlagSet has already reported
// to stderr (with usage), so main does not print them a second time.
var errFlagParse = errors.New("invalid flags")

// run is the whole command behind a testable seam: it parses args, executes,
// and returns an error instead of exiting, so failures surface as one-line
// messages (never a panic or a stack trace).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cts", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName  = fs.String("bench", "r1", "synthetic benchmark name (r1..r5, f11..fnb1)")
		file       = fs.String("file", "", "benchmark file (sink list or ISPD-style); overrides -bench")
		maxSinks   = fs.Int("max-sinks", 0, "truncate the benchmark to at most this many sinks (0 = all)")
		slewLimit  = fs.Float64("slew", 100, "slew limit in ps")
		correction = fs.String("correction", "none", "H-structure handling: none, reestimate, full")
		gridSize   = fs.Int("grid", 45, "initial routing grid resolution R")
		analytic   = fs.Bool("analytic", false, "use the closed-form library instead of characterizing")
		libPath    = fs.String("lib", "", "load a previously characterized library (JSON)")
		deck       = fs.String("deck", "", "write the synthesized tree as a SPICE-style deck to this file")
		noVerify   = fs.Bool("no-verify", false, "skip the transient verification")
		jsonOut    = fs.Bool("json", false, "print the cts.Result JSON instead of the human-readable report")
		progress   = fs.Bool("progress", false, "render pipeline progress to stderr (live status line on a terminal)")
		topo       = fs.String("topology", "greedy", "pairing strategy: greedy (indexed, the paper's matching) or bipartition")
		routing    = fs.String("routing", "flat", "merge-routing strategy: flat (full-resolution maze) or hierarchical (coarse corridor + refinement)")
		metrics    = fs.Bool("metrics", false, "print per-stage counters and elapsed histograms to stderr after the run")
		par        = fs.Int("parallelism", 0, "intra-run merge fan-out workers per level (0 = GOMAXPROCS, 1 = sequential)")
		serverURL  = fs.String("server", "", "submit to a ctsd instance at this base URL instead of synthesizing locally")
		priority   = fs.String("priority", "", "scheduling class for -server submissions: low, normal, high (empty = normal)")
		deadline   = fs.String("deadline", "", "RFC 3339 deadline for -server submissions; the job expires past it")
		base       = fs.String("base", "", "incremental (ECO) base: with -server a prior job id, locally a base benchmark file or synthetic name whose sub-trees seed the run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlagParse
	}

	var bm bench.Benchmark
	var err error
	if *file != "" {
		bm, err = bench.LoadFile(*file)
	} else {
		bm, err = bench.SyntheticScaled(*benchName, *maxSinks)
	}
	if err != nil {
		return err
	}
	// Reject bad sink sets (duplicate names, non-finite coordinates) here
	// with a precise message rather than as a mid-run synthesis failure.
	if err := cts.ValidateSinks(bm.Sinks); err != nil {
		return fmt.Errorf("%s: %w", bm.Name, err)
	}

	mode, err := cts.ParseCorrection(*correction)
	if err != nil {
		return fmt.Errorf("unknown correction mode %q (want none, reestimate, full)", *correction)
	}
	strategy, err := cts.ParseTopologyStrategy(*topo)
	if err != nil {
		return fmt.Errorf("unknown topology strategy %q (want greedy, bipartition)", *topo)
	}
	routeStrategy, err := cts.ParseRoutingStrategy(*routing)
	if err != nil {
		return fmt.Errorf("unknown routing strategy %q (want flat, hierarchical)", *routing)
	}

	if *serverURL != "" {
		// The synthesis runs remotely: deck writing needs the local tree,
		// and the library is the server's — flags that would silently
		// change nothing are rejected instead.
		if *deck != "" {
			return errors.New("-deck is not supported with -server (the tree stays on the server)")
		}
		if *libPath != "" || *analytic {
			return errors.New("-lib/-analytic are not supported with -server (the server chooses its library)")
		}
		if *metrics || *par != 0 {
			return errors.New("-metrics/-parallelism are not supported with -server (the server owns the run; use -progress for streamed events)")
		}
		prio, err := ctsserver.ParsePriority(*priority)
		if err != nil {
			return err
		}
		if *deadline != "" {
			if _, err := time.Parse(time.RFC3339, *deadline); err != nil {
				return fmt.Errorf("parsing -deadline (want RFC 3339, e.g. 2026-07-29T12:00:00Z): %w", err)
			}
		}
		settings := cts.Settings{
			SlewLimit:  *slewLimit,
			GridSize:   *gridSize,
			Correction: mode,
			Topology:   strategy,
			Routing:    routeStrategy,
		}
		return runRemote(ctx, *serverURL, bm, settings, remoteOptions{
			verify:   !*noVerify,
			progress: *progress,
			priority: prio,
			deadline: *deadline,
			baseJob:  *base,
		}, stdout, stderr)
	}
	if *priority != "" || *deadline != "" {
		return errors.New("-priority/-deadline only apply with -server (the local run has no scheduler)")
	}

	// Local -base: load the base design and resolve it the same way the main
	// input resolves (an existing file loads, anything else is a synthetic
	// benchmark name).
	var baseBM bench.Benchmark
	if *base != "" {
		if _, statErr := os.Stat(*base); statErr == nil {
			baseBM, err = bench.LoadFile(*base)
		} else {
			baseBM, err = bench.SyntheticScaled(*base, *maxSinks)
		}
		if err != nil {
			return fmt.Errorf("loading -base: %w", err)
		}
		if err := cts.ValidateSinks(baseBM.Sinks); err != nil {
			return fmt.Errorf("-base %s: %w", baseBM.Name, err)
		}
	}

	t := tech.Default()
	lib, err := charlib.Select(t, *analytic, *libPath)
	if err != nil {
		return err
	}

	opts := []cts.Option{
		cts.WithLibrary(lib),
		cts.WithSlewLimit(*slewLimit),
		cts.WithGrid(*gridSize),
		cts.WithCorrection(mode),
		cts.WithTopologyStrategy(strategy),
		cts.WithRoutingStrategy(routeStrategy),
		cts.WithParallelism(*par),
	}
	if !*noVerify {
		opts = append(opts, cts.WithVerification(spice.Options{TimeStep: 1}))
	}
	// -progress and -metrics both tap the observer stream; fan the events out
	// to whichever are enabled.
	var stats *cts.MetricsObserver
	var observers []cts.Observer
	if *progress {
		renderer := cts.NewProgressRenderer(stderr, isTerminal(stderr))
		observers = append(observers, renderer.Observe)
		if *metrics {
			// The renderer already aggregates every event; reuse its
			// metrics instead of folding the stream twice.
			stats = renderer.Metrics()
		}
	} else if *metrics {
		stats = cts.NewMetricsObserver()
		observers = append(observers, stats.Observe)
	}
	switch len(observers) {
	case 0:
	case 1:
		opts = append(opts, cts.WithObserver(observers[0]))
	default:
		opts = append(opts, cts.WithObserver(func(e cts.Event) {
			for _, o := range observers {
				o(e)
			}
		}))
	}
	if *base != "" {
		// The unbounded cache lives for exactly this process: base run warms
		// it, incremental run drains it.
		opts = append(opts, cts.WithSubtreeCache(cts.NewMemorySubtreeCache(0)))
	}
	flow, err := cts.New(t, opts...)
	if err != nil {
		return err
	}

	if !*jsonOut {
		fmt.Fprintf(stdout, "benchmark %s: %d sinks, die %.1f x %.1f mm\n",
			bm.Name, len(bm.Sinks), bm.Die.Width()/1000, bm.Die.Height()/1000)
	}

	var res *cts.Result
	if *base != "" {
		baseRes, berr := flow.Run(ctx, baseBM.Sinks)
		if berr != nil {
			return fmt.Errorf("-base %s: %w", baseBM.Name, berr)
		}
		res, err = flow.RunIncremental(ctx, baseRes, bm.Sinks)
	} else {
		res, err = flow.Run(ctx, bm.Sinks)
	}
	if stats != nil {
		fmt.Fprint(stderr, stats.Snapshot().Render())
	}
	if err != nil {
		return err
	}

	if *jsonOut {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		fmt.Fprintf(stdout, "synthesis: %d buffers (%v), %.2f mm wire, %d levels, %d flippings\n",
			res.Stats.Buffers, res.Stats.BuffersBySize, res.Stats.TotalWire/1000, res.Levels, res.Flippings)
		if inc := res.Incremental; inc != nil {
			fmt.Fprintf(stdout, "incremental: reused %d sub-trees, recomputed %d merges vs base %s",
				inc.ReusedSubtrees, inc.RecomputedMerges, baseBM.Name)
			if d := inc.Diff; d != nil {
				fmt.Fprintf(stdout, " (+%d -%d ~%d sinks)", d.Added, d.Removed, d.Moved)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "library timing: worst slew %.1f ps, skew %.1f ps, latency %.1f ps\n",
			res.Timing.WorstSlew, res.Timing.Skew, res.Timing.MaxLatency)
		if res.Verification != nil {
			fmt.Fprintf(stdout, "simulation:     worst slew %.1f ps, skew %.1f ps, latency %.1f ps (%d stages)\n",
				res.Verification.WorstSlew, res.Verification.Skew, res.Verification.MaxLatency, res.Verification.Stages)
		}
	}

	if *deck != "" {
		net, _, err := clocktree.BuildNetlist(res.Tree, 100)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*deck, []byte(net.SpiceDeck(bm.Name)), 0o644); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "wrote deck to %s\n", *deck)
		}
	}
	return nil
}

// remoteOptions carries the -server submission knobs.
type remoteOptions struct {
	verify   bool
	progress bool
	priority ctsserver.Priority
	deadline string
	baseJob  string
}

// runRemote submits the benchmark to a ctsd instance, streams its progress
// events and prints the final JobStatus JSON (cts.Result plus the cacheHit
// marker) to stdout.
func runRemote(ctx context.Context, url string, bm bench.Benchmark, settings cts.Settings, opts remoteOptions, stdout, stderr io.Writer) error {
	client := ctsserver.NewClient(url)
	st, err := client.Submit(ctx, ctsserver.JobRequest{
		Name:     bm.Name,
		Sinks:    ctsserver.SinksFromCTS(bm.Sinks),
		Settings: &settings,
		Verify:   opts.verify,
		Priority: opts.priority,
		Deadline: opts.deadline,
		BaseJob:  opts.baseJob,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "submitted %s (%d sinks) as %s: %s\n", bm.Name, len(bm.Sinks), st.ID, st.State)
	if !st.State.Terminal() {
		var onEvent func(cts.WireEvent)
		if opts.progress {
			onEvent = func(we cts.WireEvent) {
				switch we.Kind {
				case "level-done":
					fmt.Fprintf(stderr, "level %d: %d pairs, %d sub-trees remain (%.1f ms)\n",
						we.Level, we.Pairs, we.Subtrees, we.ElapsedMs)
				case "stage-end":
					if we.Level == 0 {
						fmt.Fprintf(stderr, "stage %s done (%.1f ms)\n", we.Stage, we.ElapsedMs)
					}
				}
			}
		}
		if st, err = client.Stream(ctx, st.ID, onEvent); err != nil {
			return err
		}
	}
	if st.State != ctsserver.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// isTerminal reports whether the writer is a character device, selecting
// the progress renderer's live status-line mode; injected non-file writers
// (tests, pipes) get plain log lines.
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
