package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/tech"
	"repro/pkg/cts"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareMain(os.Args[2:], os.Stdout)
	} else {
		err = run(ctx, os.Args[1:], os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctsbench: %v\n", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	traceFile string
	epochs    bool
	runs      int
	out       string
}

func parseFlags(args []string) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("ctsbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "run only this workload, in this process, and end with its JSON result line")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed sends the same designs")
	fs.Float64Var(&c.seconds, "seconds", 0, "measured seconds per workload (0: each workload's own, see doc.go)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant: per-layer metrics and a span file")
	fs.StringVar(&c.traceFile, "trace-file", "ctsbench-trace.json", "span file of a traced run (the all-workload mode writes one per workload, with its name inserted)")
	fs.BoolVar(&c.epochs, "epochs", false, "internal: take measured windows from stdin (the all-workload mode's children)")
	fs.IntVar(&c.runs, "runs", 1, "all-workload mode: back-to-back sets to run")
	fs.StringVar(&c.out, "out", "", "all-workload mode: write every set's results to this JSON file")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("-trace takes 0 or 1, not %d", trace)
	}
	c.trace = trace == 1
	if c.seconds < 0 || c.runs < 1 {
		return c, errors.New("-seconds must be >= 0 and -runs >= 1")
	}
	return c, nil
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if cfg.workload == "" {
		return runAll(ctx, cfg, stdout)
	}
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "ctsbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var next func() (time.Duration, bool)
	if cfg.epochs {
		next = epochsFrom(stdin, stdout)
	} else {
		fmt.Fprintln(stdout, hostLine(dir))
		once := true
		d := windowLength(cfg, w)
		next = func() (time.Duration, bool) {
			ok := once
			once = false
			return d, ok
		}
	}
	o := options{workload: w, seed: cfg.seed, trace: cfg.trace, dir: dir}
	rep, err := measure(ctx, o, next, cfg.traceFile)
	if err != nil {
		return err
	}
	if !cfg.epochs {
		fmt.Fprintf(stdout, "# host_ref_ms %.1f\n", hostRef(ctx))
	}
	rep.writeText(stdout)
	defs := endToEnd
	switch {
	case cfg.epochs:
		defs = nil // the parent wants everything
	case cfg.trace:
		defs = perLayer
	}
	res, err := rep.result(defs)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 {
		return fmt.Errorf("%s: %d of %d requests or checks failed", w.name, rep.failed, rep.attempted)
	}
	return nil
}

// windowLength is a workload's measured time under cfg.
func windowLength(cfg config, w *workload) time.Duration {
	if cfg.seconds > 0 {
		return time.Duration(cfg.seconds * float64(time.Second))
	}
	return time.Duration(w.seconds) * time.Second
}

// Child protocol of the all-workload mode, one line each way: the child
// prints readyLine once set up; the parent sends "window <ns>" for each
// epoch and the child answers doneLine after it; "end" (or EOF) ends the
// windows.
const (
	readyLine = "@ready"
	doneLine  = "@window-done"
)

// epochsFrom reads window commands from r, acknowledging each on w.
func epochsFrom(r io.Reader, w io.Writer) func() (time.Duration, bool) {
	sc := bufio.NewScanner(r)
	first := true
	return func() (time.Duration, bool) {
		if first {
			fmt.Fprintln(w, readyLine)
			first = false
		} else {
			fmt.Fprintln(w, doneLine)
		}
		if !sc.Scan() {
			return 0, false
		}
		ns, ok := strings.CutPrefix(sc.Text(), "window ")
		if !ok {
			return 0, false
		}
		d, err := strconv.ParseInt(ns, 10, 64)
		if err != nil || d <= 0 {
			return 0, false
		}
		return time.Duration(d), true
	}
}

// hostRef is a fixed single-threaded 256-sink synthesis in milliseconds:
// context for reading a set of numbers (a slow host shows here), never a
// gated metric.
func hostRef(ctx context.Context) float64 {
	flow, err := cts.New(tech.Default(), cts.WithParallelism(1))
	if err != nil {
		return 0
	}
	sinks := synthetic(256).Sinks
	t := time.Now()
	if _, err := flow.Run(ctx, sinks); err != nil {
		return 0
	}
	return ms(time.Since(t).Nanoseconds())
}

// hostLine describes the machine a set ran on.
func hostLine(dir string) string {
	return fmt.Sprintf("# host nproc=%d gomaxprocs=%d go=%s cpu=%q cache_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fsType(dir))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// traceFileFor inserts the workload name into the span file name.
func traceFileFor(path, workload string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + workload + ext
}
