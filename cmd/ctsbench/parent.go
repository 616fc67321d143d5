package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// epochLength is the all-workload mode's time slice.
const epochLength = 5 * time.Second

// setJSON is one set of the all-workload mode: every workload once.
type setJSON struct {
	Seed      int64                 `json:"seed"`
	Trace     bool                  `json:"trace"`
	HostRefMs []float64             `json:"hostRefMs"`
	Workloads map[string]resultJSON `json:"workloads"`
}

// spreadJSON is one metric's run-to-run spread over a file's untraced sets.
type spreadJSON struct {
	Median float64 `json:"median"`
	Spread float64 `json:"spread"`
	Runs   int     `json:"runs"`
}

// fileJSON is what -out writes and compare reads.
type fileJSON struct {
	Command string                           `json:"command"`
	Host    string                           `json:"host"`
	Sets    []setJSON                        `json:"sets"`
	Spread  map[string]map[string]spreadJSON `json:"spread,omitempty"`
}

// runAll is the all-workload mode: cfg.runs untraced sets, each running
// every workload in its own child process, interleaved in epochs; with
// -trace 1 one traced set of the same seed follows, and its latency median
// minus the untraced sets' median is reported as the tracing overhead.
func runAll(ctx context.Context, cfg config, stdout io.Writer) error {
	out := fileJSON{Command: "ctsbench " + strings.Join(os.Args[1:], " "), Host: hostLine(os.TempDir())}
	fmt.Fprintln(stdout, out.Host)
	for i := 0; i < cfg.runs; i++ {
		set, err := runSet(ctx, cfg, false, stdout)
		if err != nil {
			return err
		}
		out.Sets = append(out.Sets, set)
	}
	if cfg.trace {
		traced, err := runSet(ctx, cfg, true, stdout)
		if err != nil {
			return err
		}
		untraced := values(out.Sets, false)
		out.Sets = append(out.Sets, traced)
		for _, w := range workloads {
			overhead := traced.Workloads[w.name].Metrics["latency_p50_ms"].Value - median(untraced[w.name]["latency_p50_ms"])
			fmt.Fprintf(stdout, "%s trace.overhead_latency_p50_ms %g ms\n", w.name, overhead)
		}
	}
	out.Spread = spreads(out.Sets)
	failed := 0
	for _, s := range out.Sets {
		for _, res := range s.Workloads {
			failed += res.Failed
		}
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests or checks failed", failed)
	}
	return nil
}

// spreads summarizes every metric over the untraced sets: median and the
// quartile spread as a share of it.
func spreads(sets []setJSON) map[string]map[string]spreadJSON {
	out := map[string]map[string]spreadJSON{}
	for w, byName := range values(sets, false) {
		out[w] = map[string]spreadJSON{}
		for name, vs := range byName {
			out[w][name] = spreadJSON{Median: median(vs), Spread: quartileSpread(vs), Runs: len(vs)}
		}
	}
	return out
}

// child is one workload's process in a set.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	lines *bufio.Scanner
}

// runSet runs every workload once: the children set up one after another
// (so no set-up shares the CPU), then the parent hands out epochs in the
// epochSchedule order, timing the host between epochs while every child is
// idle.
func runSet(ctx context.Context, cfg config, trace bool, stdout io.Writer) (setJSON, error) {
	set := setJSON{Seed: cfg.seed, Trace: trace, Workloads: map[string]resultJSON{}}
	self, err := os.Executable()
	if err != nil {
		return set, err
	}
	children := make([]*child, len(workloads))
	defer func() {
		for _, c := range children {
			if c != nil {
				c.in.Close()
				_ = c.cmd.Wait() // its result, if any, was read; a failed child was reported
			}
		}
	}()
	targets := make([]time.Duration, len(workloads))
	for i, w := range workloads {
		targets[i] = windowLength(cfg, w)
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10), "-epochs",
			"-trace-file", traceFileFor(cfg.traceFile, w.name)}
		if trace {
			args = append(args, "-trace", "1")
		}
		c := &child{cmd: exec.CommandContext(ctx, self, args...)}
		c.cmd.Stderr = os.Stderr
		if c.in, err = c.cmd.StdinPipe(); err != nil {
			return set, err
		}
		out, err := c.cmd.StdoutPipe()
		if err != nil {
			return set, err
		}
		c.lines = bufio.NewScanner(out)
		c.lines.Buffer(nil, 1<<20)
		if err := c.cmd.Start(); err != nil {
			return set, err
		}
		children[i] = c
		if err := c.expect(readyLine); err != nil {
			return set, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	for _, e := range epochSchedule(targets, epochLength) {
		c := children[e.workload]
		if _, err := fmt.Fprintf(c.in, "window %d\n", e.length.Nanoseconds()); err != nil {
			return set, err
		}
		if err := c.expect(doneLine); err != nil {
			return set, fmt.Errorf("%s: %w", workloads[e.workload].name, err)
		}
		ref := hostRef(ctx)
		set.HostRefMs = append(set.HostRefMs, ref)
		fmt.Fprintf(stdout, "# host_ref_ms %.1f after %s\n", ref, workloads[e.workload].name)
	}
	for i, c := range children {
		if _, err := fmt.Fprintln(c.in, "end"); err != nil {
			return set, err
		}
		var last string
		for c.lines.Scan() {
			if last != "" {
				fmt.Fprintln(stdout, last)
			}
			last = c.lines.Text()
		}
		var res resultJSON
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return set, fmt.Errorf("%s: no result line (%q)", workloads[i].name, last)
		}
		set.Workloads[workloads[i].name] = res
	}
	return set, nil
}

// expect reads the child's next line and requires it to be want.
func (c *child) expect(want string) error {
	if !c.lines.Scan() {
		return fmt.Errorf("child exited before %s", want)
	}
	if got := c.lines.Text(); got != want {
		return fmt.Errorf("child said %q, want %s", got, want)
	}
	return nil
}
