package cts

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// EventKind classifies the progress events a Flow emits.
type EventKind int

const (
	// EventFlowStart opens a run; Sinks carries the sink count.
	EventFlowStart EventKind = iota
	// EventStageStart opens a pipeline stage.  The topology and merge-route
	// stages run once per level (with Level set); the buffering, timing and
	// verify stages run once per flow.
	EventStageStart
	// EventStageEnd closes the matching EventStageStart; Elapsed carries the
	// stage duration.
	EventStageEnd
	// EventLevelDone closes one level of the synthesis loop; Subtrees, Pairs
	// and Flips carry the per-level counts.
	EventLevelDone
	// EventFlowEnd closes the run; Err is non-nil when the run failed.
	EventFlowEnd
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventFlowStart:
		return "flow-start"
	case EventStageStart:
		return "stage-start"
	case EventStageEnd:
		return "stage-end"
	case EventLevelDone:
		return "level-done"
	case EventFlowEnd:
		return "flow-end"
	default:
		return "event(?)"
	}
}

// Stage names used by the default flow, in execution order.
const (
	StageTopology   = "topology"
	StageMergeRoute = "mergeroute"
	StageBuffering  = "buffering"
	StageTiming     = "timing"
	StageVerify     = "verify"
)

// Event is one structured progress report.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Item names the batch item during RunBatch; empty for single runs.
	Item string
	// Stage is the stage name for stage events.
	Stage string
	// Level is the topology level for per-level stage and level-done events
	// (first merged level is 1).
	Level int
	// Sinks is the sink count (EventFlowStart).
	Sinks int
	// Subtrees is the number of sub-trees remaining after the level
	// (EventLevelDone).
	Subtrees int
	// Pairs is the number of pairs merged at the level (EventLevelDone).
	Pairs int
	// Flips is the number of H-structure flippings at the level
	// (EventLevelDone).
	Flips int
	// Reused is the number of the level's merges served from the subtree
	// cache instead of being routed (merge-route EventStageEnd and
	// EventLevelDone; always zero without a subtree cache).
	Reused int
	// Elapsed is the duration of the closed span (stage end, level done,
	// flow end).
	Elapsed time.Duration
	// Err is the run error (EventFlowEnd only).
	Err error
}

// Observer receives progress events.  It is called synchronously from the
// running flow, so it must be fast.  The Flow serializes emission behind a
// mutex: even when events originate from RunBatch workers or from the
// intra-run level scheduler (WithParallelism), the observer is invoked by one
// goroutine at a time and per-level event ordering stays valid.
type Observer func(Event)

// emit invokes the observer, if one is installed, under the emission mutex.
func (f *Flow) emit(e Event) {
	if f.cfg.observer == nil {
		return
	}
	f.emitMu.Lock()
	defer f.emitMu.Unlock()
	f.cfg.observer(e)
}

// HistogramBounds returns the upper bounds of the StageMetrics elapsed
// histogram, obs.LatencyBuckets as durations; Buckets[i] counts durations <=
// bounds[i], and the final bucket (len(bounds)) counts everything longer.
func HistogramBounds() []time.Duration {
	out := make([]time.Duration, len(obs.LatencyBuckets))
	for i, b := range obs.LatencyBuckets {
		out[i] = time.Duration(math.Round(b * float64(time.Second)))
	}
	return out
}

// StageMetrics aggregates the closed spans of one stage.
type StageMetrics struct {
	// Count is the number of completed stage executions.
	Count int
	// Total is the summed elapsed time.
	Total time.Duration
	// Buckets is the elapsed histogram over HistogramBounds (the last entry
	// is the overflow bucket): the grid ctsd exposes as ctsd_stage_seconds.
	Buckets []int
}

// Mean returns the mean elapsed time, or zero before the first execution.
func (s StageMetrics) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Quantile estimates the q-quantile of the elapsed times from the buckets,
// with the interpolation every histogram reader in internal/obs shares (a
// rank in the overflow bucket reports the last bound).
func (s StageMetrics) Quantile(q float64) time.Duration {
	counts := make([]uint64, len(s.Buckets))
	for i, n := range s.Buckets {
		counts[i] = uint64(n)
	}
	sec := obs.HistogramSnapshot{Bounds: obs.LatencyBuckets, Counts: counts}.Quantile(q)
	return time.Duration(math.Round(sec * float64(time.Second)))
}

// observe buckets d exactly as an obs.Histogram over obs.LatencyBuckets
// would bucket d.Seconds().
func (s *StageMetrics) observe(d time.Duration) {
	if s.Buckets == nil {
		s.Buckets = make([]int, len(obs.LatencyBuckets)+1)
	}
	s.Count++
	s.Total += d
	sec := d.Seconds()
	i := 0
	for i < len(obs.LatencyBuckets) && sec > obs.LatencyBuckets[i] {
		i++
	}
	s.Buckets[i]++
}

// MetricsSnapshot is a point-in-time copy of a MetricsObserver's aggregates.
type MetricsSnapshot struct {
	// FlowsStarted and FlowsDone count run starts and completions;
	// FlowsFailed counts the completions that carried an error.
	FlowsStarted, FlowsDone, FlowsFailed int
	// Levels, Pairs and Flips accumulate the per-level counters across runs.
	Levels, Pairs, Flips int
	// Reused accumulates the merges served from the subtree cache.
	Reused int
	// Stages maps stage name (StageTopology, ...) to its aggregates.  The
	// per-level stages count one execution per level, the whole-flow stages
	// one per run.
	Stages map[string]StageMetrics
}

// MetricsObserver aggregates flow events into per-stage counters and elapsed
// histograms.  Install its Observe method on a flow:
//
//	m := cts.NewMetricsObserver()
//	flow, _ := cts.New(t, cts.WithObserver(m.Observe))
//	...
//	fmt.Print(m.Snapshot().Render())
//
// The observer is safe for concurrent use and may outlive any number of runs
// and flows; Snapshot can be taken while runs are in flight (a metrics sink
// scraping a long-lived service, for example).
type MetricsObserver struct {
	mu   sync.Mutex
	snap MetricsSnapshot
}

// NewMetricsObserver returns an empty metrics aggregator.
func NewMetricsObserver() *MetricsObserver {
	return &MetricsObserver{snap: MetricsSnapshot{Stages: map[string]StageMetrics{}}}
}

// Observe folds one event into the aggregates; it is an Observer.
func (m *MetricsObserver) Observe(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch e.Kind {
	case EventFlowStart:
		m.snap.FlowsStarted++
	case EventFlowEnd:
		m.snap.FlowsDone++
		if e.Err != nil {
			m.snap.FlowsFailed++
		}
	case EventLevelDone:
		m.snap.Levels++
		m.snap.Pairs += e.Pairs
		m.snap.Flips += e.Flips
		m.snap.Reused += e.Reused
	case EventStageEnd:
		sm := m.snap.Stages[e.Stage]
		sm.observe(e.Elapsed)
		m.snap.Stages[e.Stage] = sm
	}
}

// Snapshot returns a deep copy of the current aggregates.
func (m *MetricsObserver) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.snap
	out.Stages = make(map[string]StageMetrics, len(m.snap.Stages))
	for k, v := range m.snap.Stages {
		out.Stages[k] = StageMetrics{v.Count, v.Total, slices.Clone(v.Buckets)}
	}
	return out
}

// Render produces a compact text report of the snapshot: the flow and level
// counters, then one line per stage with count, total/mean and the p50/p99
// estimates, and its non-empty histogram buckets.
func (s MetricsSnapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flows: %d started, %d done, %d failed; levels %d, pairs %d, flips %d, reused %d\n",
		s.FlowsStarted, s.FlowsDone, s.FlowsFailed, s.Levels, s.Pairs, s.Flips, s.Reused)
	names := make([]string, 0, len(s.Stages))
	//ctslint:allow determinism -- collect-then-sort: keys are sorted immediately below, so the range order cannot escape
	for name := range s.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	bounds := HistogramBounds()
	for _, name := range names {
		sm := s.Stages[name]
		fmt.Fprintf(&b, "%-11s n=%-5d total=%-10v mean=%-9v p50=%-9v p99=%v\n",
			name, sm.Count, sm.Total.Round(time.Microsecond), sm.Mean().Round(time.Microsecond),
			sm.Quantile(0.50).Round(time.Microsecond), sm.Quantile(0.99).Round(time.Microsecond))
		var hist []string
		for i, n := range sm.Buckets {
			if n == 0 {
				continue
			}
			if i < len(bounds) {
				hist = append(hist, fmt.Sprintf("<=%v: %d", bounds[i], n))
			} else {
				hist = append(hist, fmt.Sprintf(">%v: %d", bounds[len(bounds)-1], n))
			}
		}
		if len(hist) > 0 {
			fmt.Fprintf(&b, "            histogram %s\n", strings.Join(hist, ", "))
		}
	}
	return b.String()
}
