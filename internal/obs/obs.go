// Package obs is the dependency-free observability toolkit behind ctsd's
// GET /metrics endpoint and per-job traces: counters and gauges read at
// scrape time, fixed-bucket histograms over lock-cheap atomics, percentile
// estimation from histogram buckets, Prometheus text-format exposition (and
// a matching parser, used by the exposition tests and the cmd/ctsload
// report), and SpanJSON, the wire form of a trace span.  It records no
// spans: ctsd renders a job's trace from the job's own event log.
//
// The package is deliberately stdlib-only.  A counter or gauge series is a
// Func: the registry calls it at scrape time to read state its owner
// already keeps (an atomic total, a queue length), so the registry holds no
// second copy that could disagree.  Histograms are the only series the
// registry owns; an observation costs a few atomic operations and never
// blocks a scrape, and scrapes read whatever instant the atomics hold.
//
// A Registry owns metric families in registration order:
//
//	reg := obs.NewRegistry()
//	reg.NewCounter("jobs_submitted_total", "Jobs admitted.").
//	        Func(func() float64 { return float64(submitted.Load()) })
//	wait := reg.NewHistogram("queue_wait_seconds", "Queue wait.",
//	        obs.LatencyBuckets, "priority")
//	...
//	wait.With("high").Observe(0.004)
//	reg.WritePrometheus(w)
//
// Gather snapshots a registry into the ParsedMetrics form that ParseText and
// MergeParsed produce, so one writer (WriteText) and one reader serve all
// three.
//
// Time-stamped data (uptime, latency observations) makes this package
// inherently non-deterministic; it must never feed synthesis results.  See
// the determinism-scope note in internal/analysis/determinism/scope.go.
package obs

import (
	"fmt"
	"math"
	"sync"
)

// Kind classifies a metric family for the TYPE line of the exposition.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution with sum and count.
	KindHistogram
)

// String returns the Prometheus TYPE token.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one label-value combination of a family.  read (counters and
// gauges) or readHist (histograms) yields its value at scrape time: the
// caller's function for a Func, a snapshot of hist for an owned histogram.
type series struct {
	labelValues []string
	hist        *Histogram // owned histogram series (nil for a Func)
	read        func() float64
	readHist    func() HistogramSnapshot
}

// Family is one named metric family: a HELP string, a TYPE, a label schema
// and the series instantiated under it, in first-use order.
type Family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram bucket upper bounds; nil otherwise

	mu     sync.Mutex
	series []*series          // guarded by mu; exposition order
	byKey  map[string]*series // guarded by mu
}

// seriesFor returns the series for the label values, creating an owned
// histogram on first use; given a Func series (fn, carrying read or
// readHist) it binds that instead, panicking if the values are already
// bound.  Callers must pass exactly len(f.labels) values.
func (f *Family) seriesFor(values []string, fn *series) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		if fn != nil {
			panic(fmt.Sprintf("obs: %s%v registered twice", f.name, values))
		}
		return s
	}
	s := fn
	if s == nil {
		s = &series{hist: newHistogram(f.bounds)}
		s.readHist = s.hist.Snapshot
	}
	s.labelValues = append([]string(nil), values...)
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s
}

// snapshot returns the series slice under the lock (the slice is
// append-only, and each series' value is read atomically later).
func (f *Family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*series, len(f.series))
	copy(out, f.series)
	return out
}

// labelKey builds the map key for a label-value tuple.  Values are
// length-prefixed so ("ab","c") and ("a","bc") cannot alias.
func labelKey(values []string) string {
	if len(values) == 0 {
		return ""
	}
	n := 0
	for _, v := range values {
		n += len(v) + 4
	}
	b := make([]byte, 0, n)
	for _, v := range values {
		b = append(b, byte(len(v)>>16), byte(len(v)>>8), byte(len(v)))
		b = append(b, v...)
	}
	return string(b)
}

// CounterVec is a counter family handle; Func binds one series.
type CounterVec struct{ f *Family }

// Func registers a read-at-scrape counter series: the exposed value is fn()
// at scrape time.  fn must be monotone for the series to honor counter
// semantics (wrapping an existing atomic total qualifies).
func (v CounterVec) Func(fn func() float64, values ...string) {
	v.f.seriesFor(values, &series{read: fn})
}

// GaugeVec is a gauge family handle; Func binds one series.
type GaugeVec struct{ f *Family }

// Func registers a read-at-scrape gauge series.
func (v GaugeVec) Func(fn func() float64, values ...string) { v.f.seriesFor(values, &series{read: fn}) }

// HistogramVec is a histogram family handle; With instantiates one series.
type HistogramVec struct{ f *Family }

// With returns the histogram for the label values (creating it on first
// use).
func (v HistogramVec) With(values ...string) *Histogram {
	return v.f.seriesFor(values, nil).hist
}

// Func registers a read-at-scrape histogram series: the exposed buckets,
// sum and count are fn()'s at scrape time.  fn must report on the family's
// bounds, and its counts must never decrease (a histogram kept elsewhere
// qualifies).
func (v HistogramVec) Func(fn func() HistogramSnapshot, values ...string) {
	v.f.seriesFor(values, &series{readHist: fn})
}

// Registry owns metric families and renders them in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*Family          // guarded by mu; exposition order
	byName   map[string]*Family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*Family{}}
}

// register adds a family, panicking on a duplicate or invalid name
// (registration happens at construction time, so both are programmer
// errors worth failing loudly on).
func (r *Registry) register(f *Family) *Family {
	if !validMetricName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[f.name]; ok {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	f.byKey = map[string]*series{}
	r.families = append(r.families, f)
	r.byName[f.name] = f
	return f
}

// NewCounter registers a counter family with the label schema and returns
// its handle.  With no labels, Func(fn) binds the single series.
func (r *Registry) NewCounter(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(&Family{name: name, help: help, kind: KindCounter, labels: labels})}
}

// NewGauge registers a gauge family with the label schema.
func (r *Registry) NewGauge(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(&Family{name: name, help: help, kind: KindGauge, labels: labels})}
}

// NewHistogram registers a histogram family over the bucket upper bounds
// (strictly increasing, finite; the terminal +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) HistogramVec {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i, b := range buckets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram %q bound %d is not finite", name, i))
		}
		if i > 0 && b <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing at %d", name, i))
		}
	}
	bounds := append([]float64(nil), buckets...)
	return HistogramVec{r.register(&Family{name: name, help: help, kind: KindHistogram, labels: labels, bounds: bounds})}
}

// snapshotFamilies returns the family slice under the lock.
func (r *Registry) snapshotFamilies() []*Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Family, len(r.families))
	copy(out, r.families)
	return out
}

// validMetricName checks [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName checks [a-zA-Z_][a-zA-Z0-9_]* and reserves the histogram
// "le" label.
func validLabelName(s string) bool {
	if s == "" || s == "le" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
