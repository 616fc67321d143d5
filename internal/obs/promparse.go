package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the counterpart of expo.go: a strict parser for the
// Prometheus text format the registry writes.  It exists for two consumers
// with the same need — the exposition tests, which assert every /metrics
// line is well-formed (HELP/TYPE pairs, monotone cumulative buckets, a
// terminal le="+Inf", _count matching the +Inf bucket), and cmd/ctsload,
// which scrapes a live ctsd and turns the latency histograms back into
// percentiles.  Strictness is the point: anything a conforming scraper
// could trip over is an error here, not a warning.

// Sample is one parsed sample line: a metric name, its label set and the
// value.
type Sample struct {
	// Name is the sample's full metric name (including any _bucket/_sum/
	// _count suffix).
	Name string
	// Labels maps label names to (unescaped) values.
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// ParsedFamily is one metric family of a parsed exposition.
type ParsedFamily struct {
	// Name, Help and Type echo the # HELP and # TYPE lines.
	Name, Help, Type string
	// Samples are the family's sample lines in input order (for histograms:
	// the _bucket/_sum/_count lines).
	Samples []Sample
}

// ParsedHistogram is one histogram series recovered from a parsed family:
// de-cumulated bucket counts aligned with Bounds plus the overflow bucket,
// mirroring HistogramSnapshot.
type ParsedHistogram struct {
	// Bounds are the finite bucket upper bounds in increasing order.
	Bounds []float64
	// Counts are per-bucket (non-cumulative) counts; the last entry is the
	// +Inf overflow bucket.
	Counts []uint64
	// Sum and Count echo the _sum and _count samples.
	Sum   float64
	Count uint64
}

// Quantile estimates the q-quantile from the parsed buckets, using the same
// interpolation as HistogramSnapshot.Quantile.
func (h *ParsedHistogram) Quantile(q float64) float64 {
	return bucketQuantile(q, h.Bounds, h.Counts)
}

// ParsedMetrics is a fully parsed and validated exposition.
type ParsedMetrics struct {
	// Families lists the metric families in input order.
	Families []*ParsedFamily

	byName map[string]*ParsedFamily
}

// Family returns the named family, if present.
func (m *ParsedMetrics) Family(name string) (*ParsedFamily, bool) {
	f, ok := m.byName[name]
	return f, ok
}

// Value returns the value of the sample with exactly the given name and
// label set (nil matches the empty label set).
func (m *ParsedMetrics) Value(name string, labels map[string]string) (float64, bool) {
	base := name
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := m.byName[strings.TrimSuffix(name, suffix)]; ok && strings.HasSuffix(name, suffix) && f.Type == "histogram" {
			base = strings.TrimSuffix(name, suffix)
			break
		}
	}
	f, ok := m.byName[base]
	if !ok {
		return 0, false
	}
	for _, s := range f.Samples {
		if s.Name == name && labelsEqual(s.Labels, labels) {
			return s.Value, true
		}
	}
	return 0, false
}

// Histogram recovers the histogram series of the family that carries
// exactly the given label set (excluding "le").
func (m *ParsedMetrics) Histogram(name string, labels map[string]string) (*ParsedHistogram, bool) {
	f, ok := m.byName[name]
	if !ok || f.Type != "histogram" {
		return nil, false
	}
	series, err := f.histogramSeries()
	if err != nil {
		return nil, false
	}
	h, ok := series[histogramSeriesKey(labels)]
	return h, ok
}

// labelsEqual compares two label sets, treating nil as empty.
func labelsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// ParseText parses and validates a Prometheus text exposition: every sample
// must belong to a family announced by a # HELP and # TYPE pair (HELP
// first, each exactly once), histogram series must have monotone cumulative
// buckets ending in le="+Inf" with a matching _count and a _sum, and every
// value must be a well-formed float.
func ParseText(r io.Reader) (*ParsedMetrics, error) {
	m := &ParsedMetrics{byName: map[string]*ParsedFamily{}}
	typed := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		// Drop every carriage return ending a line: WriteText could not
		// write back a HELP text that ends in one.
		line := strings.TrimRight(sc.Text(), "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := m.parseComment(line, typed); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if err := m.parseSample(line, typed); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range m.Families {
		if !typed[f.Name] {
			return nil, fmt.Errorf("family %q has HELP but no TYPE", f.Name)
		}
		if f.Type == "histogram" {
			if _, err := f.histogramSeries(); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// parseComment handles # HELP and # TYPE lines (other comments are
// ignored).
func (m *ParsedMetrics) parseComment(line string, typed map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return nil // free-form comment
	}
	switch fields[1] {
	case "HELP":
		name := fields[2]
		if _, ok := m.byName[name]; ok {
			return fmt.Errorf("duplicate HELP for %q", name)
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		f := &ParsedFamily{Name: name, Help: unescapeHelp(help)}
		m.Families = append(m.Families, f)
		m.byName[name] = f
	case "TYPE":
		name := fields[2]
		f, ok := m.byName[name]
		if !ok {
			return fmt.Errorf("TYPE for %q before its HELP", name)
		}
		if typed[name] {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		if len(f.Samples) > 0 {
			return fmt.Errorf("TYPE for %q after its samples", name)
		}
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line for %q", name)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %q", fields[3], name)
		}
		f.Type = fields[3]
		typed[name] = true
	}
	return nil
}

// parseSample handles one sample line, attaching it to its family.
func (m *ParsedMetrics) parseSample(line string, typed map[string]bool) error {
	name, rest, err := parseMetricName(line)
	if err != nil {
		return err
	}
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		labels, rest, err = parseLabels(rest)
		if err != nil {
			return fmt.Errorf("sample %q: %w", name, err)
		}
	}
	valStr := strings.TrimSpace(rest)
	if i := strings.IndexAny(valStr, " \t"); i >= 0 {
		// A trailing timestamp is legal in the format; this registry never
		// writes one, but accept and ignore it.
		valStr = valStr[:i]
	}
	v, err := parseValue(valStr)
	if err != nil {
		return fmt.Errorf("sample %q: %w", name, err)
	}

	family := name
	if _, ok := m.byName[family]; !ok {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if f, ok := m.byName[base]; ok && strings.HasSuffix(name, suffix) && f.Type == "histogram" {
				family = base
				break
			}
		}
	}
	f, ok := m.byName[family]
	if !ok {
		return fmt.Errorf("sample %q without a preceding HELP/TYPE", name)
	}
	if !typed[family] {
		return fmt.Errorf("sample %q before its family's TYPE", name)
	}
	if f.Type == "histogram" && family == name {
		return fmt.Errorf("histogram %q has a bare sample (want _bucket/_sum/_count)", name)
	}
	f.Samples = append(f.Samples, Sample{Name: name, Labels: labels, Value: v})
	return nil
}

// parseMetricName splits the leading metric name off a sample line.
func parseMetricName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, line[i:], nil
}

// parseLabels parses a {k="v",...} block, unescaping values.
func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		key := s[start:i]
		if key != "le" && !validLabelName(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label %q: want quoted value", key)
		}
		i++
		var b strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[i])
				}
			} else {
				b.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return nil, "", fmt.Errorf("label %q: unterminated value", key)
		}
		i++ // closing quote
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", key)
		}
		labels[key] = b.String()
	}
}

// parseValue parses a sample value, accepting the Prometheus infinity and
// NaN spellings.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	case "":
		return 0, fmt.Errorf("missing value")
	}
	return strconv.ParseFloat(s, 64)
}

// histogramSeriesKey builds the grouping key for one histogram series: its
// labels minus "le", in sorted order.
func histogramSeriesKey(labels map[string]string) string {
	keys := make([]string, 0, 4) // fixed capacity: on the stack for the usual one or two labels
	n := 0
	//ctslint:allow determinism -- collect-then-sort: keys are sorted immediately below, so the range order cannot escape
	for k, v := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
		n += len(k) + len(v) + 2
	}
	sort.Strings(keys)
	var b strings.Builder
	b.Grow(n)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// histogramSeries groups and validates the family's samples into per-series
// histograms: cumulative buckets must be monotone and end in le="+Inf",
// _count must equal the +Inf bucket and _sum must be present.
func (f *ParsedFamily) histogramSeries() (map[string]*ParsedHistogram, error) {
	type accum struct {
		bounds                   []float64 // parsed le values, input order
		cum                      []float64
		sum                      float64
		count                    float64
		hasSum, hasCount, hasInf bool
	}
	acc := map[string]*accum{}
	order := []string{}
	get := func(labels map[string]string) *accum {
		key := histogramSeriesKey(labels)
		a, ok := acc[key]
		if !ok {
			a = &accum{}
			acc[key] = a
			order = append(order, key)
		}
		return a
	}
	for _, s := range f.Samples {
		switch {
		case s.Name == f.Name+"_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return nil, fmt.Errorf("histogram %q: bucket without le label", f.Name)
			}
			bound, err := parseValue(le)
			if err != nil {
				return nil, fmt.Errorf("histogram %q: bad le %q", f.Name, le)
			}
			a := get(s.Labels)
			a.bounds = append(a.bounds, bound)
			a.cum = append(a.cum, s.Value)
			if math.IsInf(bound, 1) {
				a.hasInf = true
			}
		case s.Name == f.Name+"_sum":
			a := get(s.Labels)
			a.sum, a.hasSum = s.Value, true
		case s.Name == f.Name+"_count":
			a := get(s.Labels)
			a.count, a.hasCount = s.Value, true
		default:
			return nil, fmt.Errorf("histogram %q: unexpected sample %q", f.Name, s.Name)
		}
	}
	out := map[string]*ParsedHistogram{}
	for _, key := range order {
		a := acc[key]
		if !a.hasInf {
			return nil, fmt.Errorf("histogram %q series %q: no le=\"+Inf\" bucket", f.Name, key)
		}
		if !a.hasSum || !a.hasCount {
			return nil, fmt.Errorf("histogram %q series %q: missing _sum or _count", f.Name, key)
		}
		// Quantile interpolates toward the finite bounds, so a series needs
		// at least one, and every bound but the terminal +Inf must be one.
		if len(a.bounds) < 2 {
			return nil, fmt.Errorf("histogram %q series %q: no finite bucket bound", f.Name, key)
		}
		for _, b := range a.bounds[:len(a.bounds)-1] {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				return nil, fmt.Errorf("histogram %q series %q: bucket bound %v is not finite", f.Name, key, b)
			}
		}
		for i := 1; i < len(a.bounds); i++ {
			if a.bounds[i] <= a.bounds[i-1] {
				return nil, fmt.Errorf("histogram %q series %q: le bounds not increasing", f.Name, key)
			}
			if a.cum[i] < a.cum[i-1] {
				return nil, fmt.Errorf("histogram %q series %q: bucket counts not monotone", f.Name, key)
			}
		}
		if !math.IsInf(a.bounds[len(a.bounds)-1], 1) {
			return nil, fmt.Errorf("histogram %q series %q: le=\"+Inf\" is not the terminal bucket", f.Name, key)
		}
		if a.count != a.cum[len(a.cum)-1] {
			return nil, fmt.Errorf("histogram %q series %q: _count %v != +Inf bucket %v",
				f.Name, key, a.count, a.cum[len(a.cum)-1])
		}
		h := &ParsedHistogram{
			Bounds: a.bounds[:len(a.bounds)-1],
			Counts: make([]uint64, len(a.bounds)),
			Sum:    a.sum,
			Count:  uint64(a.count),
		}
		prev := 0.0
		for i, c := range a.cum {
			h.Counts[i] = uint64(c - prev)
			prev = c
		}
		out[key] = h
	}
	return out, nil
}

// unescapeHelp reverses escapeHelp, scanning left to right so an escaped
// backslash followed by an n is not misread as a newline.
func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			if s[i] == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
