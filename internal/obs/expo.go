package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of the text exposition format this
// package writes (the Prometheus 0.0.4 text format).
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Gather snapshots every registered family, in registration order, into the
// form ParseText and MergeParsed produce (a histogram series becomes its
// cumulative _bucket samples ending in le="+Inf", then _sum and _count),
// reading Func series here.  The read is consistent per series, not across
// the registry — standard scrape semantics.
func (r *Registry) Gather() *ParsedMetrics {
	m := &ParsedMetrics{byName: map[string]*ParsedFamily{}}
	for _, f := range r.snapshotFamilies() {
		pf := &ParsedFamily{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, s := range f.snapshot() {
			if f.kind != KindHistogram {
				pf.Samples = append(pf.Samples, Sample{Name: f.name, Labels: f.labelSet(s, ""), Value: s.read()})
				continue
			}
			snap := s.readHist()
			var cum uint64
			for i, c := range snap.Counts {
				cum += c
				le := "+Inf"
				if i < len(snap.Bounds) {
					le = formatFloat(snap.Bounds[i])
				}
				pf.Samples = append(pf.Samples, Sample{Name: f.name + "_bucket", Labels: f.labelSet(s, le), Value: float64(cum)})
			}
			pf.Samples = append(pf.Samples,
				Sample{Name: f.name + "_sum", Labels: f.labelSet(s, ""), Value: snap.Sum},
				Sample{Name: f.name + "_count", Labels: f.labelSet(s, ""), Value: float64(cum)})
		}
		m.Families = append(m.Families, pf)
		m.byName[pf.Name] = pf
	}
	return m
}

// labelSet maps the family's label names to the series' values, plus the
// histogram "le" label when le is non-empty.
func (f *Family) labelSet(s *series, le string) map[string]string {
	out := make(map[string]string, len(f.labels)+1)
	for i, l := range f.labels {
		out[l] = s.labelValues[i]
	}
	if le != "" {
		out["le"] = le
	}
	return out
}

// WritePrometheus renders every registered family in the Prometheus text
// format: WriteText over Gather.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteText(w, r.Gather())
}

// WriteText renders a gathered, parsed or merged exposition in the
// Prometheus text format: a # HELP/# TYPE pair per family, then its samples
// in order, with label names sorted so the output is deterministic.  The
// output parses back with ParseText.
func WriteText(w io.Writer, m *ParsedMetrics) error {
	bw := bufio.NewWriter(w)
	for _, f := range m.Families {
		bw.WriteString("# HELP ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.Help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(f.Type)
		bw.WriteByte('\n')
		for _, s := range f.Samples {
			bw.WriteString(s.Name)
			if len(s.Labels) > 0 {
				keys := make([]string, 0, len(s.Labels))
				for k := range s.Labels {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				bw.WriteByte('{')
				for i, k := range keys {
					if i > 0 {
						bw.WriteByte(',')
					}
					bw.WriteString(k)
					bw.WriteString(`="`)
					bw.WriteString(escapeLabel(s.Labels[k]))
					bw.WriteByte('"')
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// formatFloat renders a sample value: shortest round-trip representation,
// with the Prometheus spellings for infinities.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, double quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
