package obs

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the cluster-aggregation counterpart of promparse.go: the ctsd
// gateway scrapes each member's /metrics, parses the expositions with
// ParseText, and re-exposes their sum as one exposition.  Summing is exact
// for every series the registry writes — counters and occupancy gauges add,
// and histogram buckets are cumulative counts over identical bounds (the
// members run the same binary), so per-le sums reconstruct the cluster-wide
// distribution a single-process histogram would have observed.

// MergeParsed sums parsed expositions into one: families keep their
// first-appearance order across the parts, and samples with the same name
// and label set add their values.  Help and type come from the family's
// first appearance; parts disagreeing on a family's type (heterogeneous
// binaries) are an error.  Nil parts are skipped, so a degraded member can
// simply be left out.  The result round-trips through WriteText/ParseText.
func MergeParsed(parts ...*ParsedMetrics) (*ParsedMetrics, error) {
	out := &ParsedMetrics{byName: map[string]*ParsedFamily{}}
	// idx maps family name -> sample identity -> index into that merged
	// family's Samples, so summing stays linear in the total sample count.
	idx := map[string]map[string]int{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, f := range p.Families {
			mf, ok := out.byName[f.Name]
			if !ok {
				mf = &ParsedFamily{Name: f.Name, Help: f.Help, Type: f.Type}
				out.Families = append(out.Families, mf)
				out.byName[f.Name] = mf
				idx[f.Name] = map[string]int{}
			} else if mf.Type != f.Type {
				return nil, fmt.Errorf("obs: merging family %q: conflicting types %q and %q",
					f.Name, mf.Type, f.Type)
			}
			si := idx[f.Name]
			for _, s := range f.Samples {
				key := sampleKey(s)
				if i, ok := si[key]; ok {
					mf.Samples[i].Value += s.Value
					continue
				}
				labels := make(map[string]string, len(s.Labels))
				for k, v := range s.Labels {
					labels[k] = v
				}
				si[key] = len(mf.Samples)
				mf.Samples = append(mf.Samples, Sample{Name: s.Name, Labels: labels, Value: s.Value})
			}
		}
	}
	return out, nil
}

// sampleKey is a sample's merge identity: its full name plus the sorted
// label set ("le" included, so each histogram bucket is its own series).
func sampleKey(s Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for _, k := range keys {
		b.WriteByte(';')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Labels[k])
	}
	return b.String()
}
