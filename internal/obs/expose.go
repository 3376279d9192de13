package obs

// Hand-rolled Prometheus text exposition (version 0.0.4): no client
// library dependency, stable output order (families sorted by name,
// series by label signature), histograms rendered with cumulative
// `le` buckets plus _sum and _count. Histogram units stay in the
// instrument's native unit (nanoseconds, bytes); the unit is part of
// the metric name (`_ns`, `_bytes`) rather than rescaled to seconds.

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteProm writes every instrument in the text exposition format.
// Nil receiver writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the family list under the lock; instrument reads are
	// atomic so the render itself runs unlocked.
	fams := make([]*family, len(names))
	helps := make([]string, len(names))
	for i, name := range names {
		fams[i], helps[i] = r.families[name], r.help[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		if helps[i] != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, helps[i])
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.String())
		r.mu.Lock()
		insts := make([]*instrument, 0, len(f.insts))
		keys := make([]string, 0, len(f.insts))
		for k := range f.insts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			insts = append(insts, f.insts[k])
		}
		r.mu.Unlock()
		for _, inst := range insts {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, promLabels(inst.labels, "", 0), inst.c.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, promLabels(inst.labels, "", 0), inst.g.Value())
			case kindHistogram:
				h := inst.h
				var cum int64
				for i := range h.counts {
					cum += h.counts[i].Load()
					if i < len(h.bounds) {
						fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, promLabels(inst.labels, "le", h.bounds[i]), cum)
					} else {
						fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, promLabelsInf(inst.labels), cum)
					}
				}
				fmt.Fprintf(&b, "%s_sum%s %d\n", f.name, promLabels(inst.labels, "", 0), h.Sum())
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, promLabels(inst.labels, "", 0), h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promLabels renders {k="v",...}, appending the `le` bound when
// leName is non-empty; empty label sets render as nothing (or just
// {le="..."} for histogram buckets).
func promLabels(labels []string, leName string, le int64) string {
	if len(labels) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	if leName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%d\"", leName, le)
	}
	b.WriteByte('}')
	return b.String()
}

func promLabelsInf(labels []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		b.WriteByte(',')
	}
	b.WriteString(`le="+Inf"}`)
	return b.String()
}
