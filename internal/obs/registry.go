// Package obs is the observability layer: a dependency-free metrics
// registry (atomic counters, gauges, fixed-bucket histograms) and a
// bounded flight recorder of sync-session spans and mesh lifecycle
// events. Every type is nil-safe — a nil *Registry hands out nil
// instruments, and every method on a nil instrument is a no-op — so
// instrumented hot paths pay one predictable branch when observability
// is disabled and nothing allocates.
//
// The package imports nothing from the rest of the repository, so any
// layer (store, disk, wire, mesh, replica) can take a *Registry without
// creating an import cycle.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count; zero on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an atomic value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores n. No-op on nil.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n. No-op on nil.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the gauge; zero on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// A Histogram counts observations into fixed upper-bound buckets (plus
// an implicit +Inf bucket) and tracks the running sum. Units are the
// caller's — latency histograms here observe nanoseconds, size
// histograms bytes — and the bucket bounds travel with the instrument.
type Histogram struct {
	bounds []int64        // sorted upper bounds
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Int64
	total  atomic.Int64
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count returns the number of observations; zero on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the running sum of observations; zero on nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Canned bucket layouts. Latency buckets are nanoseconds spanning 50µs
// to 10s; size buckets are bytes spanning 64B to 64MiB (the wire
// layer's MaxFieldBytes); depth buckets count small integers (recon
// descent, LCA frontiers).
var (
	LatencyBuckets = []int64{
		50_000, 100_000, 250_000, 500_000, // 50µs .. 500µs
		1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, // 1ms .. 25ms
		50_000_000, 100_000_000, 250_000_000, 500_000_000, // 50ms .. 500ms
		1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000, // 1s .. 10s
	}
	SizeBuckets  = []int64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	DepthBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every instrument sharing one metric name: same kind,
// one instrument per label signature.
type family struct {
	name  string
	kind  kind
	insts map[string]*instrument // keyed by canonical label signature
}

type instrument struct {
	labels []string // alternating key, value — creation order preserved
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry hands out instruments deduplicated by metric name + label
// set: asking twice for the same (name, labels) returns the same
// instrument, so independent subsystems (two object stores, two disk
// logs) share counts under one exposition line. A nil *Registry is the
// disabled state: every getter returns nil and every Describe is a
// no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	help     map[string]string // by family name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), help: make(map[string]string)}
}

// labelKey canonicalizes alternating key/value pairs into a map key:
// sorted by label name, independent of call-site order.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	return b.String()
}

// get returns the instrument for (name, labels), creating the family
// and instrument as needed; wrong-kind collisions on a name return a
// fresh unregistered instrument rather than corrupting the family (the
// caller still gets a working, if invisible, instrument).
func (r *Registry) get(name string, k kind, bounds []int64, labels []string) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: k, insts: make(map[string]*instrument)}
		r.families[name] = f
	}
	if f.kind != k {
		return newInstrument(k, bounds, labels)
	}
	key := labelKey(labels)
	inst, ok := f.insts[key]
	if !ok {
		inst = newInstrument(k, bounds, labels)
		f.insts[key] = inst
	}
	return inst
}

func newInstrument(k kind, bounds []int64, labels []string) *instrument {
	inst := &instrument{labels: append([]string(nil), labels...)}
	switch k {
	case kindCounter:
		inst.c = &Counter{}
	case kindGauge:
		inst.g = &Gauge{}
	case kindHistogram:
		inst.h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}
	return inst
}

// Counter returns the counter named name with the given alternating
// key/value labels, creating it on first use. Nil receiver → nil.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, kindCounter, nil, labels).c
}

// Gauge returns the gauge named name with the given labels, creating
// it on first use. Nil receiver → nil.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, kindGauge, nil, labels).g
}

// Histogram returns the histogram named name with the given bucket
// upper bounds and labels, creating it on first use; later calls for
// the same name ignore bounds (the first registration wins). Nil
// receiver → nil.
func (r *Registry) Histogram(name string, bounds []int64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, kindHistogram, bounds, labels).h
}

// Describe attaches help text to a metric family, before or after its
// first instrument exists; exposition prints it as the # HELP line.
// No-op on nil.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// Sum adds up the counters of the family named name whose labels
// include every given key/value pair: the read side of a struct that is
// a view over the registry. Zero on nil, for an unknown name, and for a
// family that does not hold counters.
func (r *Registry) Sum(name string, match ...string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind != kindCounter {
		return 0
	}
	var sum int64
	for _, inst := range f.insts {
		if inst.has(match) {
			sum += inst.c.Value()
		}
	}
	return sum
}

// has reports whether the instrument carries every key/value pair of
// match.
func (inst *instrument) has(match []string) bool {
next:
	for i := 0; i+1 < len(match); i += 2 {
		for j := 0; j+1 < len(inst.labels); j += 2 {
			if inst.labels[j] == match[i] {
				if inst.labels[j+1] != match[i+1] {
					return false
				}
				continue next
			}
		}
		return false
	}
	return true
}

// Metric is one instrument's state in a Snapshot: counters and gauges
// carry Value, histograms carry Count/Sum/Buckets (cumulative counts
// per upper bound, Prometheus-style, with the +Inf bucket last).
type Metric struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   int64             `json:"value,omitempty"`
	Count   int64             `json:"count,omitempty"`
	Sum     int64             `json:"sum,omitempty"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket; Le is the upper bound in
// the instrument's unit, with Le == math.MaxInt64 standing in for +Inf.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Snapshot returns every instrument's current state, sorted by metric
// name then label signature — a stable, JSON-able view for the debug
// endpoint. Nil receiver → nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Metric
	for _, f := range r.families {
		for _, inst := range f.insts {
			m := Metric{Name: f.name, Kind: f.kind.String()}
			if len(inst.labels) > 0 {
				m.Labels = make(map[string]string, len(inst.labels)/2)
				for i := 0; i+1 < len(inst.labels); i += 2 {
					m.Labels[inst.labels[i]] = inst.labels[i+1]
				}
			}
			switch f.kind {
			case kindCounter:
				m.Value = inst.c.Value()
			case kindGauge:
				m.Value = inst.g.Value()
			case kindHistogram:
				m.Count = inst.h.Count()
				m.Sum = inst.h.Sum()
				var cum int64
				for i := range inst.h.counts {
					cum += inst.h.counts[i].Load()
					le := int64(1<<63 - 1)
					if i < len(inst.h.bounds) {
						le = inst.h.bounds[i]
					}
					m.Buckets = append(m.Buckets, Bucket{Le: le, Count: cum})
				}
			}
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelSig(out[i].Labels) < labelSig(out[j].Labels)
	})
	return out
}

func labelSig(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(',')
	}
	return b.String()
}
