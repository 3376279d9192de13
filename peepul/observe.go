package peepul

// Observability surface: the metrics registry every node keeps, the
// flight recorder behind WithObservability, and the live debug endpoint
// behind WithDebugAddr. The registry is always on — Stats, ObjectStats
// and MeshStats are views over it. The recorder and the endpoint are
// opt-in; without them each span hook costs one nil check.

import (
	"io"

	"repro/internal/obs"
)

// Metric is one metric series from the node's registry: name, sorted
// labels, and either a counter/gauge value or histogram buckets.
type Metric = obs.Metric

// Trace is a snapshot of the node's flight recorder — the retained
// sync-session spans and mesh lifecycle events, oldest first.
type Trace = obs.Trace

// Span is one recorded sync session: role, peer, objects settled,
// per-phase durations, byte/commit totals and outcome.
type Span = obs.Span

// SpanPhase is one named phase of a sync-session span (negotiate,
// descend, span-probe, ship, import) with its duration.
type SpanPhase = obs.Phase

// TraceEvent is one mesh lifecycle event (link up/down, backoff change,
// quarantine enter/lift) with its cause.
type TraceEvent = obs.Event

// WithObservability turns on the node's flight recorder: each sync
// session leaves a trace span and the mesh daemon its lifecycle events.
// Read them back with Trace and DebugSnapshot. The metrics registry
// (Metrics, WriteMetrics) needs no option: wire framing, store merges,
// disk appends, mesh rounds and sync sessions always record into it.
// The recorder is opt-in because its rings cost about 120 KB per node.
func WithObservability() NodeOption {
	return func(c *nodeConfig) { c.obsEnabled = true }
}

// WithDebugAddr serves the node's live debug endpoint on addr
// ("127.0.0.1:0" picks a free port — read it back with DebugAddr):
// /metrics in Prometheus text format, /debug/peepul/snapshot,
// /debug/peepul/trace (append ?format=text for a human-readable
// timeline), /healthz, and the net/http/pprof profiles under
// /debug/pprof/. Implies WithObservability.
func WithDebugAddr(addr string) NodeOption {
	return func(c *nodeConfig) { c.debugAddr, c.obsEnabled = addr, true }
}

// Trace snapshots the node's flight recorder: the retained sync-session
// spans and mesh lifecycle events, oldest first. Empty without
// WithObservability.
func (n *Node) Trace() Trace {
	if n.rec == nil {
		return Trace{}
	}
	return n.rec.Snapshot()
}

// Metrics snapshots every metric series of the node's registry, sorted
// by name and labels.
func (n *Node) Metrics() []Metric { return n.metrics.reg.Snapshot() }

// WriteMetrics writes the node's registry to w in Prometheus text
// exposition format — what /metrics serves.
func (n *Node) WriteMetrics(w io.Writer) error { return n.metrics.reg.WriteProm(w) }

// FormatTrace renders a trace as a human-readable timeline, one line
// per event and per span phase.
func FormatTrace(t Trace) string { return obs.FormatTrace(t) }

// FormatSpan renders one span as a single timeline line.
func FormatSpan(s Span) string { return obs.FormatSpan(s) }
