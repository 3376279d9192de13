package replica

// Replica-layer observability: session duration and outcomes by role,
// per-frame wire accounting, reconciliation
// descent depth, and the flight-recorder spans a sync session leaves
// behind. All of it is off by default: WithObservability (or
// WithDebugAddr, which implies it) allocates the node's registry and
// recorder; without them n.metrics and n.rec stay nil and every hook
// here is a single nil check.

import (
	"time"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/wire"
)

// maxFrameKind bounds the pre-resolved frame counter arrays; kinds past
// it (future protocol growth) land on index 0, exposed as kind "other".
const maxFrameKind = 24

// kindName labels a frame kind for the wire metrics.
func kindName(k wire.FrameKind) string {
	switch k {
	case wire.FrameErr:
		return "err"
	case wire.FrameHello:
		return "hello"
	case wire.FrameHelloAck:
		return "hello-ack"
	case wire.FrameDeltaHeader:
		return "delta-header"
	case wire.FrameDeltaEnd:
		return "delta-end"
	case wire.FrameHelloMiss:
		return "hello-miss"
	case wire.FramePackedCommits:
		return "packed-commits"
	case wire.FrameReconFP:
		return "recon-fp"
	case wire.FrameReconMatch:
		return "recon-match"
	case wire.FrameReconEmptyRange:
		return "recon-empty"
	case wire.FrameReconItems:
		return "recon-items"
	case wire.FrameReconSplit:
		return "recon-split"
	case wire.FrameReconWant:
		return "recon-want"
	case wire.FrameReconSpan:
		return "recon-span"
	case wire.FrameLinkBatch:
		return "link-batch"
	}
	return "other"
}

// nodeMetrics is the replica layer's registry view. Frame counters are
// pre-resolved into arrays indexed by kind so the per-frame hot path is
// one bounds check and two atomic adds, never a registry lookup.
type nodeMetrics struct {
	reg             *obs.Registry
	sessionNsClient *obs.Histogram
	sessionNsServer *obs.Histogram
	shed            *obs.Counter
	descentDepth    *obs.Histogram
	rangesClient    *obs.Counter
	rangesServer    *obs.Counter
	spanMatch       *obs.Counter
	spanDiff        *obs.Counter

	framesIn, framesOut         [maxFrameKind + 1]*obs.Counter
	frameBytesIn, frameBytesOut [maxFrameKind + 1]*obs.Counter
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	if reg == nil {
		return nil
	}
	m := &nodeMetrics{
		reg:             reg,
		sessionNsClient: reg.Histogram("peepul_replica_session_ns", obs.LatencyBuckets, "role", "client"),
		sessionNsServer: reg.Histogram("peepul_replica_session_ns", obs.LatencyBuckets, "role", "server"),
		shed:            reg.Counter("peepul_replica_inbound_shed_total"),
		descentDepth:    reg.Histogram("peepul_recon_descent_ranges", obs.DepthBuckets),
		rangesClient:    reg.Counter("peepul_recon_ranges_total", "role", "client"),
		rangesServer:    reg.Counter("peepul_recon_ranges_total", "role", "server"),
		spanMatch:       reg.Counter("peepul_recon_span_probes_total", "result", "match"),
		spanDiff:        reg.Counter("peepul_recon_span_probes_total", "result", "diff"),
	}
	for k := wire.FrameKind(0); k <= maxFrameKind; k++ {
		name := kindName(k)
		if k == 0 {
			name = "other"
		}
		m.framesIn[k] = reg.Counter("peepul_wire_frames_total", "kind", name, "dir", "in")
		m.framesOut[k] = reg.Counter("peepul_wire_frames_total", "kind", name, "dir", "out")
		m.frameBytesIn[k] = reg.Counter("peepul_wire_frame_bytes_total", "kind", name, "dir", "in")
		m.frameBytesOut[k] = reg.Counter("peepul_wire_frame_bytes_total", "kind", name, "dir", "out")
	}
	reg.Describe("peepul_replica_session_ns", "wall time of whole sync sessions by role")
	reg.Describe("peepul_replica_sessions_total", "completed sync sessions by role and outcome")
	reg.Describe("peepul_replica_inbound_shed_total", "inbound connections closed unserved at the session cap")
	reg.Describe("peepul_recon_descent_ranges", "ranges probed per reconciliation descent")
	reg.Describe("peepul_recon_ranges_total", "reconciliation range probes issued (client) and answered (server)")
	reg.Describe("peepul_recon_span_probes_total", "whole-node span probes by result; a match short-circuits the round")
	reg.Describe("peepul_wire_frames_total", "protocol frames by kind and direction")
	reg.Describe("peepul_wire_frame_bytes_total", "protocol frame bytes by kind and direction")
	return m
}

// session counts one completed session. Sessions are per-round, not
// per-frame, so the lazy (role, outcome) resolution is fine.
func (m *nodeMetrics) session(role, outcome string) {
	if m == nil {
		return
	}
	m.reg.Counter("peepul_replica_sessions_total", "role", role, "outcome", outcome).Inc()
}

// frame feeds one frame into the pre-resolved counters (FrameMeter).
func (m *nodeMetrics) frame(out bool, kind wire.FrameKind, bytes int) {
	if m == nil {
		return
	}
	if kind > maxFrameKind {
		kind = 0
	}
	if out {
		m.framesOut[kind].Inc()
		m.frameBytesOut[kind].Add(int64(bytes))
	} else {
		m.framesIn[kind].Inc()
		m.frameBytesIn[kind].Add(int64(bytes))
	}
}

// descent records one finished reconciliation descent's probe count.
func (m *nodeMetrics) descent(ranges int) {
	if m != nil {
		m.descentDepth.Observe(int64(ranges))
	}
}

// failClassName maps the mesh failure taxonomy to metric label values.
func failClassName(c mesh.FailureClass) string {
	if c == mesh.FailViolation {
		return "violation"
	}
	return "transient"
}

// spanRec accumulates one sync session's flight-recorder span. A nil
// *spanRec (tracing disabled) accepts every call as a no-op, so the
// sync paths stay unconditional.
type spanRec struct {
	rec  *obs.Recorder
	span obs.Span
}

// newSpan opens a span; nil when the node records no traces.
func (n *Node) newSpan(role, peer string) *spanRec {
	if n.rec == nil {
		return nil
	}
	return &spanRec{rec: n.rec, span: obs.Span{
		ID:    n.rec.NextSpanID(),
		Role:  role,
		Peer:  peer,
		Start: time.Now(),
	}}
}

// phase appends one named phase with its duration since start.
func (sr *spanRec) phase(name, object string, start time.Time) {
	if sr == nil {
		return
	}
	sr.span.Phases = append(sr.span.Phases, obs.Phase{
		Name: name, Object: object, DurNs: time.Since(start).Nanoseconds(),
	})
}

// setPeer fills the peer name once known (server side learns it from
// the hello).
func (sr *spanRec) setPeer(peer string) {
	if sr != nil && sr.span.Peer == "" {
		sr.span.Peer = peer
	}
}

// objects records k completed per-object exchanges (k > 1 for a
// span-probe match, which settles every object at once).
func (sr *spanRec) objects(k int) {
	if sr != nil {
		sr.span.Objects += k
	}
}

// finish stamps duration, byte and commit totals (from the session's
// counters) and the failure classification, then commits the span to
// the ring.
func (sr *spanRec) finish(call *syncStats, err error) {
	if sr == nil {
		return
	}
	sr.span.DurNs = time.Since(sr.span.Start).Nanoseconds()
	if call != nil {
		sr.span.BytesSent = call.bytesSent.Load()
		sr.span.BytesRecv = call.bytesRecv.Load()
		sr.span.CommitsSent = call.commitsSent.Load()
		sr.span.CommitsRecv = call.commitsRecv.Load()
	}
	if err != nil {
		sr.span.Err = err.Error()
		sr.span.FailClass = failClassName(classifyFailure(err))
	}
	sr.rec.AddSpan(sr.span)
}

// Trace snapshots the node's flight recorder: the retained sync-session
// spans and mesh lifecycle events, oldest first. Empty without
// WithObservability.
func (n *Node) Trace() obs.Trace {
	if n.rec == nil {
		return obs.Trace{}
	}
	return n.rec.Snapshot()
}

// Registry exposes the node's metrics registry, nil without
// WithObservability.
func (n *Node) Registry() *obs.Registry {
	if n.metrics == nil {
		return nil
	}
	return n.metrics.reg
}
