package peepul

// Sync-session observability: session duration and outcomes by role,
// per-frame wire accounting, reconciliation descent depth, the traffic
// series SyncStats is a view over (stats.go), the daemon's round, push
// and quarantine series and gauges (supervisor.go), and the
// flight-recorder spans a sync session leaves behind. The registry is
// always on: every node builds one, counts its sessions and daemon into
// it and hands it to its stores and logs. The recorder is opt-in
// (WithObservability, or WithDebugAddr which implies it); without it
// n.rec stays nil and every span hook is a nil check.

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The daemon's per-peer series: exchanges by kind and outcome, stream
// batches that carried commits, and quarantine transitions. MeshStats
// sums them.
const (
	roundsSeries     = "peepul_mesh_rounds_total"
	pushesSeries     = "peepul_mesh_pushes_total"
	quarantineSeries = "peepul_mesh_quarantine_transitions_total"
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
	case wire.FrameLanded:
		return "landed"
	}
	return "other"
}

// nodeMetrics is the sync sessions' registry view. Frame counters are
// resolved on a kind's first frame into arrays indexed by kind, so the
// per-frame hot path is one bounds check, one load and two atomic adds,
// and a node holds series only for the kinds it has seen.
type nodeMetrics struct {
	reg             *obs.Registry
	sessionNsClient *obs.Histogram
	sessionNsServer *obs.Histogram
	shed            *obs.Counter
	descentDepth    *obs.Histogram
	spanMatch       *obs.Counter
	spanDiff        *obs.Counter
	// The daemon's gauges: outbound links up, peers backing off, peers
	// quarantined.
	linksUp, backingOff, quarantined *obs.Gauge

	framesIn, framesOut [maxFrameKind + 1]atomic.Pointer[frameSeries]
}

// frameSeries is one frame kind's counters in one direction.
type frameSeries struct{ frames, bytes *obs.Counter }

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	m := &nodeMetrics{
		reg:             reg,
		sessionNsClient: reg.Histogram("peepul_replica_session_ns", obs.LatencyBuckets, "role", "client"),
		sessionNsServer: reg.Histogram("peepul_replica_session_ns", obs.LatencyBuckets, "role", "server"),
		shed:            reg.Counter(shedSeries),
		descentDepth:    reg.Histogram("peepul_recon_descent_ranges", obs.DepthBuckets),
		spanMatch:       reg.Counter("peepul_recon_span_probes_total", "result", "match"),
		spanDiff:        reg.Counter("peepul_recon_span_probes_total", "result", "diff"),
		linksUp:         reg.Gauge("peepul_mesh_links_up"),
		backingOff:      reg.Gauge("peepul_mesh_peers_backing_off"),
		quarantined:     reg.Gauge("peepul_mesh_peers_quarantined"),
	}
	reg.Describe(bytesSeries, "raw session bytes by direction, object and (dial side) peer")
	reg.Describe(commitsSeries, "commits shipped by direction, object and (dial side) peer")
	reg.Describe(patchesSeries, "commits that crossed the wire as binary patches, by direction, object and peer")
	reg.Describe(exchangesSeries, "completed per-object exchanges, one per role")
	reg.Describe(missesSeries, "hellos answered with object not hosted here")
	reg.Describe(redundantSeries, "received commits that were already present")
	reg.Describe(rangesSeries, "reconciliation range probes issued (client) and answered (server), by object and peer")
	reg.Describe("peepul_replica_session_ns", "wall time of whole sync sessions by role")
	reg.Describe("peepul_replica_sessions_total", "completed sync sessions by role and outcome")
	reg.Describe(shedSeries, "inbound connections closed unserved at the session cap")
	reg.Describe("peepul_recon_descent_ranges", "ranges probed per reconciliation descent")
	reg.Describe("peepul_recon_span_probes_total", "whole-node span probes by result; a match short-circuits the round")
	reg.Describe("peepul_wire_frames_total", "protocol frames by kind and direction")
	reg.Describe("peepul_wire_frame_bytes_total", "protocol frame bytes by kind and direction")
	reg.Describe(roundsSeries, "exchanges by peer, kind (full round, link connect session, failed stream) and outcome (ok/transient/violation)")
	reg.Describe(pushesSeries, "link stream batches that carried commits, by peer")
	reg.Describe(quarantineSeries, "peers entering and leaving quarantine")
	reg.Describe("peepul_mesh_links_up", "outbound links currently connected and streaming")
	reg.Describe("peepul_mesh_peers_backing_off", "peers currently on the backoff schedule")
	reg.Describe("peepul_mesh_peers_quarantined", "peers currently quarantined")
	return m
}

// session counts one finished session in role: its wall time since
// start, and its outcome. Sessions are per-round, not per-frame, so the
// lazy (role, outcome) resolution is fine.
func (m *nodeMetrics) session(role string, start time.Time, err error) {
	ns := m.sessionNsClient
	if role == "server" {
		ns = m.sessionNsServer
	}
	ns.Observe(time.Since(start).Nanoseconds())
	m.reg.Counter("peepul_replica_sessions_total", "role", role, "outcome", classifyFailure(err)).Inc()
}

// frame feeds one frame into its kind's counters (FrameMeter).
func (m *nodeMetrics) frame(out bool, kind wire.FrameKind, bytes int) {
	if kind > maxFrameKind {
		kind = 0
	}
	slot, dir := &m.framesIn[kind], "in"
	if out {
		slot, dir = &m.framesOut[kind], "out"
	}
	s := slot.Load()
	if s == nil {
		// Racing first frames resolve the same registry series.
		name := kindName(kind)
		s = &frameSeries{
			frames: m.reg.Counter("peepul_wire_frames_total", "kind", name, "dir", dir),
			bytes:  m.reg.Counter("peepul_wire_frame_bytes_total", "kind", name, "dir", dir),
		}
		slot.Store(s)
	}
	s.frames.Inc()
	s.bytes.Add(int64(bytes))
}

// descent records one finished reconciliation descent's probe count.
func (m *nodeMetrics) descent(ranges int) {
	m.descentDepth.Observe(int64(ranges))
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

// bytes adds raw bytes the session's connection moved; the connection
// reports them as it counts them into its flow.
func (sr *spanRec) bytes(sent, recv int) {
	if sr != nil {
		sr.span.BytesSent += int64(sent)
		sr.span.BytesRecv += int64(recv)
	}
}

// commits adds commits the session shipped and received.
func (sr *spanRec) commits(sent, recv int) {
	if sr != nil {
		sr.span.CommitsSent += int64(sent)
		sr.span.CommitsRecv += int64(recv)
	}
}

// finish stamps the duration and the failure classification, then
// commits the span to the ring.
func (sr *spanRec) finish(err error) {
	if sr == nil {
		return
	}
	sr.span.DurNs = time.Since(sr.span.Start).Nanoseconds()
	if err != nil {
		sr.span.Err = err.Error()
		sr.span.FailClass = classifyFailure(err)
	}
	sr.rec.AddSpan(sr.span)
}
