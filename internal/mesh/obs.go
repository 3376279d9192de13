package mesh

// Mesh-layer observability: round outcomes by peer and kind, pushes and
// quarantine transitions by peer — the series PeerStats sums — and how
// many links are up and how many peers are currently backing off or
// quarantined. Lifecycle transitions (links going up and down, backoff
// changes, quarantine enter/lift) are additionally emitted as
// flight-recorder events when a Recorder is configured, so a trace shows
// *why* a peer went quiet.

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Series the engine ticks per peer and PeerStats sums.
const (
	roundsSeries     = "peepul_mesh_rounds_total"
	pushesSeries     = "peepul_mesh_pushes_total"
	quarantineSeries = "peepul_mesh_quarantine_transitions_total"
)

type meshMetrics struct {
	reg         *obs.Registry
	linksUp     *obs.Gauge
	backingOff  *obs.Gauge
	quarantined *obs.Gauge
}

func newMeshMetrics(reg *obs.Registry) *meshMetrics {
	m := &meshMetrics{
		reg:         reg,
		linksUp:     reg.Gauge("peepul_mesh_links_up"),
		backingOff:  reg.Gauge("peepul_mesh_peers_backing_off"),
		quarantined: reg.Gauge("peepul_mesh_peers_quarantined"),
	}
	reg.Describe(roundsSeries, "exchanges by peer, kind (full round, link connect session, failed stream) and outcome (ok/transient/violation)")
	reg.Describe(pushesSeries, "link stream batches that carried commits, by peer")
	reg.Describe(quarantineSeries, "peers entering and leaving quarantine")
	reg.Describe("peepul_mesh_links_up", "outbound links currently connected and streaming")
	reg.Describe("peepul_mesh_peers_backing_off", "peers currently on the backoff schedule")
	reg.Describe("peepul_mesh_peers_quarantined", "peers currently quarantined")
	return m
}

// pushes resolves a peer's push counter, once per AddPeer: the stream
// ticks it per batch.
func (m *meshMetrics) pushes(peer string) *obs.Counter {
	return m.reg.Counter(pushesSeries, "peer", peer)
}

// round records one exchange outcome. The (peer, kind, outcome) counter
// is resolved by name — rounds run at anti-entropy cadence, so the
// lookup cost is irrelevant.
func (m *meshMetrics) round(peer, kind, outcome string) {
	m.reg.Counter(roundsSeries, "kind", kind, "outcome", outcome, "peer", peer).Inc()
}

// quarantine counts one peer entering or leaving quarantine.
func (m *meshMetrics) quarantine(peer, change string) {
	m.reg.Counter(quarantineSeries, "change", change, "peer", peer).Inc()
}

// transitions folds one round's before/after supervisor state into the
// gauges, the quarantine counters, and the event stream.
func (e *Engine) transitions(p *peer, prevBackoff time.Duration, prevQuar bool, st *PeerStats, err error) {
	m := e.metrics
	if prevQuar != st.Quarantined {
		if st.Quarantined {
			m.quarantine(p.addr, "enter")
			m.quarantined.Add(1)
			e.event("quarantine-enter", p.addr, st.QuarantineReason)
		} else {
			m.quarantine(p.addr, "lift")
			m.quarantined.Add(-1)
			e.event("quarantine-lift", p.addr, "clean exchange")
		}
	}
	if (prevBackoff > 0) != (st.Backoff > 0) {
		if st.Backoff > 0 {
			m.backingOff.Add(1)
		} else {
			m.backingOff.Add(-1)
		}
	}
	if prevBackoff != st.Backoff {
		if st.Backoff > 0 {
			detail := fmt.Sprintf("backoff %v after %d consecutive failures", st.Backoff, st.ConsecutiveFailures)
			if err != nil {
				detail += ": " + err.Error()
			}
			e.event("backoff", p.addr, detail)
		} else if prevBackoff > 0 {
			e.event("backoff-reset", p.addr, "exchange succeeded")
		}
	}
}

// event appends one lifecycle event to the flight recorder, nil-safely.
func (e *Engine) event(kind, peer, detail string) {
	if e.rec != nil {
		e.rec.AddEvent(obs.Event{Kind: kind, Peer: peer, Detail: detail})
	}
}

// forget clears a removed (or shut-down) peer's contribution to the
// currently-backing-off / currently-quarantined gauges so they do not
// drift permanently positive.
func (e *Engine) forget(p *peer) {
	m := e.metrics
	p.mu.Lock()
	backoff, quar := p.stats.Backoff, p.stats.Quarantined
	p.mu.Unlock()
	if backoff > 0 {
		m.backingOff.Add(-1)
	}
	if quar {
		m.quarantined.Add(-1)
	}
}
