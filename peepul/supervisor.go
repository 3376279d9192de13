package peepul

// The daemon's supervisors, one per peer. Each keeps one long-lived
// outbound link to its peer. Adding the peer dials it at once: the
// connect session — the same reconcile-and-ship-missing code path a
// manual SyncWith uses — repairs whatever the pair lacks, and the
// connection then streams. Every local operation and every remote-merge
// head move kicks the link's streamer (notifyCommit), which writes
// everything the node installed since its previous write as one batch
// (commits that arrived from the peer itself excepted). A burst that
// lands while a write is in flight rides the next one, so bursts
// coalesce with no timer. An idle link writes an empty heartbeat batch
// often enough that the peer's idle deadline never cuts it. A link that
// fails closes, and the supervisor reconnects it; the next connect
// session is the repair, so a stream is never replayed. While the link
// is up, jittered anti-entropy rounds run every mesh interval (± up to
// the jitter): one-shot sessions that serve pairs supervised in one
// direction only and re-check converged ones with a single span probe.
// A round also reports which objects the peer does not host: the link
// skips those, and a later round that finds the peer hosting one
// reconnects the link to cover it (interest is learned from the wire,
// not configured).
//
// Failure handling is per peer and classified (classifyFailure): a
// transient failure (a failed dial, a reset — the peer is presumed down)
// doubles the retry delay (backoff min up to max) and halves the peer's
// health score; a success resets the backoff instantly and recovers the
// score halfway to 1 — fast recovery, so one blip does not linger. A
// protocol violation (corrupt frames, bad hellos, hash mismatches, a
// refused batch) additionally counts toward quarantine: after the
// configured number of violations in a row the peer moves to the
// quarantine schedule (quarantine min doubling to max) with the
// triggering reason recorded in its MeshStats, and stays there until one
// clean exchange proves it recovered. While a peer is backing off or
// quarantined its link stays down and the retry timer owns the schedule.
// RemovePeer and Close cancel the peer's context — aborting any
// in-flight dial or exchange — close its link and wait for the
// supervisor, so a peer that is down can never wedge node shutdown.
//
// Lifecycle transitions (links going up and down, backoff changes,
// quarantine enter/lift) are also flight-recorder events when the node
// records traces, so a trace shows why a peer went quiet.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// errRelink marks a link ending that is not a failure: the node's or
// the peer's set of objects changed under it, and the supervisor
// reconnects at once so a fresh connect session covers the new ones.
var errRelink = errors.New("mesh: link scope changed")

// meshPeer is one supervised peer: its supervisor's context and failure
// state, guarded by mu except the channels and the push counter.
type meshPeer struct {
	addr string
	kick chan struct{} // cap 1: commit notifications, naturally coalescing
	// ctx ends the supervisor: cancelled by RemovePeer or Close.
	ctx    context.Context
	cancel context.CancelFunc
	exited chan struct{} // closed when the supervisor has returned
	pushes *obs.Counter  // stream batches that carried commits

	mu sync.Mutex
	// missed is the learned non-subscription set: objects the live
	// link's connect session found the peer not hosting, which its
	// stream therefore skips.
	missed []string
	// stats holds the supervisor state; its counter fields stay zero
	// (view fills them from the registry).
	stats MeshStats
}

// liveLink is a connected link and its streamer's exit: exited closes
// when the streamer returns, and cause (read after that) says why.
type liveLink struct {
	link
	exited chan struct{}
	cause  error
}

// supervise is one peer's daemon loop. The link dials at once; while it
// is up, anti-entropy rounds run every interval+jitter; when it fails,
// the backoff (or quarantine) schedule times the reconnect, and rounds
// pause — the reconnect's connect session is the round.
func (n *Node) supervise(p *meshPeer) {
	defer n.mesh.wg.Done()
	defer close(p.exited)
	var l *liveLink
	defer func() {
		if l != nil {
			n.unlink(p, l, "supervision ended")
		}
	}()
	connect := time.NewTimer(0)
	defer connect.Stop()
	round := time.NewTimer(time.Hour)
	round.Stop()
	defer round.Stop()
	for {
		var roundC <-chan time.Time
		var down <-chan struct{}
		if l != nil {
			roundC, down = round.C, l.exited
		}
		select {
		case <-p.ctx.Done():
			return
		case <-connect.C:
			var err error
			if l, err = n.connect(p); err != nil {
				connect.Reset(n.nextDelay(p, err))
			} else {
				round.Reset(n.nextDelay(p, nil))
			}
		case <-roundC:
			uncovered, err := n.round(p)
			if len(uncovered) > 0 {
				n.unlink(p, l, fmt.Sprintf("peer now hosts %v", uncovered))
				l = nil
				connect.Reset(0)
				continue
			}
			round.Reset(n.nextDelay(p, err))
		case <-down:
			err := l.cause
			n.unlink(p, l, err.Error())
			l = nil
			round.Stop()
			if errors.Is(err, errRelink) {
				connect.Reset(0)
			} else {
				n.settle(p, "stream", err)
				connect.Reset(n.nextDelay(p, err))
			}
		}
	}
}

// connect opens the link and starts its streamer. The connect session
// settles like a round.
func (n *Node) connect(p *meshPeer) (*liveLink, error) {
	lk, missed, err := n.mesh.syncer.openLink(p.ctx, p.addr)
	n.settle(p, "link", err)
	if err != nil {
		return nil, err
	}
	l := &liveLink{link: lk, exited: make(chan struct{})}
	p.mu.Lock()
	p.missed = missed
	p.stats.LinkUp = true
	p.mu.Unlock()
	n.metrics.linksUp.Add(1)
	n.meshEvent("link-up", p.addr, fmt.Sprintf("connect session done; peer does not host %v", missed))
	go n.stream(p, l)
	return l, nil
}

// unlink closes a live link, waits for its streamer, and records why it
// went down.
func (n *Node) unlink(p *meshPeer, l *liveLink, cause string) {
	l.Close()
	<-l.exited
	p.mu.Lock()
	p.stats.LinkUp = false
	p.missed = nil
	p.mu.Unlock()
	n.metrics.linksUp.Add(-1)
	n.meshEvent("link-down", p.addr, cause)
}

// stream is a live link's writer: one push right away (whatever the
// connect session left behind), then one per kick, and a heartbeat
// whenever the link has been silent for its Heartbeat period. It exits
// when a push fails or the link dies, leaving the cause in l.cause.
func (n *Node) stream(p *meshPeer, l *liveLink) {
	defer close(l.exited)
	beat := time.NewTimer(l.Heartbeat())
	defer beat.Stop()
	heartbeat := false
	for {
		carried, err := l.Push(heartbeat)
		if carried {
			p.pushes.Inc()
		}
		if err != nil {
			l.cause = err
			return
		}
		if carried || heartbeat {
			beat.Reset(l.Heartbeat())
		}
		select {
		case <-l.Done():
			l.cause = l.Err()
			return
		case <-p.kick:
			heartbeat = false
		case <-beat.C:
			heartbeat = true
		}
	}
}

// round runs one anti-entropy round. It returns the objects the peer
// turned out to host that the live link skips — the link must reconnect
// to stream them.
func (n *Node) round(p *meshPeer) (uncovered []string, _ error) {
	missed, err := n.mesh.syncer.meshSync(p.ctx, p.addr)
	n.settle(p, "full", err)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, o := range p.missed {
		if !slices.Contains(missed, o) {
			uncovered = append(uncovered, o)
		}
	}
	return uncovered, nil
}

// settle folds one exchange's outcome — a round, a connect session, or a
// failed stream — into the peer's state, and counts it.
func (n *Node) settle(p *meshPeer, kind string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &p.stats
	prevBackoff, prevQuar := st.Backoff, st.Quarantined
	outcome := classifyFailure(err)
	if err == nil {
		st.ConsecutiveFailures = 0
		st.ConsecutiveViolations = 0
		st.Quarantined = false
		st.Backoff = 0
		st.Score += (1 - st.Score) / 2
		st.LastError = ""
		st.LastConverged = time.Now()
	} else {
		st.ConsecutiveFailures++
		st.Score /= 2
		st.LastError = err.Error()
		if outcome == outcomeViolation {
			st.ConsecutiveViolations++
			if !st.Quarantined && st.ConsecutiveViolations >= n.cfg.meshQuarAfter {
				st.Quarantined = true
				st.QuarantineReason = err.Error()
			}
		}
		// A quarantined peer retries on the quarantine schedule whatever
		// its failures look like now — recovery is declared by a clean
		// exchange, not by the violations merely pausing.
		if st.Quarantined {
			st.Backoff = doubling(st.ConsecutiveViolations-n.cfg.meshQuarAfter+1, n.cfg.meshQuarMin, n.cfg.meshQuarMax)
		} else {
			st.Backoff = doubling(st.ConsecutiveFailures, n.cfg.meshBackoffMin, n.cfg.meshBackoffMax)
		}
	}
	n.metrics.reg.Counter(roundsSeries, "kind", kind, "outcome", outcome, "peer", p.addr).Inc()
	n.transitions(p, prevBackoff, prevQuar, err)
}

// doubling is the n-th delay of a retry schedule: lo doubling per step,
// capped at hi. The backoff after the n-th consecutive failure runs from
// the backoff minimum to its maximum, the quarantine after the n-th
// violation past the threshold from the quarantine minimum to its
// maximum.
func doubling(n int, lo, hi time.Duration) time.Duration {
	d := lo
	for i := 1; i < n; i++ {
		d *= 2
		if d >= hi {
			return hi
		}
	}
	return min(d, hi)
}

// nextDelay schedules the supervisor's next wake-up: the jittered round
// interval when healthy, the current backoff (plus a fraction of jitter)
// when failing.
func (n *Node) nextDelay(p *meshPeer, err error) time.Duration {
	if err != nil {
		p.mu.Lock()
		d := p.stats.Backoff
		p.mu.Unlock()
		return d + jitter(n.cfg.meshJitter/4+1)
	}
	return n.cfg.meshInterval + jitter(n.cfg.meshJitter)
}

// jitter returns a uniform duration in [0, max).
func jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return rand.N(max)
}

// transitions folds one exchange's before/after supervisor state into
// the gauges, the quarantine counters, and the event stream. The caller
// holds p.mu.
func (n *Node) transitions(p *meshPeer, prevBackoff time.Duration, prevQuar bool, err error) {
	m, st := n.metrics, &p.stats
	if prevQuar != st.Quarantined {
		if st.Quarantined {
			m.reg.Counter(quarantineSeries, "change", "enter", "peer", p.addr).Inc()
			m.quarantined.Add(1)
			n.meshEvent("quarantine-enter", p.addr, st.QuarantineReason)
		} else {
			m.reg.Counter(quarantineSeries, "change", "lift", "peer", p.addr).Inc()
			m.quarantined.Add(-1)
			n.meshEvent("quarantine-lift", p.addr, "clean exchange")
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
			n.meshEvent("backoff", p.addr, detail)
		} else if prevBackoff > 0 {
			n.meshEvent("backoff-reset", p.addr, "exchange succeeded")
		}
	}
}

// forget takes a removed or stopped peer's contribution out of the
// backing-off and quarantined gauges, so they do not stay up for a peer
// no supervisor runs.
func (n *Node) forget(p *meshPeer) {
	p.mu.Lock()
	backoff, quar := p.stats.Backoff, p.stats.Quarantined
	p.mu.Unlock()
	if backoff > 0 {
		n.metrics.backingOff.Add(-1)
	}
	if quar {
		n.metrics.quarantined.Add(-1)
	}
}

// meshEvent appends one lifecycle event to the flight recorder, when
// the node records traces.
func (n *Node) meshEvent(kind, peer, detail string) {
	if n.rec != nil {
		n.rec.AddEvent(obs.Event{Kind: kind, Peer: peer, Detail: detail})
	}
}
