// Package mesh is the always-on replication engine: the background
// daemon that keeps a node converged with its peers without the
// application ever calling SyncWith. The paper's system model (and every
// deployment of it) assumes replicas that gossip continuously; this
// package supplies that loop as a supervisor per configured peer.
//
// Each supervisor keeps one long-lived outbound link to its peer. Adding
// the peer dials it at once: the connect session — the same
// reconcile-and-ship-missing code path a manual SyncWith uses — repairs
// whatever the pair lacks, and the connection then streams. The node
// (package peepul) calls NotifyCommit on every local operation and every
// remote-merge head move; the kick wakes the link's streamer, which
// writes everything the node installed since its previous write as one
// batch (commits that arrived from the peer itself excepted). A burst
// that lands while a write is in flight rides the next one, so bursts
// coalesce with no timer. An idle link writes an empty heartbeat batch
// often enough that the peer's idle deadline never cuts it. A link that
// fails closes, and the supervisor reconnects it; the next connect
// session is the repair, so a stream is never replayed. While the link
// is up, jittered anti-entropy rounds run every Interval (± up to
// Jitter): one-shot sessions that serve pairs supervised in one direction
// only and re-check converged ones with a single span probe.
//
// Failure handling is per peer and classified: a transient failure (a
// failed dial, a reset — the peer is presumed down) doubles the retry
// delay (BackoffMin up to BackoffMax) and halves the peer's health
// score; a success resets the backoff instantly and recovers the score
// halfway to 1 — fast recovery, so one blip does not linger. A protocol
// violation (Config.Classify reports FailViolation: corrupt frames, bad
// hellos, hash mismatches, a refused batch) additionally counts toward
// quarantine: after QuarantineAfter violations in a row the peer moves
// to the quarantine schedule (QuarantineMin doubling to QuarantineMax)
// with the triggering reason recorded in its PeerStats, and stays there
// until one clean exchange proves it recovered. While a peer is backing
// off or quarantined its link stays down and the retry timer owns the
// schedule. RemovePeer and Close cancel the peer's context — aborting
// any in-flight dial or exchange — close its link and wait for the
// supervisor, so a peer that is down can never wedge node shutdown.
//
// The engine knows nothing of the sync protocol: it drives a Syncer (the
// peepul node) and consumes its Reports, including which objects the
// peer turned out not to host — the link skips those, and a later round
// that finds the peer hosting one reconnects the link to cover it (the
// subscription model: interest is learned from the wire, not
// configured).
package mesh

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Report is what one sync exchange with a peer found out. What it cost
// is not in it: the Syncer counts that into the engine's registry (see
// BytesSeries).
type Report struct {
	// Missed lists the objects the peer answered "not hosted" (or
	// "different datatype") for; the engine uses it to learn peer
	// interest.
	Missed []string
}

// The traffic series: a Syncer counts the wire cost of every exchange
// and stream write it runs with a peer into Config.Obs under these
// counter families, labelled peer (the dial address) and dir (sent or
// recv), and PeerStats reads its byte and commit totals back from them.
const (
	BytesSeries   = "peepul_replica_bytes_total"
	CommitsSeries = "peepul_replica_commits_total"
)

// Syncer is what the engine drives. The context aborts an in-flight dial
// or exchange — peer removal and engine shutdown cancel it.
type Syncer interface {
	// MeshSync runs one anti-entropy round with the peer at addr: a
	// one-shot session over every object the node hosts.
	MeshSync(ctx context.Context, addr string) (Report, error)
	// OpenLink dials addr, runs the connect session over the connection
	// — a round in every respect — and switches it to stream mode. The
	// Report is the connect session's.
	OpenLink(ctx context.Context, addr string) (Link, Report, error)
}

// Link is one live outbound connection in stream mode. The engine calls
// Push from one goroutine at a time and Close from any.
type Link interface {
	// Push writes one batch: every commit installed since the previous
	// push, bar what the peer sent. With nothing pending it writes nothing
	// — unless heartbeat is set, when it writes an empty batch. carried
	// reports the batch held commits, also alongside an error.
	Push(heartbeat bool) (carried bool, _ error)
	// Heartbeat is the longest the link may stay silent before the
	// peer's idle deadline would cut it short.
	Heartbeat() time.Duration
	// Done is closed once the link is dead — it failed (the peer refused
	// a batch or hung up) or was closed — and Err then says why (never
	// nil).
	Done() <-chan struct{}
	Err() error
	// Close ends the link and releases what it holds. Idempotent.
	Close()
}

// ErrRelink marks a link ending that is not a failure: the node's or
// the peer's set of objects changed under it, and the supervisor
// reconnects at once so a fresh connect session covers the new ones.
var ErrRelink = errors.New("mesh: link scope changed")

// FailureClass is how the supervisor schedules retries after a failed
// exchange: the engine knows nothing of the sync protocol, so the
// Config.Classify hook (supplied by the node) maps errors to
// classes.
type FailureClass int

const (
	// FailTransient is ordinary network trouble — refused or timed-out
	// dials, resets, stalls. The peer is presumed honest and merely
	// unreachable: the exponential backoff schedule applies.
	FailTransient FailureClass = iota
	// FailViolation is a protocol violation — corrupt frames, malformed
	// payloads, hash mismatches. The bytes arrived and were wrong:
	// enough violations in a row move the peer into quarantine, a far
	// slower retry schedule with the triggering reason recorded in
	// PeerStats.
	FailViolation
)

// Config tunes the engine. The zero value of any field selects its
// default; DefaultConfig lists them.
type Config struct {
	// Interval is the anti-entropy round period per peer.
	Interval time.Duration
	// Jitter is the maximum random addition to each round's delay,
	// de-synchronizing supervisors so a fleet does not dial in lockstep.
	// Negative disables jitter; zero selects the default Interval/4.
	Jitter time.Duration
	// BackoffMin is the retry delay after the first failure; each further
	// consecutive failure doubles it up to BackoffMax.
	BackoffMin time.Duration
	// BackoffMax caps the retry delay.
	BackoffMax time.Duration
	// Classify maps a failed exchange's error to its FailureClass. Nil
	// classifies everything transient (no quarantine).
	Classify func(error) FailureClass
	// QuarantineAfter is how many violations in a row — without an
	// intervening success; transient failures in between do not reset
	// the streak — move a peer into quarantine.
	QuarantineAfter int
	// QuarantineMin is the quarantined retry delay, doubling per further
	// violation up to QuarantineMax. Both default far above the ordinary
	// backoff window: a hostile peer is probed occasionally for
	// recovery, not retried eagerly.
	QuarantineMin time.Duration
	QuarantineMax time.Duration
	// Obs is the registry the engine counts into (round outcomes, pushes,
	// live links, quarantine transitions — see obs.go) and the Syncer
	// counts traffic into; PeerStats is read back from it. Nil gives the
	// engine a registry of its own.
	Obs *obs.Registry
	// Recorder, when non-nil, receives lifecycle events: links going up
	// and down, backoff changes, quarantine enter/lift, each with its
	// cause.
	Recorder *obs.Recorder
}

// DefaultConfig returns the engine defaults: 2s rounds with up to 500ms
// of jitter, backoff 250ms doubling to 30s, and quarantine after 3
// straight violations with retries from 1m doubling to 15m.
func DefaultConfig() Config {
	return Config{
		Interval:        2 * time.Second,
		Jitter:          500 * time.Millisecond,
		BackoffMin:      250 * time.Millisecond,
		BackoffMax:      30 * time.Second,
		QuarantineAfter: 3,
		QuarantineMin:   time.Minute,
		QuarantineMax:   15 * time.Minute,
	}
}

// withDefaults resolves zero fields to the defaults.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	switch {
	case c.Jitter < 0:
		c.Jitter = 0
	case c.Jitter == 0:
		c.Jitter = c.Interval / 4
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = d.BackoffMin
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = max(d.BackoffMax, c.BackoffMin)
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = d.QuarantineAfter
	}
	if c.QuarantineMin <= 0 {
		c.QuarantineMin = d.QuarantineMin
	}
	if c.QuarantineMax < c.QuarantineMin {
		c.QuarantineMax = max(d.QuarantineMax, c.QuarantineMin)
	}
	return c
}

// PeerStats is a snapshot of one peer's supervisor state. Its counter
// fields (Rounds, Pushes, Failures, Violations, Quarantines and the wire
// cost) are a view over the engine's registry: each is the sum of the
// series labelled with the peer's address, so they count from the first
// time the address was supervised or dialled and survive RemovePeer.
type PeerStats struct {
	// Addr is the peer's dial address.
	Addr string
	// LinkUp reports the outbound link is connected and streaming.
	LinkUp bool
	// Rounds counts completed anti-entropy exchanges, the link's connect
	// sessions included; Pushes counts stream batches written that
	// carried commits (heartbeats excluded).
	Rounds int64
	Pushes int64
	// Failures counts failed exchanges and links; ConsecutiveFailures is
	// the current failing streak (zero for a healthy peer).
	Failures            int64
	ConsecutiveFailures int
	// Backoff is the current retry delay (zero when healthy) and Score
	// the peer's health in (0, 1]: halved per failure, recovered halfway
	// to 1 per success.
	Backoff time.Duration
	Score   float64
	// Wire cost of every client session and link this node dialled to
	// the address — rounds, connect sessions, stream batches and manual
	// syncs alike — both directions.
	BytesSent   int64
	BytesRecv   int64
	CommitsSent int64
	CommitsRecv int64
	// LastConverged is when the last exchange completed successfully
	// (zero before the first); LastError is the most recent failure
	// message, cleared on success.
	LastConverged time.Time
	LastError     string
	// Violations counts failures classified as protocol violations (by
	// Config.Classify) rather than plain network trouble;
	// ConsecutiveViolations is the streak since the last success
	// (transient failures in between do not reset it).
	Violations            int64
	ConsecutiveViolations int
	// Quarantined reports the peer is on the quarantine retry schedule;
	// Quarantines counts how many times it entered that state. The first
	// clean exchange lifts the quarantine. QuarantineReason is the error
	// that triggered the most recent quarantine; it is retained after
	// recovery as a record of what happened.
	Quarantined      bool
	Quarantines      int64
	QuarantineReason string
}

// Engine runs one supervisor per peer. Create with New, wire commits in
// with NotifyCommit, and Close to drain. Safe for concurrent use.
type Engine struct {
	syncer Syncer
	cfg    Config

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.RWMutex
	peers  map[string]*peer
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand

	// metrics is the engine's instrumentation on Config.Obs (obs.go);
	// rec is the optional flight recorder, nil without Config.Recorder.
	metrics *meshMetrics
	rec     *obs.Recorder
}

// New creates an engine driving s. No goroutines start until AddPeer.
func New(s Syncer, cfg Config) *Engine {
	ctx, cancel := context.WithCancel(context.Background())
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	return &Engine{
		syncer:  s,
		cfg:     cfg.withDefaults(),
		ctx:     ctx,
		cancel:  cancel,
		peers:   make(map[string]*peer),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		metrics: newMeshMetrics(cfg.Obs),
		rec:     cfg.Recorder,
	}
}

// peer is one supervised peer: its supervisor's context and failure
// state, guarded by mu except the channels and the push counter.
type peer struct {
	addr string
	kick chan struct{} // cap 1: commit notifications, naturally coalescing
	// ctx ends the supervisor: cancelled by RemovePeer or engine Close.
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
	stats PeerStats
}

// AddPeer registers addr and starts its supervisor, which dials the
// link at once. Re-adding a present peer (or adding after Close) is a
// no-op.
func (e *Engine) AddPeer(addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	if _, ok := e.peers[addr]; ok {
		return
	}
	ctx, cancel := context.WithCancel(e.ctx)
	p := &peer{
		addr:   addr,
		kick:   make(chan struct{}, 1),
		ctx:    ctx,
		cancel: cancel,
		exited: make(chan struct{}),
		pushes: e.metrics.pushes(addr),
		stats:  PeerStats{Addr: addr, Score: 1},
	}
	e.peers[addr] = p
	e.wg.Add(1)
	go e.supervise(p)
}

// RemovePeer stops addr's supervisor — aborting an in-flight exchange
// and closing the link — waits for it, and forgets the peer. Removing an
// unknown peer is a no-op.
func (e *Engine) RemovePeer(addr string) {
	e.mu.Lock()
	p, ok := e.peers[addr]
	if ok {
		delete(e.peers, addr)
	}
	e.mu.Unlock()
	if ok {
		p.cancel()
		<-p.exited
		e.forget(p)
	}
}

// Peers returns the supervised peer addresses, sorted.
func (e *Engine) Peers() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.peers))
	for addr := range e.peers {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots every peer's supervisor state, keyed by address.
func (e *Engine) Stats() map[string]PeerStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]PeerStats, len(e.peers))
	for addr, p := range e.peers {
		out[addr] = e.view(p)
	}
	return out
}

// PeerStats snapshots one peer's state; ok is false for unknown peers.
func (e *Engine) PeerStats(addr string) (PeerStats, bool) {
	e.mu.RLock()
	p, ok := e.peers[addr]
	e.mu.RUnlock()
	if !ok {
		return PeerStats{}, false
	}
	return e.view(p), true
}

// view snapshots one peer: its supervisor state, with the counter fields
// summed from the registry. Reading under p.mu keeps the counters settle
// ticks consistent with the state it moves.
func (e *Engine) view(p *peer) PeerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	sum := func(name string, match ...string) int64 {
		return e.cfg.Obs.Sum(name, append(match, "peer", p.addr)...)
	}
	st.Rounds = sum(roundsSeries, "outcome", "ok")
	st.Violations = sum(roundsSeries, "outcome", "violation")
	st.Failures = sum(roundsSeries, "outcome", "transient") + st.Violations
	st.Quarantines = sum(quarantineSeries, "change", "enter")
	st.Pushes = p.pushes.Value()
	st.BytesSent = sum(BytesSeries, "dir", "sent")
	st.BytesRecv = sum(BytesSeries, "dir", "recv")
	st.CommitsSent = sum(CommitsSeries, "dir", "sent")
	st.CommitsRecv = sum(CommitsSeries, "dir", "recv")
	return st
}

// NotifyCommit records that the node installed commits (a local
// operation or a remote-merge head move) and kicks every peer's link to
// stream them. A peer whose link is down keeps the kick for its next
// link, whose connect session ships the commits anyway.
func (e *Engine) NotifyCommit() {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, p := range e.peers {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// Close stops every supervisor, cancels any in-flight exchange, closes
// every link, and waits for the drain. Idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cancel()
	e.wg.Wait()
}

// jitter returns a uniform duration in [0, max).
func (e *Engine) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return time.Duration(e.rng.Int63n(int64(max)))
}

// liveLink is a connected link and its streamer's exit: exited closes
// when the streamer returns, and cause (read after that) says why.
type liveLink struct {
	Link
	exited chan struct{}
	cause  error
}

// supervise is one peer's daemon loop. The link dials at once; while it
// is up, anti-entropy rounds run every Interval+jitter; when it fails,
// the backoff (or quarantine) schedule times the reconnect, and rounds
// pause — the reconnect's connect session is the round.
func (e *Engine) supervise(p *peer) {
	defer e.wg.Done()
	defer close(p.exited)
	var l *liveLink
	defer func() {
		if l != nil {
			e.unlink(p, l, "supervision ended")
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
			if l, err = e.connect(p); err != nil {
				connect.Reset(e.nextDelay(p, err))
			} else {
				round.Reset(e.nextDelay(p, nil))
			}
		case <-roundC:
			uncovered, err := e.round(p)
			if len(uncovered) > 0 {
				e.unlink(p, l, fmt.Sprintf("peer now hosts %v", uncovered))
				l = nil
				connect.Reset(0)
				continue
			}
			round.Reset(e.nextDelay(p, err))
		case <-down:
			err := l.cause
			e.unlink(p, l, err.Error())
			l = nil
			round.Stop()
			if errors.Is(err, ErrRelink) {
				connect.Reset(0)
			} else {
				e.settle(p, "stream", err)
				connect.Reset(e.nextDelay(p, err))
			}
		}
	}
}

// connect opens the link and starts its streamer. The connect session
// settles like a round.
func (e *Engine) connect(p *peer) (*liveLink, error) {
	lk, rep, err := e.syncer.OpenLink(p.ctx, p.addr)
	e.settle(p, "link", err)
	if err != nil {
		return nil, err
	}
	l := &liveLink{Link: lk, exited: make(chan struct{})}
	p.mu.Lock()
	p.missed = rep.Missed
	p.stats.LinkUp = true
	p.mu.Unlock()
	e.metrics.linksUp.Add(1)
	e.event("link-up", p.addr, fmt.Sprintf("connect session done; peer does not host %v", rep.Missed))
	go e.stream(p, l)
	return l, nil
}

// unlink closes a live link, waits for its streamer, and records why it
// went down.
func (e *Engine) unlink(p *peer, l *liveLink, cause string) {
	l.Close()
	<-l.exited
	p.mu.Lock()
	p.stats.LinkUp = false
	p.missed = nil
	p.mu.Unlock()
	e.metrics.linksUp.Add(-1)
	e.event("link-down", p.addr, cause)
}

// stream is a live link's writer: one push right away (whatever the
// connect session left behind), then one per kick, and a heartbeat
// whenever the link has been silent for its Heartbeat period. It exits
// when a push fails or the link dies, leaving the cause in l.cause.
func (e *Engine) stream(p *peer, l *liveLink) {
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
func (e *Engine) round(p *peer) (uncovered []string, _ error) {
	rep, err := e.syncer.MeshSync(p.ctx, p.addr)
	e.settle(p, "full", err)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, o := range p.missed {
		if !slices.Contains(rep.Missed, o) {
			uncovered = append(uncovered, o)
		}
	}
	return uncovered, nil
}

// settle folds one exchange's outcome — a round, a connect session, or a
// failed stream — into the peer's state, and counts it.
func (e *Engine) settle(p *peer, kind string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &p.stats
	prevBackoff, prevQuar := st.Backoff, st.Quarantined
	if err != nil {
		st.ConsecutiveFailures++
		st.Score /= 2
		st.LastError = err.Error()
		outcome := "transient"
		if e.cfg.Classify != nil && e.cfg.Classify(err) == FailViolation {
			outcome = "violation"
			st.ConsecutiveViolations++
			if !st.Quarantined && st.ConsecutiveViolations >= e.cfg.QuarantineAfter {
				st.Quarantined = true
				st.QuarantineReason = err.Error()
			}
		}
		// A quarantined peer retries on the quarantine schedule whatever
		// its failures look like now — recovery is declared by a clean
		// exchange, not by the violations merely pausing.
		if st.Quarantined {
			st.Backoff = doubling(st.ConsecutiveViolations-e.cfg.QuarantineAfter+1, e.cfg.QuarantineMin, e.cfg.QuarantineMax)
		} else {
			st.Backoff = doubling(st.ConsecutiveFailures, e.cfg.BackoffMin, e.cfg.BackoffMax)
		}
		e.metrics.round(p.addr, kind, outcome)
		e.transitions(p, prevBackoff, prevQuar, st, err)
		return
	}
	st.ConsecutiveFailures = 0
	st.ConsecutiveViolations = 0
	st.Quarantined = false
	st.Backoff = 0
	st.Score += (1 - st.Score) / 2
	st.LastError = ""
	st.LastConverged = time.Now()
	e.metrics.round(p.addr, kind, "ok")
	e.transitions(p, prevBackoff, prevQuar, st, nil)
}

// doubling is the n-th delay of a retry schedule: lo doubling per step,
// capped at hi. The backoff after the n-th consecutive failure runs from
// BackoffMin to BackoffMax, the quarantine after the n-th violation past
// the threshold from QuarantineMin to QuarantineMax.
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
func (e *Engine) nextDelay(p *peer, err error) time.Duration {
	if err != nil {
		p.mu.Lock()
		d := p.stats.Backoff
		p.mu.Unlock()
		return d + e.jitter(e.cfg.Jitter/4+1)
	}
	return e.cfg.Interval + e.jitter(e.cfg.Jitter)
}
