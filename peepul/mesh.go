package peepul

// Always-on replication: the node's sync daemon. A node given peers
// (WithPeers at construction, AddPeer later) keeps itself converged
// without any application SyncWith calls — one supervisor goroutine per
// peer (supervisor.go) keeps one long-lived link to it (link.go), which
// streams every commit the node installs as it lands (commits that land
// during a write share the next one), jittered anti-entropy rounds
// repair what the links cannot see, and unreachable peers are retried
// with exponential backoff. Watch turns remote-merge head moves into a
// channel, so a UI or cache reacts to replication instead of polling
// state.

import (
	"context"
	"maps"
	"slices"
	"sync"
	"time"
)

// The daemon's defaults: 2s rounds with up to a quarter of the interval
// of jitter, backoff 250ms doubling to 30s, and quarantine after 3
// straight violations with retries from 1m doubling to 15m.
const (
	defaultMeshInterval    = 2 * time.Second
	defaultMeshBackoffMin  = 250 * time.Millisecond
	defaultMeshBackoffMax  = 30 * time.Second
	defaultQuarantineAfter = 3
	defaultQuarantineMin   = time.Minute
	defaultQuarantineMax   = 15 * time.Minute
)

// WithPeers seeds the node's always-on sync daemon: from construction
// on, every address gets a supervisor goroutine that links to it and
// runs anti-entropy rounds. Equivalent to calling AddPeer for each
// address right after NewNode.
func WithPeers(addrs ...string) NodeOption {
	return func(c *nodeConfig) { c.peers = append(c.peers, addrs...) }
}

// WithMeshInterval sets the daemon's anti-entropy round period per peer
// (default 2s). Zero and below keep the default.
func WithMeshInterval(d time.Duration) NodeOption {
	return func(c *nodeConfig) { c.meshInterval = d }
}

// WithMeshJitter caps the random addition to each round's delay
// (default a quarter of the interval), de-synchronizing a fleet's
// supervisors. Zero disables jitter entirely.
func WithMeshJitter(d time.Duration) NodeOption {
	return func(c *nodeConfig) { c.meshJitter, c.meshJitterSet = d, true }
}

// WithMeshBackoff sets the daemon's failure retry window: min after a
// first failure, doubling per consecutive failure up to max (defaults
// 250ms and 30s). Non-positive values keep the defaults.
func WithMeshBackoff(min, max time.Duration) NodeOption {
	return func(c *nodeConfig) { c.meshBackoffMin, c.meshBackoffMax = min, max }
}

// resolveMesh replaces every unset daemon setting with its default;
// NewNode calls it once, after the options. A maximum below its minimum
// takes the larger of the default and the minimum.
func (c *nodeConfig) resolveMesh() {
	if c.meshInterval <= 0 {
		c.meshInterval = defaultMeshInterval
	}
	if !c.meshJitterSet {
		c.meshJitter = c.meshInterval / 4
	}
	c.meshJitter = max(c.meshJitter, 0)
	if c.meshBackoffMin <= 0 {
		c.meshBackoffMin = defaultMeshBackoffMin
	}
	if c.meshBackoffMax < c.meshBackoffMin {
		c.meshBackoffMax = max(defaultMeshBackoffMax, c.meshBackoffMin)
	}
	if c.meshQuarAfter <= 0 {
		c.meshQuarAfter = defaultQuarantineAfter
	}
	if c.meshQuarMin <= 0 {
		c.meshQuarMin = defaultQuarantineMin
	}
	if c.meshQuarMax < c.meshQuarMin {
		c.meshQuarMax = max(defaultQuarantineMax, c.meshQuarMin)
	}
}

// syncer is what the daemon's supervisors drive: the node itself, or a
// scripted stand-in in the daemon's unit tests. The context aborts an
// in-flight dial or exchange; RemovePeer and Close cancel it.
type syncer interface {
	// meshSync runs one anti-entropy round with the peer at addr: a
	// one-shot session over every object the node hosts. It returns the
	// objects the peer answered "not hosted" (or "different datatype")
	// for.
	meshSync(ctx context.Context, addr string) (missed []string, _ error)
	// openLink dials addr, runs the connect session over the connection
	// — a round in every respect — and switches it to stream mode.
	// missed is the connect session's.
	openLink(ctx context.Context, addr string) (_ link, missed []string, _ error)
}

// link is one live outbound connection in stream mode (peerLink). The
// supervisor calls Push from one goroutine at a time and Close from any.
type link interface {
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

// daemon is the node's always-on sync daemon: the supervised peers and
// what stops them. It spawns no goroutine until a peer is added.
type daemon struct {
	syncer syncer
	// ctx ends every supervisor: Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.RWMutex // guards peers and closed
	peers  map[string]*meshPeer
	closed bool
}

// meshSync is the daemon's anti-entropy round: the exact code path
// SyncWith uses, abortable through ctx.
func (n *Node) meshSync(ctx context.Context, addr string) ([]string, error) {
	missed, _, err := n.syncPeer(ctx, addr, false)
	return missed, err
}

// openLink runs a connect session with addr — the code path SyncWith
// uses, abortable through ctx — and returns its connection as a link in
// stream mode.
func (n *Node) openLink(ctx context.Context, addr string) (link, []string, error) {
	missed, l, err := n.syncPeer(ctx, addr, true)
	if err != nil {
		return nil, missed, err
	}
	return l, missed, nil
}

// AddPeer registers addr with the node's sync daemon, which dials its
// link immediately. Adding a present peer is a no-op.
func (n *Node) AddPeer(addr string) {
	d := &n.mesh
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if _, ok := d.peers[addr]; ok {
		return
	}
	ctx, cancel := context.WithCancel(d.ctx)
	p := &meshPeer{
		addr:   addr,
		kick:   make(chan struct{}, 1),
		ctx:    ctx,
		cancel: cancel,
		exited: make(chan struct{}),
		pushes: n.metrics.reg.Counter(pushesSeries, "peer", addr),
		stats:  MeshStats{Addr: addr, Score: 1},
	}
	d.peers[addr] = p
	d.wg.Add(1)
	go n.supervise(p)
}

// RemovePeer stops the daemon's supervision of addr and closes its link;
// once it returns, the peer receives nothing more from the daemon.
// Removing an unknown peer is a no-op.
func (n *Node) RemovePeer(addr string) {
	d := &n.mesh
	d.mu.Lock()
	p, ok := d.peers[addr]
	delete(d.peers, addr)
	closed := d.closed
	d.mu.Unlock()
	if !ok {
		return
	}
	p.cancel()
	<-p.exited
	if !closed { // Close forgets the peers it stopped
		n.forget(p)
	}
}

// Peers returns the daemon's supervised peer addresses, sorted.
func (n *Node) Peers() []string {
	n.mesh.mu.RLock()
	defer n.mesh.mu.RUnlock()
	return slices.Sorted(maps.Keys(n.mesh.peers))
}

// MeshStats is a snapshot of one peer's daemon state: whether its link
// is up, anti-entropy rounds completed (the link's connect sessions
// included), Pushes — stream batches written that carried commits —
// failures and the backoff they earned, a health score (1 = healthy,
// halved per failure), wire cost, the last time an exchange completed,
// and the last error. Its counter fields (Rounds, Pushes, Failures,
// Violations, Quarantines and the wire cost) are a view over the node's
// metrics registry: each is the sum of the series labelled with the
// peer's address, so they count from the first time the address was
// supervised or dialled and survive RemovePeer.
type MeshStats struct {
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
	// Violations counts failures classified as protocol violations
	// (corrupt frames, bad hellos, hash mismatches, a refused batch)
	// rather than plain network trouble; ConsecutiveViolations is the
	// streak since the last success (transient failures in between do
	// not reset it).
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

// MeshStats snapshots the daemon's per-peer state, keyed by address.
func (n *Node) MeshStats() map[string]MeshStats {
	n.mesh.mu.RLock()
	defer n.mesh.mu.RUnlock()
	out := make(map[string]MeshStats, len(n.mesh.peers))
	for addr, p := range n.mesh.peers {
		out[addr] = n.view(p)
	}
	return out
}

// PeerMeshStats snapshots one peer's daemon state; ok is false for
// addresses the daemon does not supervise.
func (n *Node) PeerMeshStats(addr string) (MeshStats, bool) {
	n.mesh.mu.RLock()
	p, ok := n.mesh.peers[addr]
	n.mesh.mu.RUnlock()
	if !ok {
		return MeshStats{}, false
	}
	return n.view(p), true
}

// view snapshots one peer: its supervisor state, with the counter fields
// summed from the registry. Reading under p.mu keeps the counters settle
// ticks consistent with the state it moves.
func (n *Node) view(p *meshPeer) MeshStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	sum := func(name string, match ...string) int64 {
		return n.metrics.reg.Sum(name, append(match, "peer", p.addr)...)
	}
	st.Rounds = sum(roundsSeries, "outcome", outcomeOK)
	st.Violations = sum(roundsSeries, "outcome", outcomeViolation)
	st.Failures = sum(roundsSeries, "outcome", outcomeTransient) + st.Violations
	st.Quarantines = sum(quarantineSeries, "change", "enter")
	st.Pushes = p.pushes.Value()
	st.BytesSent = sum(bytesSeries, "dir", "sent")
	st.BytesRecv = sum(bytesSeries, "dir", "recv")
	st.CommitsSent = sum(commitsSeries, "dir", "sent")
	st.CommitsRecv = sum(commitsSeries, "dir", "recv")
	return st
}

// notifyCommit records that the node installed commits (a local
// operation or a remote-merge head move) and kicks every peer's link to
// stream them. A peer whose link is down keeps the kick for its next
// link, whose connect session ships the commits anyway.
func (n *Node) notifyCommit() {
	n.mesh.mu.RLock()
	defer n.mesh.mu.RUnlock()
	for _, p := range n.mesh.peers {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// closeMesh stops every supervisor, cancels any in-flight exchange,
// closes every link, and waits for the drain. The stopped peers stay in
// the peer set, but their backoff and quarantine no longer count in the
// gauges. Node.Close calls it once.
func (n *Node) closeMesh() {
	d := &n.mesh
	d.mu.Lock()
	d.closed = true
	stopped := slices.Collect(maps.Values(d.peers))
	d.mu.Unlock()
	d.cancel()
	d.wg.Wait()
	for _, p := range stopped {
		n.forget(p)
	}
}

// Watch returns a channel of this object's remote-merge head moves.
// Events fire when a sync exchange (daemon round, link batch, or manual
// SyncWith — as client or server) changes the node branch's head with a
// peer's commits; local Do calls never produce events. Delivery never
// blocks replication: a slow consumer's buffer drops its oldest events
// first, so the newest head move is always the one waiting. The channel
// closes when ctx is cancelled or the node closes; either way the
// watcher detaches without leaking a goroutine.
func (h *Handle[S, Op, Val]) Watch(ctx context.Context) <-chan WatchEvent {
	return h.entry.watchers.add(ctx)
}
