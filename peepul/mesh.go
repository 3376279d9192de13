package peepul

// Always-on replication: the public face of the internal/mesh engine.
// A node given peers (WithPeers at construction, AddPeer later) keeps
// itself converged without any application SyncWith calls — one
// supervisor goroutine per peer keeps one long-lived link to it, which
// streams every commit the node installs as it lands (commits that land
// during a write share the next one), jittered anti-entropy rounds
// repair what the links cannot see, and unreachable peers are retried
// with exponential backoff. Watch turns remote-merge head moves into a
// channel, so a UI or cache reacts to replication instead of polling
// state.

import (
	"context"
	"time"

	"repro/internal/mesh"
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

// AddPeer registers addr with the node's sync daemon, which dials its
// link immediately. Adding a present peer is a no-op.
func (n *Node) AddPeer(addr string) { n.engine.AddPeer(addr) }

// RemovePeer stops the daemon's supervision of addr and closes its link;
// once it returns, the peer receives nothing more from the daemon.
// Removing an unknown peer is a no-op.
func (n *Node) RemovePeer(addr string) { n.engine.RemovePeer(addr) }

// Peers returns the daemon's supervised peer addresses, sorted.
func (n *Node) Peers() []string { return n.engine.Peers() }

// MeshStats is a snapshot of one peer's daemon state: whether its link
// is up, anti-entropy rounds completed (the link's connect sessions
// included), Pushes — stream batches written that carried commits —
// failures and the backoff they earned, a health score (1 = healthy,
// halved per failure), wire cost, the last time an exchange completed,
// and the last error. Its counters are a view over the node's metrics
// registry: the series labelled with the peer's address.
type MeshStats = mesh.PeerStats

// MeshStats snapshots the daemon's per-peer state, keyed by address.
func (n *Node) MeshStats() map[string]MeshStats { return n.engine.Stats() }

// PeerMeshStats snapshots one peer's daemon state; ok is false for
// addresses the daemon does not supervise.
func (n *Node) PeerMeshStats(addr string) (MeshStats, bool) { return n.engine.PeerStats(addr) }

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
