package peepul

// Node hardening knobs: the transport injection point and the bounds
// that keep one hostile or broken peer from exhausting a node — the
// inbound session cap, the per-operation idle timeout, and the
// whole-session deadline. See DESIGN.md, "Failure model & hardening".

import "time"

// WithTransport makes the node dial and listen through t instead of
// plain TCP.
func WithTransport(t Transport) NodeOption {
	return func(c *nodeConfig) { c.transport = t }
}

// WithMaxInbound caps the node's concurrent inbound sync sessions
// (default 64): connections accepted past the cap are closed promptly
// and counted in Stats().InboundShed, so a dial storm can never pile up
// an unbounded number of handler goroutines. Zero keeps the default;
// negative removes the cap.
func WithMaxInbound(n int) NodeOption {
	return func(c *nodeConfig) { c.maxInbound = n }
}

// WithSyncTimeout bounds how long one read or write of a sync exchange
// may stall before the connection errors out (default 30s). A peer that
// keeps making progress can transfer arbitrarily much; one that goes
// silent is cut off instead of wedging the exchange. An idle mesh link
// writes a heartbeat every third of this bound, so fleets should share
// it. Zero and below keep the default.
func WithSyncTimeout(d time.Duration) NodeOption {
	return func(c *nodeConfig) { c.syncTO = d }
}

// WithSessionTimeout bounds a whole sync session, client or server side
// (default 3m). The idle timeout cannot stop a dribbling peer — one
// byte per idle window is progress forever — so this is the hard cap on
// how long any single session can run. A mesh link leaves the bound once
// its connect session is done. Zero or negative disables the bound.
func WithSessionTimeout(d time.Duration) NodeOption {
	return func(c *nodeConfig) { c.sessionTO, c.sessionTOSet = d, true }
}

// WithMeshQuarantine tunes how the sync daemon quarantines
// protocol-violating peers: after `after` violations in a row (corrupt
// frames, bad hellos, hash mismatches — without an intervening clean
// exchange) the peer moves to the quarantine retry schedule, min
// doubling to max per further violation (defaults 3, 1m, 15m).
// Transient network failures never quarantine: an unreachable peer
// keeps the ordinary exponential backoff. MeshStats reports the
// quarantine state and its recorded reason per peer. Non-positive
// values keep the defaults.
func WithMeshQuarantine(after int, min, max time.Duration) NodeOption {
	return func(c *nodeConfig) {
		c.meshQuarAfter, c.meshQuarMin, c.meshQuarMax = after, min, max
	}
}
