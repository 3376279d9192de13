package replica

// Node construction options. A NodeOption configures node-level concerns:
// durable storage, fsync policy, the mesh daemon, transport and
// observability.

import (
	"path/filepath"
	"strings"
	"time"

	"repro/internal/disk"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/store"
)

// nodeConfig collects a node's construction-time settings.
type nodeConfig struct {
	storageDir string
	fsync      disk.Policy
	// checkpointEvery overrides the log's checkpoint cadence when
	// positive; verifyOnOpen turns the full pack verification back on at
	// open time.
	checkpointEvery int
	verifyOnOpen    bool
	// peers seeds the mesh engine's supervised peer set; the mesh*
	// fields tune its cadence (zero values keep the engine defaults,
	// meshJitterSet distinguishes "explicitly no jitter" from unset).
	peers          []string
	meshInterval   time.Duration
	meshJitter     time.Duration
	meshJitterSet  bool
	meshBackoffMin time.Duration
	meshBackoffMax time.Duration
	// meshQuar* tune the quarantine schedule for protocol-violating
	// peers (zero values keep the engine defaults).
	meshQuarAfter int
	meshQuarMin   time.Duration
	meshQuarMax   time.Duration
	// transport overrides how the node dials and listens (nil = TCP).
	transport Transport
	// maxInbound caps concurrent inbound sync sessions; zero selects the
	// default, negative means unlimited.
	maxInbound int
	// syncTO is the per-read/write idle bound of a sync exchange;
	// sessionTO bounds a whole session (sessionTOSet distinguishes
	// "explicitly unbounded" from unset).
	syncTO       time.Duration
	sessionTO    time.Duration
	sessionTOSet bool
	// obsEnabled turns on the node's metrics registry and flight
	// recorder (WithObservability, or WithDebugAddr which implies it);
	// debugAddr, when set, serves the live debug endpoint. obsReg and
	// obsRec are resolved by NewNode once the options are folded, so
	// the store, disk and mesh layers all share the node's registry.
	obsEnabled bool
	debugAddr  string
	obsReg     *obs.Registry
	obsRec     *obs.Recorder
}

// defaultMaxInbound is the default cap on concurrent inbound sync
// sessions.
const defaultMaxInbound = 64

// transportOrTCP resolves the node's transport.
func (c *nodeConfig) transportOrTCP() Transport {
	if c.transport != nil {
		return c.transport
	}
	return TCPTransport{}
}

// inboundLimit resolves the inbound session cap.
func (c *nodeConfig) inboundLimit() int {
	switch {
	case c.maxInbound > 0:
		return c.maxInbound
	case c.maxInbound < 0:
		return int(^uint(0) >> 1) // effectively unlimited
	}
	return defaultMaxInbound
}

// syncTimeout resolves the per-operation idle bound.
func (c *nodeConfig) syncTimeout() time.Duration {
	if c.syncTO > 0 {
		return c.syncTO
	}
	return defaultSyncTimeout
}

// sessionTimeout resolves the whole-session bound (zero = unbounded).
func (c *nodeConfig) sessionTimeout() time.Duration {
	if c.sessionTOSet {
		return max(c.sessionTO, 0)
	}
	return defaultSessionTimeout
}

// NodeOption adjusts node construction.
type NodeOption func(*nodeConfig)

// WithStorage makes the node durable: every object opened on it keeps a
// segmented pack log (internal/disk) in its own subdirectory of dir, and
// reopening a node with the same name over the same directory resumes
// every object with its full history, branches and clocks intact.
func WithStorage(dir string) NodeOption {
	return func(c *nodeConfig) { c.storageDir = dir }
}

// WithFsync sets the fsync policy of the node's object logs; it has no
// effect without WithStorage.
func WithFsync(p disk.Policy) NodeOption {
	return func(c *nodeConfig) { c.fsync = p }
}

// WithCheckpointEvery sets the checkpoint cadence of the node's object
// logs: after n mutations (a floor — deep logs throttle to geometric
// spacing) the log writes an index checkpoint, so reopening seeks past
// history instead of replaying it; a clean close writes a delta against
// the last full checkpoint while that is under a quarter of it. Values
// below 1 are clamped to 1. It has no effect without WithStorage.
func WithCheckpointEvery(n int) NodeOption {
	return func(c *nodeConfig) { c.checkpointEvery = max(n, 1) }
}

// WithVerifyOnOpen makes every object open fully verify its recovered
// pack — reassembling and decoding each retained state — before the
// object is handed out, failing at open instead of on first read. The
// default (off) validates the commit index only and leaves state bytes
// on disk until used, which is what keeps reopening flat in history
// depth. It has no effect without WithStorage.
func WithVerifyOnOpen(v bool) NodeOption {
	return func(c *nodeConfig) { c.verifyOnOpen = v }
}

// WithPeers seeds the node's always-on sync daemon with peer addresses:
// from construction on, a supervisor goroutine per address keeps a link
// to it streaming every commit the node installs and runs jittered
// anti-entropy rounds, with exponential backoff while a peer is
// unreachable. Equivalent to calling AddPeer for each address right
// after NewNode.
func WithPeers(addrs ...string) NodeOption {
	return func(c *nodeConfig) { c.peers = append(c.peers, addrs...) }
}

// WithMeshInterval sets the daemon's anti-entropy round period per peer
// (default 2s). Zero and below keep the default.
func WithMeshInterval(d time.Duration) NodeOption {
	return func(c *nodeConfig) { c.meshInterval = d }
}

// WithMeshJitter caps the random addition to each round's delay (default
// a quarter of the interval). Zero disables jitter entirely.
func WithMeshJitter(d time.Duration) NodeOption {
	return func(c *nodeConfig) { c.meshJitter, c.meshJitterSet = d, true }
}

// WithMeshBackoff sets the daemon's failure retry window: min is the
// delay after a first failure, doubling per consecutive failure up to
// max (defaults 250ms and 30s). Non-positive values keep the defaults.
func WithMeshBackoff(min, max time.Duration) NodeOption {
	return func(c *nodeConfig) { c.meshBackoffMin, c.meshBackoffMax = min, max }
}

// WithMeshQuarantine tunes how the daemon quarantines protocol-violating
// peers: after violations in a row without an intervening success (ones
// the classifier marks — corrupt frames, bad hellos, hash mismatches) a
// peer moves to the quarantine retry schedule, min doubling to max per
// further violation (defaults 3, 1m, 15m). Non-positive values keep the
// defaults. PeerMeshStats reports the state and the recorded reason.
func WithMeshQuarantine(after int, min, max time.Duration) NodeOption {
	return func(c *nodeConfig) {
		c.meshQuarAfter, c.meshQuarMin, c.meshQuarMax = after, min, max
	}
}

// WithTransport makes the node dial and listen through t instead of
// plain TCP — the injection point for fault-injection transports
// (internal/faultnet) and, later, authenticated ones.
func WithTransport(t Transport) NodeOption {
	return func(c *nodeConfig) { c.transport = t }
}

// WithMaxInbound caps the node's concurrent inbound sync sessions
// (default 64): connections accepted past the cap are closed promptly
// and counted in SyncStats.InboundShed, so a dial storm cannot pile up
// goroutines. Zero keeps the default; negative removes the cap.
func WithMaxInbound(n int) NodeOption {
	return func(c *nodeConfig) { c.maxInbound = n }
}

// WithSyncTimeout bounds how long one read or write of a sync exchange
// may stall before the connection errors out (default 30s). A peer that
// keeps making progress can transfer arbitrarily much; one that goes
// silent is cut off. An idle link writes a heartbeat every third of this
// bound, so fleets should share it. Zero and below keep the default.
func WithSyncTimeout(d time.Duration) NodeOption {
	return func(c *nodeConfig) { c.syncTO = d }
}

// WithObservability turns on the node's flight recorder and metrics
// registry: every layer — wire framing, store merges, disk appends,
// mesh rounds, sync sessions — records into one obs.Registry, sync
// sessions leave trace spans retrievable with Trace, and the registry
// is exposed through Registry (and, with WithDebugAddr, over HTTP).
// Off by default; the disabled hot paths pay one nil check per site.
func WithObservability() NodeOption {
	return func(c *nodeConfig) { c.obsEnabled = true }
}

// WithDebugAddr serves the node's debug endpoint on addr ("127.0.0.1:0"
// picks a free port — read it back with DebugAddr): /metrics in
// Prometheus text format, /debug/peepul/snapshot (one JSON document
// unifying sync stats, per-object stats, mesh peer state, the metric
// registry and the recent trace), /debug/peepul/trace, /healthz, and
// the net/http/pprof profiles under /debug/pprof/. Implies
// WithObservability.
func WithDebugAddr(addr string) NodeOption {
	return func(c *nodeConfig) { c.debugAddr, c.obsEnabled = addr, true }
}

// WithSessionTimeout bounds a whole sync session, client or server side
// (default 3m). The idle timeout cannot stop a dribbling peer — one
// byte per idle window is progress forever — so this is the hard cap on
// how long any one peer can hold a session (a handler slot, a
// peer-address turn). A mesh link leaves the bound once its connect
// session is done: it lives until its dialer closes it. Zero or negative
// disables the bound.
func WithSessionTimeout(d time.Duration) NodeOption {
	return func(c *nodeConfig) { c.sessionTO, c.sessionTOSet = d, true }
}

// meshConfig assembles the mesh engine configuration.
func (c *nodeConfig) meshConfig() mesh.Config {
	mc := mesh.Config{
		Interval:        c.meshInterval,
		BackoffMin:      c.meshBackoffMin,
		BackoffMax:      c.meshBackoffMax,
		Classify:        classifyFailure,
		QuarantineAfter: c.meshQuarAfter,
		QuarantineMin:   c.meshQuarMin,
		QuarantineMax:   c.meshQuarMax,
	}
	if c.meshJitterSet {
		mc.Jitter = c.meshJitter
		if c.meshJitter == 0 {
			mc.Jitter = -1 // explicit zero means "no jitter", not "default"
		}
	}
	mc.Obs = c.obsReg
	mc.Recorder = c.obsRec
	return mc
}

// storeOptions assembles the store options for one object, including
// the node's observability registry when enabled.
func (c *nodeConfig) storeOptions() []store.Option {
	if c.obsReg != nil {
		return []store.Option{store.WithObs(c.obsReg)}
	}
	return nil
}

// objectDirName maps an object name to a filesystem-safe directory name:
// alphanumerics, dot, dash and underscore pass through, every other byte
// is %XX-escaped — deterministic, collision-free, and readable for the
// common case of simple names.
func objectDirName(object string) string {
	var b strings.Builder
	b.WriteString("obj-")
	for i := 0; i < len(object); i++ {
		c := object[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
			b.WriteByte(c)
		default:
			const hex = "0123456789ABCDEF"
			b.WriteByte('%')
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xF])
		}
	}
	return b.String()
}

// objectDir is the storage directory of one object's log.
func (c *nodeConfig) objectDir(object string) string {
	return filepath.Join(c.storageDir, objectDirName(object))
}

// logOptions assembles the disk options for one object log.
func (c *nodeConfig) logOptions() []disk.Option {
	opts := []disk.Option{disk.WithFsync(c.fsync)}
	if c.checkpointEvery > 0 {
		opts = append(opts, disk.WithCheckpointEvery(c.checkpointEvery))
	}
	if c.obsReg != nil {
		opts = append(opts, disk.WithObs(c.obsReg))
	}
	return opts
}
