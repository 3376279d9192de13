package peepul

// Node construction options. A NodeOption configures node-level concerns:
// durable storage, fsync policy, the mesh daemon, transport and
// observability. The storage options are declared here; the others sit
// beside what they tune (mesh.go, hardening.go, observe.go).

import (
	"path/filepath"
	"strings"
	"time"

	"repro/internal/disk"
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
	// peers seeds the sync daemon's supervised peer set; the mesh*
	// fields tune its cadence (resolveMesh replaces unset values with the
	// defaults; meshJitterSet distinguishes "explicitly no jitter" from
	// unset).
	peers          []string
	meshInterval   time.Duration
	meshJitter     time.Duration
	meshJitterSet  bool
	meshBackoffMin time.Duration
	meshBackoffMax time.Duration
	// meshQuar* tune the quarantine schedule for protocol-violating
	// peers.
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
	// obsEnabled turns on the node's flight recorder (WithObservability,
	// or WithDebugAddr which implies it); debugAddr, when set, serves the
	// live debug endpoint. obsReg is built by NewNode once the options
	// are folded, so the stores, logs and sync daemon all share the
	// node's registry.
	obsEnabled bool
	debugAddr  string
	obsReg     *obs.Registry
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

// NodeOption adjusts node construction; options plumb through to every
// object the node opens — for durable nodes, the storage directory,
// fsync policy and checkpoint cadence.
type NodeOption func(*nodeConfig)

// WithStorage makes the node durable: every object opened on it keeps a
// segmented, checksummed pack log in its own subdirectory of dir —
// every commit and delta-chained state object appended as it happens.
// A node forgets nothing, so the log only grows. Reopening a node of
// the same name over the same directory resumes each object with its
// full history, branches and clocks intact; a log damaged by a crash
// recovers to a verified prefix and re-converges through ordinary sync.
func WithStorage(dir string) NodeOption {
	return func(c *nodeConfig) { c.storageDir = dir }
}

// FsyncPolicy selects what a machine crash may cost a durable node:
// FsyncNever (the default) flushes to the OS on every operation and
// fsyncs only sealed segments; FsyncAlways fsyncs every operation.
type FsyncPolicy = disk.Policy

// Fsync policies for WithFsync.
const (
	FsyncNever  FsyncPolicy = disk.FsyncNever
	FsyncAlways FsyncPolicy = disk.FsyncAlways
)

// WithFsync sets a durable node's fsync policy; no effect without
// WithStorage.
func WithFsync(p FsyncPolicy) NodeOption {
	return func(c *nodeConfig) { c.fsync = p }
}

// WithCheckpointEvery sets the checkpoint cadence of a durable node's
// object logs: every n commits appended — one per operation, one per
// commit a sync lands, and one for a mutation that lands no commit,
// such as a fast-forward pull or a fork — the log seals its segment and writes an
// index checkpoint (the full commit/pack index, no state bytes), so
// reopening the node seeks to the checkpoint and replays only the records
// after it — flat-time restart however deep the history. Checkpoints are
// also written on clean close. The cadence is a
// floor: since a full checkpoint snapshots the whole index, deep logs
// throttle to geometric spacing so checkpoint bytes stay linear in the
// log. A clean close still checkpoints, so clean reopens stay flat, but
// while the entries since the last full checkpoint are under a quarter
// of it the close writes only those (a delta), so a close costs what the
// session added, not the history. The default cadence is 1024; values
// below 1 are clamped to 1. No effect without WithStorage.
func WithCheckpointEvery(n int) NodeOption {
	return func(c *nodeConfig) { c.checkpointEvery = max(n, 1) }
}

// WithVerifyOnOpen(true) restores eager verification: every recovered
// object's pack is fully reassembled and decoded at open, so corruption
// fails the open instead of a later read. The default (false) validates
// the commit index and leaves state bytes on disk until first use —
// the lazy open that keeps restart time independent of history size.
// (Before checkpointed recovery existed, the eager behaviour was
// unconditional.) No effect without WithStorage.
func WithVerifyOnOpen(v bool) NodeOption {
	return func(c *nodeConfig) { c.verifyOnOpen = v }
}

// storeOptions assembles the store options for one object: the store
// counts into the node's registry.
func (c *nodeConfig) storeOptions() []store.Option {
	return []store.Option{store.WithObs(c.obsReg)}
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
	opts := []disk.Option{disk.WithFsync(c.fsync), disk.WithObs(c.obsReg)}
	if c.checkpointEvery > 0 {
		opts = append(opts, disk.WithCheckpointEvery(c.checkpointEvery))
	}
	return opts
}
