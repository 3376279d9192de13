package peepul

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/replica"
	"repro/internal/store"
)

// NodeOption adjusts node construction; options plumb through to every
// object the node opens — for durable nodes, the storage directory,
// fsync policy and checkpoint cadence.
type NodeOption = replica.NodeOption

// WithStorage makes the node durable: every object opened on it keeps a
// segmented, checksummed pack log in its own subdirectory of dir —
// every commit and delta-chained state object appended as it happens,
// compacted whenever the store garbage-collects. Reopening a node of
// the same name over the same directory resumes each object with its
// full history, branches and clocks intact; a log damaged by a crash
// recovers to a verified prefix and re-converges through ordinary sync.
func WithStorage(dir string) NodeOption { return replica.WithStorage(dir) }

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
func WithFsync(p FsyncPolicy) NodeOption { return replica.WithFsync(p) }

// WithCheckpointEvery sets the checkpoint cadence of a durable node's
// object logs: every n operations the log seals its segment and writes
// an index checkpoint (the full commit/pack index, no state bytes), so
// reopening the node seeks to the checkpoint and replays only the records
// after it — flat-time restart however deep the history. Checkpoints are
// also written after compaction and on clean close. The cadence is a
// floor: since a full checkpoint snapshots the whole index, deep logs
// throttle to geometric spacing so checkpoint bytes stay linear in the
// log. A clean close still checkpoints, so clean reopens stay flat, but
// while the entries since the last full checkpoint are under a quarter
// of it the close writes only those (a delta), so a close costs what the
// session added, not the history. The default cadence is 1024; values
// below 1 are clamped to 1. No effect without WithStorage.
func WithCheckpointEvery(n int) NodeOption { return replica.WithCheckpointEvery(n) }

// WithVerifyOnOpen(true) restores eager verification: every recovered
// object's pack is fully reassembled and decoded at open, so corruption
// fails the open instead of a later read. The default (false) validates
// the commit index and leaves state bytes on disk until first use —
// the lazy open that keeps restart time independent of history size.
// (Before checkpointed recovery existed, the eager behaviour was
// unconditional.) No effect without WithStorage.
func WithVerifyOnOpen(v bool) NodeOption { return replica.WithVerifyOnOpen(v) }

// StorageStats is the pack-log accounting of one durable object: live
// segments and bytes on disk, records appended and recovered, what
// recovery truncated, fsyncs and compactions, checkpoints written, the
// records accumulated since the last checkpoint (CheckpointAge — the
// suffix the next open replays), and how the last open recovered
// (RecoveryMode: "checkpoint", "replay" or "cold").
type StorageStats = disk.Stats

// Node is one replica hosting a set of named replicated objects. Create
// objects with Open; replicate with Listen/SyncWith. Safe for concurrent
// use, and read-parallel: per-object queries (State, Stats, range
// fingerprints, delta export) share a read lock on the object's store and
// run concurrently with each other, serializing only against mutations
// (Do, Pull, Sync). Merge cost is O(divergence) — the store's
// generation-guided DAG walks never descend past the merge base — so
// long-lived replicas pull as fast as freshly created ones.
type Node struct {
	rn *replica.Node
}

// NewNode creates a replica named name with fleet-unique id replicaID in
// [0, MaxReplicaID]. The name doubles as the node's branch name in every
// object's store and as its peer identity on the wire; names and ids must
// be unique across the fleet.
func NewNode(name string, replicaID int, opts ...NodeOption) (*Node, error) {
	rn, err := replica.NewNode(name, replicaID, opts...)
	if err != nil {
		return nil, err
	}
	return &Node{rn: rn}, nil
}

// Name returns the node's name.
func (n *Node) Name() string { return n.rn.Name() }

// Objects returns the names of the objects the node hosts, sorted.
func (n *Node) Objects() []string { return n.rn.Objects() }

// Listen starts serving sync requests on addr ("127.0.0.1:0" picks a
// free port).
func (n *Node) Listen(addr string) error { return n.rn.Listen(addr) }

// Addr returns the listening address, or "" before Listen.
func (n *Node) Addr() string { return n.rn.Addr() }

// Close stops serving and waits for in-flight sync handlers.
func (n *Node) Close() error { return n.rn.Close() }

// SyncWith synchronizes every object this node hosts with the peer at
// addr over a single connection, object by object: range fingerprints
// resolve exactly which commits each side lacks, and only those cross
// the wire. Objects the peer does not host are skipped (counted in
// Stats().Misses). The session ships what this node held when it
// connected — Do never waits for it, and commits made while it runs
// travel with the next link batch or round; between quiescent nodes a
// successful exchange leaves both with equal states on every shared
// object.
func (n *Node) SyncWith(addr string) error { return n.rn.SyncWith(addr) }

// Stats returns the node's aggregate sync counters.
func (n *Node) Stats() SyncStats { return n.rn.Stats() }

// ObjectStats returns one object's sync counters.
func (n *Node) ObjectStats(object string) SyncStats { return n.rn.ObjectStats(object) }

// Open returns a typed handle on node n's object named object,
// creating the object with datatype d if it does not exist yet
// (get-or-create, like opening a key in an Irmin repository). Re-opening
// an existing object requires the same datatype; a mismatch is an error,
// never a corrupted merge.
func Open[S, Op, Val any](n *Node, d Datatype[S, Op, Val], object string) (*Handle[S, Op, Val], error) {
	if d.Name == "" || d.Impl == nil || d.Codec == nil {
		return nil, fmt.Errorf("peepul: Open %q: incomplete datatype descriptor", object)
	}
	obj, err := replica.Ensure[S, Op, Val](n.rn, object, d.Name, d.Impl, d.Codec)
	if err != nil {
		return nil, err
	}
	return &Handle[S, Op, Val]{node: n, object: object, obj: obj}, nil
}

// Handle is a typed view of one named object on a node. Do/State operate
// on the node's own branch; Fork/DoOn/Pull/Sync manipulate additional
// local branches of the same object (the paper's branch-and-merge
// programming model inside one replica).
type Handle[S, Op, Val any] struct {
	node   *Node
	object string
	obj    *replica.TypedObject[S, Op, Val]
}

// Object returns the object's name on the node.
func (h *Handle[S, Op, Val]) Object() string { return h.object }

// Node returns the node hosting the object.
func (h *Handle[S, Op, Val]) Node() *Node { return h.node }

// Branch returns the node's branch name (the branch Do operates on).
func (h *Handle[S, Op, Val]) Branch() string { return h.obj.Branch() }

// Do applies an operation on the node's branch with a fresh timestamp
// and returns the operation's value.
func (h *Handle[S, Op, Val]) Do(op Op) (Val, error) { return h.obj.Do(op) }

// State returns the current state of the node's branch.
func (h *Handle[S, Op, Val]) State() (S, error) { return h.obj.State() }

// Fork creates local branch name from the node branch's current head
// (the CREATEBRANCH rule).
func (h *Handle[S, Op, Val]) Fork(name string) error {
	return h.obj.Store().Fork(h.obj.Branch(), name)
}

// DoOn applies an operation on the named local branch.
func (h *Handle[S, Op, Val]) DoOn(branch string, op Op) (Val, error) {
	return h.obj.Store().Apply(branch, op)
}

// StateOf returns the current state of the named local branch.
func (h *Handle[S, Op, Val]) StateOf(branch string) (S, error) {
	return h.obj.Store().Head(branch)
}

// Pull merges branch src into branch dst (the MERGE rule): dst takes
// src's heads beside its own, and its state becomes their canonical
// merge — three-way MRDT merges over bases carrying exactly the common
// operations (the store's Ψ_lca guarantee) — which dst's next Do commits.
// A pull onto the node branch takes only the store's lock — it never
// waits for a sync session — and is streamed to mesh peers like a Do.
func (h *Handle[S, Op, Val]) Pull(dst, src string) error {
	return h.obj.PullLocal(dst, src)
}

// Sync converges two local branches atomically: each pulls the other,
// so both hold the same heads and equal states. Like Pull, it never
// waits for a sync session, and involving the node branch notifies mesh
// peers.
func (h *Handle[S, Op, Val]) Sync(a, b string) error {
	return h.obj.SyncLocal(a, b)
}

// Stats returns the object's sync counters on this node.
func (h *Handle[S, Op, Val]) Stats() SyncStats { return h.node.ObjectStats(h.object) }

// StorageStats reports the object's on-disk pack-log accounting; ok is
// false when the node was opened without WithStorage.
func (h *Handle[S, Op, Val]) StorageStats() (StorageStats, bool) { return h.obj.StorageStats() }

// Store exposes the object's embedded versioned store for advanced use
// (branch listing, export/import, garbage collection).
func (h *Handle[S, Op, Val]) Store() *store.Store[S, Op, Val] { return h.obj.Store() }
