package peepul

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/recon"
	"repro/internal/store"
)

// syncStore is the store surface sync sessions and links use, with the
// object's concrete types erased: *store.Store implements it for every
// datatype, and sessions pass the node branch explicitly.
type syncStore interface {
	HeadHash(branch string) (store.Hash, error)
	HasCommit(h store.Hash) bool
	ReconRoot() (recon.Fingerprint, int)
	ReconRange(x, y recon.Item) (recon.Fingerprint, int)
	ReconItems(x, y recon.Item, max int) []recon.Item
	ReconSelect(x, y recon.Item, k int) (recon.Item, bool)
	Snapshot(branch string) (*store.Capture, error)
	ExportSet(c *store.Capture, ship map[store.Hash]bool, mode store.ExportMode, held string) ([]store.ExportedCommit, []store.Hash, error)
	Integrate(branch, via string, batch []store.ExportedCommit, heads []store.Hash) (redundant int, after store.Hash, moved bool, err error)
	FlushStorage() error
}

// StorageStats is the pack-log accounting of one durable object: live
// segments and bytes on disk, records appended and recovered, what
// recovery truncated, fsyncs and compactions, checkpoints written, the
// records accumulated since the last checkpoint (CheckpointAge — the
// suffix the next open replays), and how the last open recovered
// (RecoveryMode: "checkpoint", "replay" or "cold").
type StorageStats = disk.Stats

// Open returns a typed handle on node n's object named object,
// creating the object with datatype d if it does not exist yet
// (get-or-create, like opening a key in an Irmin repository). Re-opening
// an existing object requires the same datatype (the same name and the
// same concrete types); a mismatch is an ErrObject error, never a
// corrupted merge.
//
// On a durable node (WithStorage), the object's segmented pack log is
// opened (and recovered) from its own subdirectory of the storage
// directory: a fresh directory starts empty and records the datatype in
// the log's metadata; an existing one replays the object's entire
// history — refusing a log written under a different datatype, by a
// node of a different name or by an older build that addressed states
// another way (checkGuard), so storage mix-ups fail loudly instead of
// merging incompatible states.
func Open[S, Op, Val any](n *Node, d Datatype[S, Op, Val], object string) (*Handle[S, Op, Val], error) {
	if d.Name == "" || d.Impl == nil || d.Codec == nil {
		return nil, fmt.Errorf("peepul: Open %q: incomplete datatype descriptor", object)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.objects[object]; ok {
		h, ok := e.handle.(*Handle[S, Op, Val])
		if !ok || e.datatype != d.Name {
			return nil, fmt.Errorf("%w: object %q already open as datatype %s", ErrObject, object, e.datatype)
		}
		return h, nil
	}
	// Every object is an independent DAG, so objects can share the node's
	// replica-id block: timestamps are only ever compared within one
	// object.
	if n.cfg.storageDir == "" {
		st := store.NewAt(d.Impl, d.Codec, n.name, n.replicaID*64, n.cfg.storeOptions()...)
		return host(n, object, d.Name, st, nil), nil
	}

	// The recovery ladder: open normally (checkpoint seek with lazy
	// state, falling back to segment replay inside disk.Open), and if the
	// recovered index fails store-level validation, reopen once with a
	// forced full replay — the checkpoint may index bytes that a crash
	// damaged behind it, and a full replay truncates at the damage and
	// recovers the clean prefix instead.
	dir := n.cfg.objectDir(object)
	logOpts := n.cfg.logOptions()
	log, rec, err := disk.Open(dir, logOpts...)
	if err != nil {
		return nil, fmt.Errorf("%w: opening storage for %q: %v", ErrObject, object, err)
	}
	if err := checkGuard(log, &rec.State, object, d.Name); err != nil {
		log.Close()
		return nil, err
	}
	st, err := openRecoveredStore(n, log, rec, object, d.Impl, d.Codec)
	if err != nil && rec.Mode == disk.ModeCheckpoint {
		log.Close()
		log, rec, err = disk.Open(dir, append(append([]disk.Option(nil), logOpts...), disk.WithFullReplay())...)
		if err != nil {
			return nil, fmt.Errorf("%w: opening storage for %q: %v", ErrObject, object, err)
		}
		st, err = openRecoveredStore(n, log, rec, object, d.Impl, d.Codec)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	return host(n, object, d.Name, st, log), nil
}

// Handle is a typed view of one named object on a node. Do/State operate
// on the node's own branch; Fork/DoOn/Pull/Sync manipulate additional
// local branches of the same object (the paper's branch-and-merge
// programming model inside one replica). The object is a full versioned
// store whose branch named after the node carries the node's state;
// every Open of it returns the same Handle.
type Handle[S, Op, Val any] struct {
	node  *Node
	entry *objectEntry
	st    *store.Store[S, Op, Val]
}

// host registers a new object on n, whose lock the caller holds, and
// returns its handle.
func host[S, Op, Val any](n *Node, object, datatype string, st *store.Store[S, Op, Val], log *disk.Log) *Handle[S, Op, Val] {
	e := &objectEntry{name: object, datatype: datatype, st: st, log: log, watchers: newWatcherSet()}
	h := &Handle[S, Op, Val]{node: n, entry: e, st: st}
	e.handle = h
	n.objects[object] = e
	return h
}

// addressing names the state-address format of the commits a log holds
// (store.StateAddr: the root of a chunk tree over the encoding). The
// log's datatype guard carries it, so a log this build writes and one an
// older build wrote — whose commits pin states by the SHA-256 of the
// whole encoding — refuse each other: an older build compares the guard
// with its bare datatype name and finds a different datatype.
const addressing = "chunk-tree"

// guardOf is the datatype guard this build stamps on a log of datatype.
func guardOf(datatype string) string { return datatype + "@" + addressing }

// checkGuard checks the log's datatype guard, stamping it on a log that
// holds nothing yet, before the store writes its first records, so no
// crash window can leave a log with history but no guard. A log an older
// build wrote is refused, and nothing is written to it: a bare datatype
// guard, or no guard on a log with history, means its states are
// addressed the old way.
func checkGuard(log *disk.Log, rec *store.RecoveredState, object, datatype string) error {
	dt, ok := log.Meta("datatype")
	switch {
	case dt == guardOf(datatype):
		return nil
	case ok && dt == datatype || !ok && (len(rec.Commits) > 0 || len(rec.Branches) > 0 || rec.Frozen != nil):
		return fmt.Errorf("%w: storage for %q was written by an older build, which addresses states by the SHA-256 of their whole encoding; this build addresses them by chunk tree (%s) and does not read it", ErrObject, object, addressing)
	case ok:
		return fmt.Errorf("%w: storage for %q holds datatype %s, want %s", ErrObject, object, dt, guardOf(datatype))
	}
	if err := log.SetMeta("datatype", guardOf(datatype)); err != nil {
		return fmt.Errorf("%w: storage for %q: %v", ErrObject, object, err)
	}
	return nil
}

// openRecoveredStore builds the object's store from the recovered state
// of a log whose guard checkGuard accepted — one rung of Open's
// recovery ladder. WithVerifyOnOpen makes it verify the whole pack
// before it hands the store out.
func openRecoveredStore[S, Op, Val any](n *Node, log *disk.Log, rec *disk.Recovered, object string, impl core.MRDT[S, Op, Val], codec store.Codec[S]) (*store.Store[S, Op, Val], error) {
	st, err := store.OpenRecovered(impl, codec, n.name, n.replicaID*64, &rec.State, append(n.cfg.storeOptions(), store.WithPersister(log))...)
	if err == nil && n.cfg.verifyOnOpen {
		err = st.VerifyPack()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: recovering %q: %v", ErrObject, object, err)
	}
	return st, nil
}

// Object returns the object's name on the node.
func (h *Handle[S, Op, Val]) Object() string { return h.entry.name }

// Node returns the node hosting the object.
func (h *Handle[S, Op, Val]) Node() *Node { return h.node }

// Branch returns the node's branch name (the branch Do operates on).
func (h *Handle[S, Op, Val]) Branch() string { return h.node.name }

// Do applies an operation on the node's branch with a fresh timestamp
// and returns the operation's value. It notifies the node's mesh daemon,
// whose links stream the commit to interested peers (commits landing
// while a write is in flight share the next one). Do takes only the
// store's lock: a sync session in flight ships from the snapshot it
// opened with and merges its reply into whatever head the branch has by
// then, and a link drains its capture on its own goroutine, so a commit
// never waits for the network.
func (h *Handle[S, Op, Val]) Do(op Op) (Val, error) {
	v, err := h.st.Apply(h.node.name, op)
	if err == nil {
		h.node.notifyCommit()
	}
	return v, err
}

// State returns the current state of the node's branch.
func (h *Handle[S, Op, Val]) State() (S, error) { return h.st.Head(h.node.name) }

// Fork creates local branch name from the node branch's current head
// (the CREATEBRANCH rule).
func (h *Handle[S, Op, Val]) Fork(name string) error {
	return h.st.Fork(h.node.name, name)
}

// DoOn applies an operation on the named local branch.
func (h *Handle[S, Op, Val]) DoOn(branch string, op Op) (Val, error) {
	return h.st.Apply(branch, op)
}

// StateOf returns the current state of the named local branch.
func (h *Handle[S, Op, Val]) StateOf(branch string) (S, error) {
	return h.st.Head(branch)
}

// Pull merges branch src into branch dst (the MERGE rule): dst takes
// src's heads beside its own, and its state becomes their canonical
// merge — three-way MRDT merges over bases carrying exactly the common
// operations (the store's Ψ_lca guarantee) — which dst's next Do commits.
// A pull onto the node branch takes only the store's lock — it never
// waits for a sync session — and is streamed to mesh peers like a Do.
func (h *Handle[S, Op, Val]) Pull(dst, src string) error {
	err := h.st.Pull(dst, src)
	if err == nil && dst == h.node.name {
		h.node.notifyCommit()
	}
	return err
}

// Sync converges two local branches atomically: each pulls the other,
// so both hold the same heads and equal states. Like Pull, it never
// waits for a sync session, and involving the node branch notifies mesh
// peers.
func (h *Handle[S, Op, Val]) Sync(a, b string) error {
	err := h.st.Sync(a, b)
	if err == nil && (a == h.node.name || b == h.node.name) {
		h.node.notifyCommit()
	}
	return err
}

// Stats returns the object's sync counters on this node.
func (h *Handle[S, Op, Val]) Stats() SyncStats { return h.node.ObjectStats(h.entry.name) }

// StorageStats reports the object's on-disk pack-log accounting; ok is
// false when the node was opened without WithStorage.
func (h *Handle[S, Op, Val]) StorageStats() (StorageStats, bool) {
	if h.entry.log == nil {
		return StorageStats{}, false
	}
	return h.entry.log.Stats(), true
}

// Store exposes the object's embedded versioned store for advanced use
// (branch listing, head sets, export/import, pack statistics).
func (h *Handle[S, Op, Val]) Store() *store.Store[S, Op, Val] { return h.st }
