package replica

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/recon"
	"repro/internal/store"
)

// Object is the type-erased view of one named replicated object a Node
// hosts. Concrete objects are TypedObjects.
type Object interface {
	// Datatype is the registered datatype name; hellos carry it so two
	// nodes never merge states of different types under one object name.
	Datatype() string
	// Head returns the name of the node branch's current head set
	// (store.HeadSetHash).
	Head() (store.Hash, error)
}

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

// TypedObject is one named object with its concrete types intact: a full
// versioned store whose branch named after the node carries the node's
// state. The public peepul package wraps it in a typed handle.
type TypedObject[S, Op, Val any] struct {
	datatype string
	branch   string
	node     *Node
	entry    *objectEntry
	st       *store.Store[S, Op, Val]
	log      *disk.Log // nil on in-memory nodes
}

// Ensure returns node n's object named object, creating it if absent.
// An existing object must have been created with the same datatype name
// and the same concrete types; a mismatch is an ErrObject error.
//
// On a durable node (WithStorage), the object's segmented pack log is
// opened (and recovered) from its own subdirectory of the storage
// directory: a fresh directory starts empty and records the datatype in
// the log's metadata; an existing one replays the object's entire
// history — refusing a log written under a different datatype, by a
// node of a different name or by an older build that addressed states
// another way (checkGuard), so storage mix-ups fail loudly instead of
// merging incompatible states.
func Ensure[S, Op, Val any](n *Node, object, datatype string, impl core.MRDT[S, Op, Val], codec store.Codec[S]) (*TypedObject[S, Op, Val], error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.objects[object]; ok {
		to, ok := e.obj.(*TypedObject[S, Op, Val])
		if !ok || to.datatype != datatype {
			return nil, fmt.Errorf("%w: object %q already open as datatype %s", ErrObject, object, e.obj.Datatype())
		}
		return to, nil
	}
	// Every object is an independent DAG, so objects can share the node's
	// replica-id block: timestamps are only ever compared within one
	// object.
	if n.cfg.storageDir == "" {
		st := store.NewAt(impl, codec, n.name, n.replicaID*64, n.cfg.storeOptions()...)
		to := &TypedObject[S, Op, Val]{datatype: datatype, branch: n.name, node: n, st: st}
		e := &objectEntry{name: object, obj: to, st: st, watchers: newWatcherSet()}
		to.entry = e
		n.objects[object] = e
		return to, nil
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
	if err := checkGuard(log, &rec.State, object, datatype); err != nil {
		log.Close()
		return nil, err
	}
	st, err := openRecoveredStore(n, log, rec, object, impl, codec)
	if err != nil && rec.Mode == disk.ModeCheckpoint {
		log.Close()
		log, rec, err = disk.Open(dir, append(append([]disk.Option(nil), logOpts...), disk.WithFullReplay())...)
		if err != nil {
			return nil, fmt.Errorf("%w: opening storage for %q: %v", ErrObject, object, err)
		}
		st, err = openRecoveredStore(n, log, rec, object, impl, codec)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	to := &TypedObject[S, Op, Val]{datatype: datatype, branch: n.name, node: n, st: st, log: log}
	e := &objectEntry{name: object, obj: to, st: st, log: log, watchers: newWatcherSet()}
	to.entry = e
	n.objects[object] = e
	return to, nil
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
// of a log whose guard checkGuard accepted — one rung of Ensure's
// recovery ladder.
func openRecoveredStore[S, Op, Val any](n *Node, log *disk.Log, rec *disk.Recovered, object string, impl core.MRDT[S, Op, Val], codec store.Codec[S]) (*store.Store[S, Op, Val], error) {
	storeOpts := append(n.cfg.storeOptions(), store.WithPersister(log))
	if n.cfg.verifyOnOpen {
		storeOpts = append(storeOpts, store.WithVerifyOnOpen(true))
	}
	st, err := store.OpenRecovered(impl, codec, n.name, n.replicaID*64, &rec.State, storeOpts...)
	if err != nil {
		return nil, fmt.Errorf("%w: recovering %q: %v", ErrObject, object, err)
	}
	return st, nil
}

// Datatype returns the object's registered datatype name.
func (o *TypedObject[S, Op, Val]) Datatype() string { return o.datatype }

// Branch returns the node branch the object's state lives on.
func (o *TypedObject[S, Op, Val]) Branch() string { return o.branch }

// Store exposes the object's embedded versioned store (read-mostly; the
// node's branch carries its state).
func (o *TypedObject[S, Op, Val]) Store() *store.Store[S, Op, Val] { return o.st }

// Do applies an operation on the node's branch with a fresh timestamp
// and notifies the node's mesh daemon, whose links stream the commit to
// interested peers (commits landing while a write is in flight share the
// next one). Do takes only the store's lock: a sync session in flight
// ships from the snapshot it opened with and merges its reply into
// whatever head the branch has by then, and a link drains its capture
// on its own goroutine, so a commit never waits for the network.
func (o *TypedObject[S, Op, Val]) Do(op Op) (Val, error) {
	v, err := o.st.Apply(o.branch, op)
	if err == nil {
		o.node.engine.NotifyCommit()
	}
	return v, err
}

// PullLocal merges local branch src into dst. A pull that moves the node
// branch notifies the mesh daemon like any other commit.
func (o *TypedObject[S, Op, Val]) PullLocal(dst, src string) error {
	err := o.st.Pull(dst, src)
	if err == nil && dst == o.branch {
		o.node.engine.NotifyCommit()
	}
	return err
}

// SyncLocal converges two local branches atomically (store.Sync);
// involving the node branch notifies the mesh daemon.
func (o *TypedObject[S, Op, Val]) SyncLocal(a, b string) error {
	err := o.st.Sync(a, b)
	if err == nil && (a == o.branch || b == o.branch) {
		o.node.engine.NotifyCommit()
	}
	return err
}

// Watch returns a channel of this object's remote-merge head moves:
// one event per sync exchange that changed the node branch's head with
// a peer's commits. Local Do calls never produce events. Delivery is
// non-blocking with drop-oldest semantics (buffer of 16): a slow
// consumer sees the newest moves, not the stalest. The channel closes
// when ctx is cancelled or the node closes, and the watcher detaches
// without leaking a goroutine.
func (o *TypedObject[S, Op, Val]) Watch(ctx context.Context) <-chan WatchEvent {
	return o.entry.watchers.add(ctx)
}

// State returns the current state of the node's branch.
func (o *TypedObject[S, Op, Val]) State() (S, error) {
	return o.st.Head(o.branch)
}

// Head implements Object.
func (o *TypedObject[S, Op, Val]) Head() (store.Hash, error) {
	return o.st.HeadHash(o.branch)
}

// StorageStats reports the object's pack-log accounting; ok is false on
// in-memory nodes.
func (o *TypedObject[S, Op, Val]) StorageStats() (disk.Stats, bool) {
	if o.log == nil {
		return disk.Stats{}, false
	}
	return o.log.Stats(), true
}
