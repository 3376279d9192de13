package replica

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/recon"
	"repro/internal/store"
)

// Object is the type-erased view of one named replicated object a Node
// hosts: exactly the surface the sync protocol needs, so heterogeneous
// datatypes share one session. Concrete objects are TypedObjects.
type Object interface {
	// Datatype is the registered datatype name; hellos carry it so two
	// nodes never merge states of different types under one object name.
	Datatype() string
	// IntegrateExact installs a peer's (possibly partial) history under a
	// tracking branch and pulls it into the node's branch. It reports how
	// many of the shipped commits were already present (redundant
	// re-ships — zero when the negotiation resolved the exact diff) and
	// which commits the pull minted locally (merge commits a reply must
	// ship on top of the peer's want list). Sessions call it under the
	// object's merge lock.
	IntegrateExact(track string, commits []store.ExportedCommit, head store.Hash) (redundant int, minted []store.Hash, err error)
	// Head returns the node branch's current head hash.
	Head() (store.Hash, error)
	// HasCommit reports whether the object's store holds commit h.
	HasCommit(h store.Hash) bool
	// ReconRoot, ReconRange, ReconItems and ReconSelect expose the
	// store's fingerprint tree to the reconciliation protocol: the
	// fingerprint and count of the whole commit set or a hash range
	// [x, y), the range's members, and its k-th member (the split-point
	// oracle of the recursive descent).
	ReconRoot() (recon.Fingerprint, int)
	ReconRange(x, y recon.Item) (recon.Fingerprint, int)
	ReconItems(x, y recon.Item, max int) []recon.Item
	ReconSelect(x, y recon.Item, k int) (recon.Item, bool)
	// Snapshot and ExportSetAsOf are a client session's view of the
	// object: the branch head plus an install-capture token taken before
	// the session's first frame, and the export of a resolved ship set
	// cut back to commits that existed then (store.Store has the full
	// contract). A session that ends early releases the token with
	// EndInstallCapture.
	Snapshot() (head store.Hash, token int, err error)
	ExportSetAsOf(head store.Hash, ship map[store.Hash]bool, token int) ([]store.ExportedCommit, error)
	// SnapshotLink and DrainCapture are a link's: a link's connect
	// session snapshots with SnapshotLink, which also arms the link's own
	// capture in the same store critical section, and the link's stream
	// drains that capture batch by batch, skipping what arrived under
	// heldVia, the peer's tracking branch. Close ends it with
	// EndInstallCapture.
	SnapshotLink() (head store.Hash, token, link int, err error)
	DrainCapture(token int, heldVia string) ([]store.ExportedCommit, store.Hash, error)
	// BeginInstallCapture / EndInstallCapture / ExportSetCapture are the
	// serving side's counterpart: a handler arms a capture at the hello
	// ack and exports its reply through it, so commits a concurrent local
	// Apply installs mid-descent still reach the reply atomically with
	// the exported head — except the commits imported under heldVia, the
	// receiver's tracking branch, which the receiver sent itself.
	BeginInstallCapture() int
	EndInstallCapture(token int) []store.Hash
	ExportSetCapture(ship map[store.Hash]bool, token int, heldVia string) ([]store.ExportedCommit, store.Hash, error)
	// FlushStorage pushes buffered persistence out and surfaces any
	// sticky storage error; a no-op on in-memory objects.
	FlushStorage() error
}

// TypedObject is one named object with its concrete types intact: a full
// versioned store whose branch named after the node carries the node's
// state. The public peepul package wraps it in a typed handle.
type TypedObject[S, Op, Val any] struct {
	datatype string
	branch   string
	object   string
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
// history — refusing a log written under a different datatype or by a
// node of a different name, so storage mix-ups fail loudly instead of
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
		to := &TypedObject[S, Op, Val]{datatype: datatype, branch: n.name, object: object, node: n, st: st}
		e := &objectEntry{obj: to, watchers: newWatcherSet()}
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
	st, err := openRecoveredStore(n, log, rec, object, datatype, impl, codec)
	if err != nil && rec.Mode == disk.ModeCheckpoint {
		log.Close()
		log, rec, err = disk.Open(dir, append(append([]disk.Option(nil), logOpts...), disk.WithFullReplay())...)
		if err != nil {
			return nil, fmt.Errorf("%w: opening storage for %q: %v", ErrObject, object, err)
		}
		st, err = openRecoveredStore(n, log, rec, object, datatype, impl, codec)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	to := &TypedObject[S, Op, Val]{datatype: datatype, branch: n.name, object: object, node: n, st: st, log: log}
	e := &objectEntry{obj: to, log: log, watchers: newWatcherSet()}
	to.entry = e
	n.objects[object] = e
	return to, nil
}

// openRecoveredStore checks the log's datatype guard (stamping it on
// first open) and builds the object's store from the recovered state —
// one rung of Ensure's recovery ladder.
func openRecoveredStore[S, Op, Val any](n *Node, log *disk.Log, rec *disk.Recovered, object, datatype string, impl core.MRDT[S, Op, Val], codec store.Codec[S]) (*store.Store[S, Op, Val], error) {
	if dt, ok := log.Meta("datatype"); ok {
		if dt != datatype {
			return nil, fmt.Errorf("%w: storage for %q holds datatype %s, want %s", ErrObject, object, dt, datatype)
		}
	} else {
		// Record the datatype *before* the store writes its first
		// records, so no crash window can leave a log with history but
		// no type guard. (A meta-less log with recovered branches —
		// pre-guard or damaged — gets the guard stamped now.)
		if err := log.SetMeta("datatype", datatype); err != nil {
			return nil, fmt.Errorf("%w: storage for %q: %v", ErrObject, object, err)
		}
	}
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

// IntegrateExact implements Object. The captured import and pull
// variants separate the two kinds of news an exchange creates — commits
// the peer shipped that were already present (redundant), and commits
// the pull minted locally (merges the peer has never seen) — with each
// record cut inside the store's own critical section, so concurrent
// local Applies can never blur the attribution.
//
// A pull that moves the node branch's head fires the object's watchers
// and re-notifies the mesh daemon: the news a merge brought in is itself
// streamed onward, so commits cascade hop-by-hop through ring and mesh
// topologies instead of waiting out a full anti-entropy round per hop.
// (The cascade terminates: a link never streams a commit back to the
// peer it came from, and a commit already present installs nothing.)
// Whether the pull moved the head is the store's verdict, not a
// before/after comparison from here — a Do racing the integrate moves
// the head too, and must not fire watchers.
func (o *TypedObject[S, Op, Val]) IntegrateExact(track string, commits []store.ExportedCommit, head store.Hash) (int, []store.Hash, error) {
	fresh, importErr := o.st.ImportCaptured(track, commits, head)
	if importErr != nil {
		return 0, nil, importErr
	}
	redundant := len(commits) - len(fresh)
	// Even a failing Pull (a storage error, say) may have moved the head
	// before reporting — any movement is real news and must still fan
	// out to watchers and peers.
	minted, after, moved, pullErr := o.st.PullCaptured(o.branch, track)
	if moved {
		o.entry.watchers.broadcast(WatchEvent{
			Object: o.object,
			From:   strings.TrimPrefix(track, "remote/"),
			Head:   after,
		})
		o.node.engine.NotifyCommit()
	}
	return redundant, minted, pullErr
}

// Head implements Object.
func (o *TypedObject[S, Op, Val]) Head() (store.Hash, error) {
	return o.st.HeadHash(o.branch)
}

// HasCommit implements Object.
func (o *TypedObject[S, Op, Val]) HasCommit(h store.Hash) bool { return o.st.HasCommit(h) }

// ReconRoot implements Object.
func (o *TypedObject[S, Op, Val]) ReconRoot() (recon.Fingerprint, int) { return o.st.ReconRoot() }

// ReconRange implements Object.
func (o *TypedObject[S, Op, Val]) ReconRange(x, y recon.Item) (recon.Fingerprint, int) {
	return o.st.ReconRange(x, y)
}

// ReconItems implements Object.
func (o *TypedObject[S, Op, Val]) ReconItems(x, y recon.Item, max int) []recon.Item {
	return o.st.ReconItems(x, y, max)
}

// ReconSelect implements Object.
func (o *TypedObject[S, Op, Val]) ReconSelect(x, y recon.Item, k int) (recon.Item, bool) {
	return o.st.ReconSelect(x, y, k)
}

// Snapshot implements Object.
func (o *TypedObject[S, Op, Val]) Snapshot() (store.Hash, int, error) {
	return o.st.Snapshot(o.branch)
}

// ExportSetAsOf implements Object.
func (o *TypedObject[S, Op, Val]) ExportSetAsOf(head store.Hash, ship map[store.Hash]bool, token int) ([]store.ExportedCommit, error) {
	return o.st.ExportSetAsOf(head, ship, token)
}

// SnapshotLink implements Object.
func (o *TypedObject[S, Op, Val]) SnapshotLink() (store.Hash, int, int, error) {
	return o.st.SnapshotLink(o.branch)
}

// DrainCapture implements Object.
func (o *TypedObject[S, Op, Val]) DrainCapture(token int, heldVia string) ([]store.ExportedCommit, store.Hash, error) {
	return o.st.DrainCapture(o.branch, token, heldVia)
}

// BeginInstallCapture implements Object.
func (o *TypedObject[S, Op, Val]) BeginInstallCapture() int { return o.st.BeginInstallCapture() }

// EndInstallCapture implements Object.
func (o *TypedObject[S, Op, Val]) EndInstallCapture(token int) []store.Hash {
	return o.st.EndInstallCapture(token)
}

// ExportSetCapture implements Object.
func (o *TypedObject[S, Op, Val]) ExportSetCapture(ship map[store.Hash]bool, token int, heldVia string) ([]store.ExportedCommit, store.Hash, error) {
	return o.st.ExportSetCapture(o.branch, ship, token, heldVia)
}

// FlushStorage implements Object.
func (o *TypedObject[S, Op, Val]) FlushStorage() error {
	if o.log == nil {
		return nil
	}
	return o.st.FlushStorage()
}

// StorageStats reports the object's pack-log accounting; ok is false on
// in-memory nodes.
func (o *TypedObject[S, Op, Val]) StorageStats() (disk.Stats, bool) {
	if o.log == nil {
		return disk.Stats{}, false
	}
	return o.log.Stats(), true
}
