package store

import (
	"errors"
	"fmt"

	"repro/internal/recon"
)

// Set reconciliation support: the store mirrors its commit set into an
// incrementally maintained recon.Tree, so the sync layer can answer
// range-fingerprint probes in O(log n) and resolve the exact symmetric
// difference between two replicas instead of trusting sampled frontiers.
//
// Tree items are (generation, hash) keys: the commit's generation number
// — 1 + max parent generation, a deterministic function of the DAG, so
// identical on every replica holding the commit — prefixes its content
// address. Generation order gives the keyspace the locality that makes
// the descent cheap: two replicas that diverged recently differ only in
// high-generation commits, one contiguous tail of the keyspace, so the
// probe descent prunes the whole shared prefix in O(log n) matches
// instead of chasing uniformly scattered hashes through every subtree.
//
// The tree is built lazily on the first recon query — an O(n log n)
// seeding over the commit map plus any frozen checkpoint index — so a
// node that never syncs (or syncs only with pre-recon peers) pays
// nothing, and checkpointed recovery stays flat in history. Once built,
// addCommitLocked keeps it exact: every commit installation funnels
// through it (Apply and its merges, Import, Integrate), and no commit is
// ever removed, so the tree only grows.

// ensureRecon builds the recon tree if it does not exist yet. It takes
// the write lock only on the build path; steady-state callers get a
// read-locked presence check.
func (s *Store[S, Op, Val]) ensureRecon() {
	s.mu.RLock()
	ok := s.rtree != nil
	s.mu.RUnlock()
	if ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rtree != nil {
		return
	}
	t := &recon.Tree{}
	for h, c := range s.commits {
		t.Add(recon.MakeItem(uint64(c.Gen), h))
	}
	if s.frozen != nil {
		for i, n := 0, s.frozen.NumCommits(); i < n; i++ {
			h, c := s.frozen.CommitAt(i)
			t.Add(recon.MakeItem(uint64(c.Gen), h))
		}
	}
	s.rtree = t
}

// ReconRoot returns the fingerprint and count of the store's whole
// commit set.
func (s *Store[S, Op, Val]) ReconRoot() (recon.Fingerprint, int) {
	s.ensureRecon()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rtree.Root()
}

// ReconRange returns the fingerprint and count of the commit keys in
// [x, y) (zero y: unbounded above).
func (s *Store[S, Op, Val]) ReconRange(x, y recon.Item) (recon.Fingerprint, int) {
	s.ensureRecon()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rtree.Range(x, y)
}

// ReconItems returns the commit keys in [x, y) in ascending order, at
// most max of them (max < 0: all).
func (s *Store[S, Op, Val]) ReconItems(x, y recon.Item, max int) []recon.Item {
	s.ensureRecon()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rtree.Items(nil, x, y, max)
}

// ReconSelect returns the k-th commit key (0-based, ascending) of
// [x, y) — the split-point oracle of the recursive range descent.
func (s *Store[S, Op, Val]) ReconSelect(x, y recon.Item, k int) (recon.Item, bool) {
	s.ensureRecon()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rtree.Select(x, y, k)
}

// HasCommit reports whether the store holds the commit addressed by h.
func (s *Store[S, Op, Val]) HasCommit(h Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.commitExistsLocked(h)
}

// install is one capture-log entry: a newly installed commit and the
// label of the import that installed it — Integrate's via, the peer that
// provably holds it — or "" for a commit this store made itself (an
// Apply and the merge it commits).
type install struct {
	hash Hash
	via  string
}

// Capture is a snapshot of one branch that keeps recording: the branch
// head set at the instant Snapshot took it, and every commit the store
// installs from that instant on — by Apply or an import — with the label
// it was imported under ("" for the store's own commits). Only Close
// stops the recording; no export consumes a capture.
//
// This is the one exactness argument every sync path rests on. The head
// and the record start in one critical section, and every installation
// (addCommitLocked) runs under the same lock, so each commit is either an
// ancestor candidate of the snapshot heads — it existed at the snapshot
// and a recon descent can find it — or in the record; never neither. No
// lock is held across the network: local writes and other sessions
// interleave freely, and ExportSet's two modes each use the record to
// stay exact anyway.
//
//   - AsOf (a client session): the ship set was resolved against the
//     live, growing commit set; minus the record, it is cut back to
//     commits that existed at the snapshot, and ships under the snapshot
//     heads. Every ancestor of those heads predates the snapshot, so what
//     the receiver lacks of it was there for the negotiation to find and
//     nothing subtracted is one of them: the batch grafts. A session's
//     work is bounded by the state it connected with, however long it
//     runs under sustained writes.
//   - Drain (a serving session, captured at its hello; a link, which
//     keeps its connect session's capture): what was recorded since the
//     last drain, bar what was imported under held, the receiver's own
//     label, joins the ship set under the live heads. The live heads may
//     reach commits installed after the probes read the tree — a local
//     Apply, another session's import — and all of them are in the
//     record, so folding it in keeps the batch grafting; what came from
//     the receiver it holds already. Drained in turn, a link's batches
//     stay graftable: a commit's parents were installed before it, so
//     each sits in the same or an earlier batch, predates the snapshot
//     (the connect session's to ship), or came from the receiver. A
//     serving session drains once, for its reply, before it integrates
//     the receiver's delta, so the reply never carries that delta back
//     and the two sides land at the same time.
type Capture struct {
	branch string
	heads  []Hash
	// log is guarded by the store's lock.
	log   []install
	close func()
}

// Head returns the name (HeadSetHash) of the head set the capture was
// taken at.
func (c *Capture) Head() Hash { return HeadSetHash(c.heads) }

// Close stops the recording. It is idempotent, and a closed capture
// refuses every export.
func (c *Capture) Close() { c.close() }

// ErrNoCapture is returned by ExportSet for a closed capture: without its
// record the store cannot tell which commits are younger than the
// snapshot.
var ErrNoCapture = errors.New("store: capture is closed")

// Snapshot captures branch b: its head set, and a record of every commit
// installed from now on (see Capture).
func (s *Store[S, Op, Val]) Snapshot(b string) (*Capture, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs, ok := s.heads[b]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	c := &Capture{branch: b, heads: hs}
	c.close = func() {
		s.mu.Lock()
		delete(s.captures, c)
		s.mu.Unlock()
	}
	if s.captures == nil {
		s.captures = make(map[*Capture]struct{})
	}
	s.captures[c] = struct{}{}
	return c, nil
}

// ExportMode selects how ExportSet combines a capture's record with the
// caller's ship set (see Capture).
type ExportMode int

const (
	// AsOf removes the recorded commits from ship and exports under the
	// snapshot heads.
	AsOf ExportMode = iota
	// Drain adds the commits recorded since the last drain, bar those
	// imported under held, exports under the live heads, and resets the
	// record.
	Drain
)

// ExportSet exports a negotiated ship set through capture c, in one
// critical section, and returns the batch with the head set it grafts
// under. ship is the caller's map and shows the mode's additions or
// removals; a nil ship is an empty one. The batch is in generation order
// (see exportSetLocked).
func (s *Store[S, Op, Val]) ExportSet(c *Capture, ship map[Hash]bool, mode ExportMode, held string) ([]ExportedCommit, []Hash, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, open := s.captures[c]; !open {
		return nil, nil, ErrNoCapture
	}
	if ship == nil {
		ship = make(map[Hash]bool, len(c.log))
	}
	heads, ok := s.heads[c.branch]
	for _, in := range c.log {
		switch {
		case mode == AsOf:
			delete(ship, in.hash)
		case in.via != held:
			ship[in.hash] = true
		}
	}
	switch mode {
	case AsOf:
		heads, ok = c.heads, true
	case Drain:
		c.log = nil
	}
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoBranch, c.branch)
	}
	commits, err := s.exportSetLocked(ship)
	return commits, heads, err
}
