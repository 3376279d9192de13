package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

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
// putCommit and GC keep it exact: every commit installation funnels
// through putCommit (Apply, Import, merges), and GC's sweep removes the
// collected hashes.

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

// BeginInstallCapture starts recording the hash of every commit newly
// installed by subsequent mutations (Apply, Import, merge commits minted
// by Pull), until the returned token is collected by EndInstallCapture
// or consumed by ExportSetCapture. Captures nest: each live token keeps
// its own log, so the sync layer can hold one capture across a whole
// reconciliation session (every commit a concurrent local Apply slips
// past the probe descent) while Integrate opens short inner captures to
// separate redundant re-ships from freshly minted merge commits.
func (s *Store[S, Op, Val]) BeginInstallCapture() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.beginInstallCaptureLocked()
}

func (s *Store[S, Op, Val]) beginInstallCaptureLocked() int {
	if s.installLogs == nil {
		s.installLogs = make(map[int][]install)
	}
	s.installSeq++
	s.installLogs[s.installSeq] = nil
	return s.installSeq
}

// install is one capture-log entry: a newly installed commit and the
// tracking branch it was imported under — the name of a peer that
// provably holds it — or "" for a commit this store made itself (an
// Apply or a merge).
type install struct {
	hash Hash
	via  string
}

func installedHashes(log []install) []Hash {
	out := make([]Hash, len(log))
	for i, in := range log {
		out[i] = in.hash
	}
	return out
}

// EndInstallCapture stops the token's recording and returns the hashes
// installed since its BeginInstallCapture, in installation order. A
// token already ended (or consumed by ExportSetCapture) returns nil, so
// cleanup paths may call it unconditionally.
func (s *Store[S, Op, Val]) EndInstallCapture(token int) []Hash {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.installLogs[token]; !live {
		return nil
	}
	return installedHashes(s.endInstallCaptureLocked(token))
}

func (s *Store[S, Op, Val]) endInstallCaptureLocked(token int) []install {
	log := s.installLogs[token]
	delete(s.installLogs, token)
	return log
}

// ExportSetCapture exports a negotiated ship set (see exportSetLocked)
// with the race against concurrent commits closed: under one critical
// section it folds the commits recorded by the capture token into ship,
// then exports, returning branch b's head as the graft point. The
// token spans the whole negotiation (armed before the first probe), so a
// commit a local Apply or another session installs after its range was
// already compared still reaches the ship set, and because putCommit
// serializes on the same lock, any commit the exported head can reach is
// either pre-negotiation (resolved by the probes), in the capture, or
// held by the receiver — the ancestry closure the set export relies on.
// heldVia names the receiver's tracking branch: captured commits
// imported under it came from the receiver — its delta of this very
// session, or one that crossed it on another connection — and are not
// shipped back. This is the serving side's export: its reply head is
// the head it just merged, which reaches whatever landed mid-session.
func (s *Store[S, Op, Val]) ExportSetCapture(b string, ship map[Hash]bool, token int, heldVia string) ([]ExportedCommit, Hash, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, in := range s.endInstallCaptureLocked(token) {
		if in.via != heldVia {
			ship[in.hash] = true
		}
	}
	head, ok := s.heads[b]
	if !ok {
		return nil, Hash{}, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	commits, err := s.exportSetLocked(ship)
	return commits, head, err
}

// ErrNoCapture is returned by ExportSetAsOf for a capture token that was
// already ended or consumed: without its record the store cannot tell
// which commits are younger than the snapshot.
var ErrNoCapture = errors.New("store: install capture is not live")

// Snapshot pins what a sync session opened now may ship: branch b's
// head and a capture token recording every commit installed from here
// on, cut in one critical section — so a commit is either an ancestor
// candidate of the returned head or in the token's record, never
// neither. The token is consumed by ExportSetAsOf or, on sessions that
// end early, released with EndInstallCapture.
func (s *Store[S, Op, Val]) Snapshot(b string) (head Hash, token int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	head, ok := s.heads[b]
	if !ok {
		return Hash{}, 0, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	return head, s.beginInstallCaptureLocked(), nil
}

// SnapshotLink is Snapshot for a link's connect session: in the same
// critical section it arms a second capture, link, which outlives the
// session and feeds the link's stream through DrainCapture. Every commit
// is then either an ancestor candidate of head — the session's to ship —
// or in link's record, never neither.
func (s *Store[S, Op, Val]) SnapshotLink(b string) (head Hash, token, link int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	head, ok := s.heads[b]
	if !ok {
		return Hash{}, 0, 0, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	return head, s.beginInstallCaptureLocked(), s.beginInstallCaptureLocked(), nil
}

// DrainCapture exports every commit the token recorded since it was
// armed or last drained — bar those imported under heldVia, which the
// receiver sent, and the virtual merge bases of criss-cross pulls, which
// are on no branch and which every store that needs one folds itself —
// in generation order, with branch b's head as the graft point, and
// keeps the token armed for the next drain. Drained in turn, the batches
// stay graftable: a commit's parents were installed before it, so each
// sits in the same or an earlier batch, predates the token, or came from
// the receiver; and no branch commit has a virtual parent.
func (s *Store[S, Op, Val]) DrainCapture(b string, token int, heldVia string) ([]ExportedCommit, Hash, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	log, live := s.installLogs[token]
	if !live {
		return nil, Hash{}, ErrNoCapture
	}
	s.installLogs[token] = nil
	head, ok := s.heads[b]
	if !ok {
		return nil, Hash{}, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	ship := make(map[Hash]bool, len(log))
	for _, in := range log {
		if in.via != heldVia && !s.virtualLocked(in.hash) {
			ship[in.hash] = true
		}
	}
	commits, err := s.exportSetLocked(ship)
	return commits, head, err
}

// virtualLocked reports whether h is a virtual merge base (foldBases):
// the only commits with parents that carry no timestamp.
func (s *Store[S, Op, Val]) virtualLocked(h Hash) bool {
	c, ok := s.commitLocked(h)
	return ok && c.Time == 0 && len(c.Parents) > 0
}

// ExportSetAsOf is the mirror image of ExportSetCapture, for the side
// that opened the session: it exports ship minus everything the
// Snapshot's token recorded, to be sent with the snapshot's head. The
// ship set may have been resolved against the live (growing) commit set;
// subtracting the record cuts it back to commits that existed at the
// snapshot. The batch stays graftable: head's ancestry is closed and
// entirely pre-snapshot, so every ancestor the receiver lacks was there
// for the negotiation to find and nothing subtracted can be one of them.
// Commits younger than the session are left for the next one — a
// session's work is bounded by the state it connected with, however
// long it runs under sustained writes. Members removed from ship stay
// removed; the token is consumed.
func (s *Store[S, Op, Val]) ExportSetAsOf(head Hash, ship map[Hash]bool, token int) ([]ExportedCommit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.installLogs[token]; !live {
		return nil, ErrNoCapture
	}
	for _, in := range s.endInstallCaptureLocked(token) {
		delete(ship, in.hash)
	}
	if !s.commitExistsLocked(head) {
		return nil, fmt.Errorf("store: snapshot head %v no longer present", head)
	}
	return s.exportSetLocked(ship)
}

// exportSetLocked exports exactly the commits in ship,
// parents-before-children, in generation order — Gen = 1 + max parent
// generation, so a parent always sorts strictly before its children and
// no DAG walk is needed. Ship hashes the store does not hold are skipped
// silently (the peer re-negotiates them next round). Callers must hold
// s.mu.
//
// Enumerating the set directly — rather than walking down from the
// branch heads — matters for completeness: a reconciliation can
// legitimately resolve a commit that no branch head reaches any more (a
// tracking branch moved past it and GC has not run), and a reachability
// walk would silently drop it, leaving the two fingerprint trees
// permanently different and the pair re-probing the same dead diff
// every round.
//
// The receiver can graft the batch because its holdings are closed
// under ancestry and the caller builds ship as "commits the receiver
// provably lacks": a parent outside the batch is therefore a commit the
// receiver already holds. The export is packed — a commit may ship as a
// patch against its first parent — for the same reason.
func (s *Store[S, Op, Val]) exportSetLocked(ship map[Hash]bool) ([]ExportedCommit, error) {
	if len(ship) == 0 {
		return nil, nil
	}
	order := make([]Hash, 0, len(ship))
	for h := range ship {
		if s.commitExistsLocked(h) {
			order = append(order, h)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		gi, gj := s.commitAtLocked(order[i]).Gen, s.commitAtLocked(order[j]).Gen
		if gi != gj {
			return gi < gj
		}
		return bytes.Compare(order[i][:], order[j][:]) < 0
	})
	return s.exportOrderLocked(order, true)
}
