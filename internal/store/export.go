package store

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
)

// ExportedCommit is one commit prepared for transfer to another store:
// the commit metadata plus the state it pins, carried either as the full
// encoding (State) or as a binary patch against the state of the
// commit's first parent (Patch). Exactly one of State and Patch is set.
// Hashes are recomputed on import from the reassembled bytes, so a
// corrupted transfer cannot forge history, and the buffers are copies:
// mutating an exported commit never reaches into the store.
type ExportedCommit struct {
	Parents []Hash
	State   []byte
	// Patch is a delta (internal/delta) from the encoded state of
	// Parents[0]'s commit to this commit's encoded state. Every export
	// uses it when the store holds such a patch: the state's stored one,
	// or the one packLocked kept beside a chain-full composition or a
	// snapshot. The parent is either earlier in the batch or one the
	// receiver holds — an export ships only commits the receiver provably
	// lacks, so a parent outside the batch is one it has.
	Patch []byte
	Gen   int
	Time  core.Timestamp
}

// ErrBadImport is wrapped by Import failures.
var ErrBadImport = errors.New("store: bad import")

// Export returns branch b's full history — every ancestor commit of its
// heads — together with the head set: ExportSincePacked with an empty
// have-set. Feeding the result to another store's Import reproduces the
// history bit-for-bit (content addressing makes re-imported commits
// identical).
func (s *Store[S, Op, Val]) Export(b string) ([]ExportedCommit, []Hash, error) {
	return s.ExportSincePacked(b, nil)
}

// ExportSincePacked returns the part of branch b's history a peer is
// missing: every ancestor of the heads not dominated by the have-set, a
// set of commit hashes the peer is known to possess (possession of a
// commit implies possession of all its ancestors, so the walk cuts
// there). The commits form a ship set, exported as sessions export
// theirs (exportSetLocked): in generation order, packed. Any parent
// outside the batch is a member of the have-set, so the peer's Import
// grafts the partial DAG onto commits it already holds. Have hashes
// unknown locally are harmless: they cannot lie on any walked path.
func (s *Store[S, Op, Val]) ExportSincePacked(b string, have []Hash) ([]ExportedCommit, []Hash, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	heads, ok := s.heads[b]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	cut := make(map[Hash]bool, len(have))
	for _, h := range have {
		cut[h] = true
	}
	ship := make(map[Hash]bool)
	for stack := slices.Clone(heads); len(stack) > 0; {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !cut[h] && !ship[h] {
			ship[h] = true
			stack = append(stack, s.commitAtLocked(h).Parents...)
		}
	}
	commits, err := s.exportSetLocked(ship)
	return commits, heads, err
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
// legitimately resolve a commit that no branch head reaches (an import
// that failed part way installed it), and a reachability walk would
// silently drop it, leaving the two fingerprint trees permanently
// different and the pair re-probing the same unreachable diff every
// round.
//
// The receiver can graft the batch because its holdings are closed
// under ancestry and the caller builds ship as "commits the receiver
// provably lacks": a parent outside the batch is therefore a commit the
// receiver already holds. The export is packed for the same reason: a
// commit ships as a patch against its first parent's state whenever the
// store holds one — its stored patch, or the patch packLocked kept from
// that state beside a chain-full composition or a snapshot. Only roots,
// states recovered from disk (a kept patch is never persisted) and
// states whose patch reached a quarter of them ship whole.
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
	out := make([]ExportedCommit, 0, len(order))
	for _, h := range order {
		c := s.commitAtLocked(h)
		ec := ExportedCommit{
			Parents: append([]Hash(nil), c.Parents...),
			Gen:     c.Gen,
			Time:    c.Time,
		}
		obj, _ := s.objLocked(c.State)
		switch parentState, hasParent := s.parentState(c); {
		case hasParent && c.State == parentState:
			// A deduplicated no-op commit pins exactly its parent's
			// state: an identity patch costs a dozen bytes where the
			// stored chain (based elsewhere) would force a full ship.
			ec.Patch = delta.Identity(obj.size)
		case hasParent && obj.delta && obj.base == parentState:
			patch, err := obj.bytes()
			if err != nil {
				return nil, err
			}
			ec.Patch = append([]byte(nil), patch...)
		case hasParent && obj.parent != nil && obj.parent.base == parentState:
			// A chain-full composition or a snapshot, with the patch from
			// this parent's state it was made from. Another commit pinning
			// the state may have another parent, so the kept base decides.
			ec.Patch = bytes.Clone(obj.parent.patch)
		default:
			// The rest ship full: the wire form patches against the
			// parent's state only.
			enc, _, err := s.materializeLocked(c.State)
			if err != nil {
				return nil, err
			}
			ec.State = append([]byte(nil), enc...)
		}
		out = append(out, ec)
	}
	return out, nil
}

// parentState returns the state hash of c's first parent, if any.
func (s *Store[S, Op, Val]) parentState(c Commit) (Hash, bool) {
	if len(c.Parents) == 0 {
		return Hash{}, false
	}
	return s.commitAtLocked(c.Parents[0]).State, true
}

// Import installs a transferred history — full or partial — and points
// branch name at its head set, creating the branch if needed: such a
// branch only mirrors the heads, so it takes no operations, has no clock
// and spends no replica id. A branch that takes operations is refused,
// before anything installs: pointing it at the heads would drop its own.
// Tests and tools merge an imported branch in with Pull; replicas land
// batches with Integrate instead, which creates no branch.
// A partial history — a recon session's delta or reply, a link's batch —
// grafts onto the local DAG: every parent must resolve either earlier in
// the batch or among commits already present, so a dangling parent fails
// the import. Commit hashes are recomputed locally; a corrupted transfer
// cannot forge history. An empty batch is a valid delta as long as the
// advertised heads are already known. Each first-seen state is verified
// exactly once: an encoded state whose hash is already present — a
// commit two crossed sessions both delivered, a new commit pinning a
// known state, a no-op shipped as an identity patch, a state an earlier
// batch commit pins — is not verified again.
//
// A commit may carry its state as a Patch against its first parent's
// state; the parent is necessarily known — the batch is
// parents-before-children and dangling parents fail the import — so the
// patch is applied to the parent's encoding and the result goes through
// the same hash and canonicality verification as a full state. A
// corrupt patch therefore cannot forge state: the reassembled bytes hash
// to a state address the commit chain must be consistent with, and the
// advertised heads check fails otherwise.
//
// Commits land one at a time, in batch order, on the caller's goroutine:
// each is checked, its state reassembled, addressed and verified, and
// then installed before the next is read. A state a patch builds is
// verified against the patch's base and copy runs when the codec has the
// edit form (Codec's CheckEdit), in the work of the edit; any other by
// checkEncoding, as VerifyPack does. So a failed import reports the
// first bad commit in the batch and leaves exactly the commits before it
// installed.
func (s *Store[S, Op, Val]) Import(name string, commits []ExportedCommit, heads []Hash) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clocks[name] != nil {
		return fmt.Errorf("%w: %s takes operations; import into a branch of its own and pull", ErrBadImport, name)
	}
	if err := s.importLocked(name, commits, heads); err != nil {
		return err
	}
	s.setHeadsLocked(name, s.maximalLocked(heads))
	s.persistBranchLocked(name)
	return s.finishPersistLocked()
}

// Integrate lands a peer's batch: it installs it as Import does and
// unites its heads with branch's head set (as Pull), in one critical
// section, so no other session's import interleaves between the two. It
// creates no branch; via only labels the installed commits in open
// captures (Capture). redundant counts the batch's commits that were
// already present — re-ships an exact negotiation never makes. after
// names branch's head set afterwards (HeadSetHash) and moved tells
// whether the union changed it: a concurrent Apply cannot pass for
// remote news.
func (s *Store[S, Op, Val]) Integrate(branch, via string, batch []ExportedCommit, heads []Hash) (redundant int, after Hash, moved bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	defer func() { s.metrics.integrateNs.Observe(time.Since(start).Nanoseconds()) }()
	before, known := s.heads[branch], len(s.commits)
	if err := s.importLocked(via, batch, heads); err != nil {
		return 0, HeadSetHash(before), false, err
	}
	// addCommitLocked adds to s.commits exactly the commits it newly
	// installs.
	redundant = len(batch) - (len(s.commits) - known)
	err = s.uniteLocked(branch, heads)
	if err == nil {
		err = s.finishPersistLocked()
	}
	return redundant, HeadSetHash(s.heads[branch]), !slices.Equal(s.heads[branch], before), err
}

// importLocked is the body of Import and Integrate: importOneLocked for
// each batch commit in order, then the check that every advertised head
// is present. Open captures record the installed commits under via.
func (s *Store[S, Op, Val]) importLocked(via string, commits []ExportedCommit, heads []Hash) error {
	s.importVia = via
	defer func() { s.importVia = "" }()
	for i := range commits {
		if err := s.importOneLocked(i, &commits[i]); err != nil {
			return err
		}
	}
	if len(heads) == 0 {
		return fmt.Errorf("%w: no advertised head", ErrBadImport)
	}
	for _, h := range heads {
		if !s.commitExistsLocked(h) {
			return fmt.Errorf("%w: advertised head %v not present after import", ErrBadImport, h)
		}
	}
	return nil
}

// importOneLocked lands batch commit i: parent and generation checks,
// then the encoding, shipped whole or reassembled against the first
// parent's state into the spare buffer, and its address, built in the
// spare tree — from the base's chunk tree and the shipped patch's copy
// runs, or from scratch for a state shipped whole. A first-seen state is
// then checked, packed and its commit installed. Every earlier batch
// commit is installed by then, so parents and patch bases resolve in the
// store, and a first-seen base packed just before is the reassembly
// slot's.
// Callers hold the write lock.
func (s *Store[S, Op, Val]) importOneLocked(i int, ec *ExportedCommit) error {
	// The generation-guided DAG walks (lca.go) are only correct under
	// the invariant Gen = 1 + max parent generation, so a transferred
	// generation is verified, never trusted: a peer shipping a bogus
	// one gets a rejected import instead of silently wrong merges. Nor
	// does a commit no store mints pass: over two parents (the frozen
	// index keeps two), a single parent whose Time is not below its own,
	// a merge unlike mergeHeadsLocked's, whose parents are strictly
	// ascending and whose Time is the later parent's, or a root other
	// than the store's own (below).
	if len(ec.Parents) > 2 {
		return fmt.Errorf("%w: commit %d has %d parents, at most 2", ErrBadImport, i, len(ec.Parents))
	}
	if len(ec.Parents) == 2 && bytes.Compare(ec.Parents[0][:], ec.Parents[1][:]) >= 0 {
		return fmt.Errorf("%w: commit %d parents are not strictly ascending", ErrBadImport, i)
	}
	wantGen := 1
	var base Hash // the chain base: the first parent's state
	var latest core.Timestamp
	for j, p := range ec.Parents {
		pc, known := s.commitLocked(p)
		if !known {
			return fmt.Errorf("%w: commit %d references unknown parent %v", ErrBadImport, i, p)
		}
		if pc.Gen >= wantGen {
			wantGen = pc.Gen + 1
		}
		if j == 0 {
			base = pc.State
		}
		if len(ec.Parents) == 1 && ec.Time <= pc.Time {
			return fmt.Errorf("%w: commit %d time %d does not exceed its parent's %d", ErrBadImport, i, ec.Time, pc.Time)
		}
		latest = max(latest, pc.Time)
	}
	if len(ec.Parents) == 2 && ec.Time != latest {
		return fmt.Errorf("%w: merge commit %d time %d is not its later parent's %d", ErrBadImport, i, ec.Time, latest)
	}
	if ec.Gen != wantGen {
		return fmt.Errorf("%w: commit %d generation %d, want %d", ErrBadImport, i, ec.Gen, wantGen)
	}
	enc := ec.State
	var baseEnc []byte
	var baseTree *chunkTree
	var runs []delta.CopyRun
	if ec.Patch != nil {
		if ec.State != nil {
			return fmt.Errorf("%w: commit %d carries both a state and a patch", ErrBadImport, i)
		}
		if len(ec.Parents) == 0 {
			return fmt.Errorf("%w: commit %d is a patch with no parent", ErrBadImport, i)
		}
		var err error
		if baseEnc, baseTree, err = s.materializeLocked(base); err != nil {
			return fmt.Errorf("%w: commit %d base: %v", ErrBadImport, i, err)
		}
		dst := s.spare
		s.spare = nil
		if enc, err = delta.ApplyTo(dst, baseEnc, ec.Patch); err != nil {
			return fmt.Errorf("%w: commit %d patch: %v", ErrBadImport, i, err)
		}
		// ApplyTo accepted the patch against baseEnc, so its runs parse.
		runs, _, _ = delta.CopyRuns(s.runs[:0], ec.Patch)
		s.runs = runs
	}
	into := s.spareTree
	s.spareTree = nil
	st, tree := s.addrRunsLocked(enc, baseTree, runs, into)
	c := Commit{Parents: append([]Hash(nil), ec.Parents...), State: st, Gen: ec.Gen, Time: ec.Time}
	h := commitHash(c)
	// Every store mints the same root, Init's state at generation 1 and
	// time 0, so a parentless commit is one the store holds.
	if len(ec.Parents) == 0 && !s.commitExistsLocked(h) {
		return fmt.Errorf("%w: commit %d is a root other than this store's", ErrBadImport, i)
	}
	// Content addressing lets re-imported history short-circuit: a state
	// already stored is never verified again, and its reassembled
	// encoding and chunk tree are spares again at once.
	if s.objExistsLocked(st) {
		if ec.Patch != nil {
			s.keepSpareLocked(enc, tree)
		} else {
			s.keepSpareLocked(nil, tree) // a state shipped whole is the caller's
		}
		s.addCommitLocked(h, c)
		return nil
	}
	// A first-seen state's encoding must be canonical: accepting a
	// non-canonical one would give one logical state two content
	// addresses and fork identical histories forever. A state a patch
	// builds is checked against its base, which is stored and so
	// canonical, with the patch's copy runs when the codec has the edit
	// form (Codec); any other is checked whole. The state's first read
	// decodes it.
	var err error
	if s.editCheck != nil && ec.Patch != nil {
		err = s.editCheck.CheckEdit(enc, baseEnc, runs)
	} else {
		err = checkEncoding(s.codec, enc)
	}
	if err != nil {
		return fmt.Errorf("%w: commit %d state encoding is not canonical: %v", ErrBadImport, i, err)
	}
	// The pack keeps the checked bytes. A reassembled state is in the
	// store's own buffer, which becomes the reassembly slot's. A state
	// shipped whole and a shipped patch are the caller's, so they are
	// copied, a whole state at its exact size, which packLocked then
	// stores without a second copy.
	patch := ec.Patch
	if patch != nil {
		patch = bytes.Clone(patch)
	} else {
		enc = append(make([]byte, 0, len(enc)), enc...)
	}
	s.packLocked(st, enc, tree, base, patch)
	s.addCommitLocked(h, c)
	return nil
}

// checkEncoding is the store's one validity test of an encoding: nil
// exactly when Decode accepts enc and Encode gives it back. Check, if
// the codec has it (Codec), answers in place; else it round-trips.
func checkEncoding[S any](codec Codec[S], enc []byte) error {
	if c, ok := codec.(checker); ok {
		return c.Check(enc)
	}
	state, err := codec.Decode(enc)
	if err == nil && !bytes.Equal(codec.Encode(state), enc) {
		err = errors.New("it re-encodes differently")
	}
	return err
}

// checker is the optional form of a Codec that validates an encoding in
// place (Codec).
type checker interface{ Check(enc []byte) error }

// editChecker is the optional form of a Codec that validates an encoding
// a patch built from a canonical one by the patch's copy runs (Codec).
type editChecker interface {
	CheckEdit(enc, base []byte, runs []delta.CopyRun) error
}
