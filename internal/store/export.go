package store

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
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
// exactly once (verify): an encoded state whose hash is already present —
// a commit two crossed sessions both delivered, a new commit pinning a
// known state, a no-op shipped as an identity patch — or that an earlier
// batch commit pins is not verified again.
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
// Verification is pipelined. The caller's goroutine checks commit
// metadata, applies patches and hashes states in batch order. A state a
// patch builds is checked there too when the codec has the edit form
// (Codec's CheckEdit), against the patch's base and copy runs, in the
// work of the edit. Any other canonicality check (checkEncoding, as
// VerifyPack), which needs only the state's bytes and caches nothing,
// runs on up to GOMAXPROCS helpers. Commits install in batch order as
// their verdicts arrive, so a failed import reports the first bad commit
// in the batch and leaves exactly the commits before it installed,
// however the helpers finish.
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

// importLocked is the body of Import and Integrate, the pipeline Import
// describes: prepareImportLocked, then verify on a helper for a
// first-seen state, then drain's in-order install, and the check that
// every advertised head is present. Open captures record the installed
// commits under via.
func (s *Store[S, Op, Val]) importLocked(via string, commits []ExportedCommit, heads []Hash) error {
	s.importVia = via
	defer func() { s.importVia = "" }()
	// The producer blocks once window commits are queued: enough to keep
	// every helper busy while it runs ahead, and a bound on the
	// reassembled encodings held however deep the batch. jobs holds a
	// full window, so a submit never blocks.
	helpers := runtime.GOMAXPROCS(0)
	window := 4 * helpers
	check := func(enc []byte) error { return checkEncoding(s.codec, enc) }
	v := &verifiers{check: check, jobs: make(chan *importItem, window), max: helpers}
	var (
		queue   []*importItem                // prepared, not yet installed
		pending = make(map[Hash]Commit)      // their commits, by commit hash
		fresh   = make(map[Hash]*importItem) // their first-seen states, by state hash
	)
	defer func() {
		// No helper may touch an item once the import returns.
		for _, it := range queue {
			if it.done != nil {
				<-it.done
			}
		}
		close(v.jobs)
	}()
	// drain installs queued items, oldest first, until keep remain. A bad
	// verdict stops it: the commits before the failing one are installed,
	// it and everything after are not.
	drain := func(keep int) error {
		for len(queue) > keep {
			it := queue[0]
			queue[0], queue = nil, queue[1:]
			if it.done != nil {
				<-it.done
				if it.err != nil {
					return it.err
				}
			}
			if it.enc != nil {
				// The pack keeps the verified bytes. A reassembled state is
				// in the store's own buffer, which the reassembly slot holds
				// next; it is the spare again only once a later state
				// displaces it, when this item has left the queue and its
				// helper is done. A state shipped whole and a shipped patch
				// are the caller's, so they are copied — only for first-seen
				// states: re-shipped known history never stores either. A
				// whole state is copied at its exact size, which packLocked
				// then stores without a second copy.
				enc, patch := it.enc, it.patch
				if patch != nil {
					patch = bytes.Clone(patch)
				} else {
					enc = append(make([]byte, 0, len(enc)), enc...)
				}
				s.packLocked(it.commit.State, enc, it.tree, it.base, patch)
				delete(fresh, it.commit.State)
			}
			s.addCommitLocked(it.hash, it.commit)
			delete(pending, it.hash)
		}
		return nil
	}
	for i := range commits {
		if err := drain(window - 1); err != nil {
			return err
		}
		it, err := s.prepareImportLocked(i, &commits[i], pending, fresh)
		if err != nil {
			// A bad verdict on an earlier commit is the first error.
			if derr := drain(0); derr != nil {
				return derr
			}
			return err
		}
		queue = append(queue, it)
		pending[it.hash] = it.commit
		if it.enc != nil {
			fresh[it.commit.State] = it
			if !it.checked {
				v.submit(it)
			}
		}
	}
	if err := drain(0); err != nil {
		return err
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

// importItem is one batch commit between the two ordered stages of an
// import. prepareImportLocked fills in the commit; for a first-seen state
// it also keeps the encoding, and verify then sets err.
type importItem struct {
	i      int // batch position, for errors
	hash   Hash
	commit Commit
	base   Hash   // the chain base: the first parent's state
	patch  []byte // the shipped patch; nil for a full state
	// enc is the encoding of a first-seen state, nil for a state already
	// stored or queued, and tree its chunk tree: a shipped patch is
	// reassembled into the store's spare buffer and the tree built in its
	// spare tree, which the item then owns. Until the item is installed
	// they are also the patch base, and the base of the address, for later
	// batch commits that chain to it.
	enc  []byte
	tree *chunkTree
	// checked is set when prepareImportLocked verified enc itself
	// (CheckEdit); otherwise done is nil unless enc is being verified on a
	// helper, and closed once err is set.
	checked bool
	done    chan struct{}
	err     error
}

// prepareImportLocked runs the order-dependent stage for batch commit i:
// parent and generation checks, then the encoding, shipped whole or
// reassembled against the first parent's state into the spare buffer,
// and its address, built in the spare tree — from the base's chunk tree
// and the shipped patch's copy runs, or from scratch for a state shipped
// whole. A first-seen state a patch builds is checked here with the same
// runs when the codec has the edit form. Parents and patch bases resolve
// among the queued commits (pending, fresh) before the store. Callers
// hold the write lock.
func (s *Store[S, Op, Val]) prepareImportLocked(i int, ec *ExportedCommit, pending map[Hash]Commit, fresh map[Hash]*importItem) (*importItem, error) {
	it := &importItem{i: i}
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
		return nil, fmt.Errorf("%w: commit %d has %d parents, at most 2", ErrBadImport, i, len(ec.Parents))
	}
	if len(ec.Parents) == 2 && bytes.Compare(ec.Parents[0][:], ec.Parents[1][:]) >= 0 {
		return nil, fmt.Errorf("%w: commit %d parents are not strictly ascending", ErrBadImport, i)
	}
	wantGen := 1
	var latest core.Timestamp
	for j, p := range ec.Parents {
		pc, known := pending[p]
		if !known {
			pc, known = s.commitLocked(p)
		}
		if !known {
			return nil, fmt.Errorf("%w: commit %d references unknown parent %v", ErrBadImport, i, p)
		}
		if pc.Gen >= wantGen {
			wantGen = pc.Gen + 1
		}
		if j == 0 {
			it.base = pc.State
		}
		if len(ec.Parents) == 1 && ec.Time <= pc.Time {
			return nil, fmt.Errorf("%w: commit %d time %d does not exceed its parent's %d", ErrBadImport, i, ec.Time, pc.Time)
		}
		latest = max(latest, pc.Time)
	}
	if len(ec.Parents) == 2 && ec.Time != latest {
		return nil, fmt.Errorf("%w: merge commit %d time %d is not its later parent's %d", ErrBadImport, i, ec.Time, latest)
	}
	if ec.Gen != wantGen {
		return nil, fmt.Errorf("%w: commit %d generation %d, want %d", ErrBadImport, i, ec.Gen, wantGen)
	}
	enc := ec.State
	var baseEnc []byte
	var baseTree *chunkTree
	var runs []delta.CopyRun
	if ec.Patch != nil {
		if ec.State != nil {
			return nil, fmt.Errorf("%w: commit %d carries both a state and a patch", ErrBadImport, i)
		}
		if len(ec.Parents) == 0 {
			return nil, fmt.Errorf("%w: commit %d is a patch with no parent", ErrBadImport, i)
		}
		var err error
		if f, ok := fresh[it.base]; ok {
			baseEnc, baseTree = f.enc, f.tree
		} else if baseEnc, baseTree, err = s.materializeLocked(it.base); err != nil {
			return nil, fmt.Errorf("%w: commit %d base: %v", ErrBadImport, i, err)
		}
		dst := s.spare
		s.spare = nil
		if enc, err = delta.ApplyTo(dst, baseEnc, ec.Patch); err != nil {
			return nil, fmt.Errorf("%w: commit %d patch: %v", ErrBadImport, i, err)
		}
		it.patch = ec.Patch
		// ApplyTo accepted the patch against baseEnc, so its runs parse.
		runs, _, _ = delta.CopyRuns(s.runs[:0], ec.Patch)
		s.runs = runs
	}
	into := s.spareTree
	s.spareTree = nil
	// Content addressing lets re-imported history short-circuit: a state
	// already stored, or queued earlier in this batch, is never verified,
	// and its reassembled encoding and chunk tree are spares again at
	// once.
	st, tree := s.addrRunsLocked(enc, baseTree, runs, into)
	it.commit = Commit{Parents: append([]Hash(nil), ec.Parents...), State: st, Gen: ec.Gen, Time: ec.Time}
	it.hash = commitHash(it.commit)
	// Every store mints the same root, Init's state at generation 1 and
	// time 0, so a parentless commit is one the store holds.
	if len(ec.Parents) == 0 && !s.commitExistsLocked(it.hash) {
		return nil, fmt.Errorf("%w: commit %d is a root other than this store's", ErrBadImport, i)
	}
	if s.objExistsLocked(st) || fresh[st] != nil {
		if it.patch != nil {
			s.keepSpareLocked(enc, tree)
		} else {
			s.keepSpareLocked(nil, tree) // a state shipped whole is the caller's
		}
		return it, nil
	}
	it.enc, it.tree = enc, tree
	if s.editCheck != nil && it.patch != nil {
		// The base is canonical: stored, or queued before this commit, so
		// a bad base fails the import first.
		if err := s.editCheck.CheckEdit(enc, baseEnc, runs); err != nil {
			return nil, notCanonical(i, err)
		}
		it.checked = true
	}
	return it, nil
}

// verify is the per-state stage: a first-seen state's encoding must be
// canonical — accepting a non-canonical one would give one logical state
// two content addresses and fork identical histories forever. It reads
// only the item and check; the state's first read decodes it.
func (it *importItem) verify(check func(enc []byte) error) {
	if err := check(it.enc); err != nil {
		it.err = notCanonical(it.i, err)
	}
}

// notCanonical is the import's verdict on batch commit i, whose state
// encoding check refused with err.
func notCanonical(i int, err error) error {
	return fmt.Errorf("%w: commit %d state encoding is not canonical: %v", ErrBadImport, i, err)
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

// verifiers is one import's pool of helper goroutines: each submitted
// state starts a helper until max run, so a batch of n first-seen states
// runs min(max, n). A helper touches only check and the items it
// takes, never a store field, so the write lock the importer holds
// throughout guards the store as before.
type verifiers struct {
	check   func(enc []byte) error
	jobs    chan *importItem
	max     int
	started int
}

func (v *verifiers) submit(it *importItem) {
	it.done = make(chan struct{})
	v.jobs <- it
	if v.started < v.max {
		v.started++
		go v.work()
	}
}

// work verifies queued items until the import closes jobs.
func (v *verifiers) work() {
	for it := range v.jobs {
		it.verify(v.check)
		close(it.done)
	}
}
