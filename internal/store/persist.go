package store

// Persistence: the store's durability seam. A store constructed with
// WithPersister reports every durable mutation — new commits, new pack
// objects, branch-head moves, replica-id allocation — to a Persister as
// it happens, in an order that keeps any prefix of the record stream
// self-consistent (an object precedes the commit that pins it, a commit
// precedes the branch record that points at it). The store deletes
// nothing, so the stream only ever adds.
//
// The concrete persister is internal/disk's segmented pack log; the
// interface lives here so the store stays free of file-format concerns
// and tests can substitute an in-memory recorder.

import (
	"fmt"
	"slices"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
)

// ObjectRecord is the persisted form of one pack object: the stored
// bytes (snapshot or patch), the chain base for patches, and the
// recorded full size and chain depth, exactly as pack.go keeps them.
// Records always carry their bytes; the one lazy form of a recovered
// object is a FrozenIndex entry, whose bytes load through its loader.
type ObjectRecord struct {
	Data  []byte
	Base  Hash
	Delta bool
	Size  int
	Depth int
}

// BranchRecord is the persisted form of one branch: its head set, sorted
// by hash, and the state of its Lamport clock (replica id plus counter),
// enough to resume issuing unique, monotonic timestamps after a restart.
// A branch Import created has no clock: Replica is NoClock and Clock
// zero.
type BranchRecord struct {
	Heads   []Hash
	Replica int
	Clock   int64
}

// NoClock is the Replica of a BranchRecord whose branch has no clock.
const NoClock = -1

// RecoveredState is a store's durable contents in persister-neutral
// form: what a Persister replays from its log on open.
type RecoveredState struct {
	Commits  map[Hash]Commit
	Objects  map[Hash]ObjectRecord
	Branches map[string]BranchRecord
	NextID   int
	// Frozen, when non-nil, is the checkpoint's index in serialized form
	// (frozen.go): Commits and Objects then hold only the replayed suffix
	// — records appended after the checkpoint, which shadow the frozen
	// sections.
	Frozen *FrozenIndex
}

// Persister receives every durable mutation of a store. Append* calls
// happen under the store's write lock and may buffer; Flush is called
// once at the end of each mutating store operation and must make the
// batch durable to the persister's configured degree (its fsync policy).
// A Persister error makes the store fail-stop: the error is surfaced
// from the current (or next) mutating call and every later mutation
// keeps failing, so a replica can never silently run ahead of its log.
type Persister interface {
	AppendCommit(h Hash, c Commit) error
	AppendObject(h Hash, o ObjectRecord) error
	AppendBranch(name string, b BranchRecord) error
	AppendNextID(id int) error
	Flush() error
}

// persistCommitLocked reports a freshly stored commit.
func (s *Store[S, Op, Val]) persistCommitLocked(h Hash, c Commit) {
	if p := s.opts.Persister; p != nil && s.persistErr == nil {
		if err := p.AppendCommit(h, c); err != nil {
			s.persistErr = err
		}
	}
}

// persistObjectLocked reports a freshly stored pack object.
func (s *Store[S, Op, Val]) persistObjectLocked(h Hash, o *packObject) {
	if p := s.opts.Persister; p != nil && s.persistErr == nil {
		err := p.AppendObject(h, ObjectRecord{
			Data: o.data, Base: o.base, Delta: o.delta, Size: o.size, Depth: o.depth,
		})
		if err != nil {
			s.persistErr = err
		}
	}
}

// persistBranchLocked reports branch b's current head set and clock.
func (s *Store[S, Op, Val]) persistBranchLocked(b string) {
	if p := s.opts.Persister; p != nil && s.persistErr == nil {
		if err := p.AppendBranch(b, s.branchRecordLocked(b)); err != nil {
			s.persistErr = err
		}
	}
}

// branchRecordLocked is branch b's persisted form.
func (s *Store[S, Op, Val]) branchRecordLocked(b string) BranchRecord {
	if c := s.clocks[b]; c != nil {
		return BranchRecord{Heads: s.heads[b], Replica: c.Replica(), Clock: c.Now()}
	}
	return BranchRecord{Heads: s.heads[b], Replica: NoClock}
}

// persistNextIDLocked reports the replica-id allocator's position.
func (s *Store[S, Op, Val]) persistNextIDLocked() {
	if p := s.opts.Persister; p != nil && s.persistErr == nil {
		if err := p.AppendNextID(s.nextID); err != nil {
			s.persistErr = err
		}
	}
}

// finishPersistLocked ends one mutating operation: flush the persister's
// batch and surface the sticky error, if any. Mutations on a store
// without a persister pay a nil check and nothing else.
func (s *Store[S, Op, Val]) finishPersistLocked() error {
	p := s.opts.Persister
	if p == nil {
		return nil
	}
	if s.persistErr == nil {
		if err := p.Flush(); err != nil {
			s.persistErr = err
		}
	}
	if s.persistErr != nil {
		return fmt.Errorf("store: persistence failed: %w", s.persistErr)
	}
	return nil
}

// FlushStorage flushes any buffered persistence and reports the sticky
// persistence error, if one has occurred. It is a no-op without a
// persister. Node shutdown calls it so a close cannot mask a disk
// failure.
func (s *Store[S, Op, Val]) FlushStorage() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finishPersistLocked()
}

// OpenRecovered constructs a store from a persister's replayed state.
// A nil or branchless rs builds a fresh store exactly like NewAt —
// writing the initial records through the persister, when one is
// configured — so callers need not special-case first open.
//
// A non-empty rs is installed and then validated: every branch head must
// resolve, every reachable commit's parents and state object must be
// present, and the generation invariant must hold — an O(commit index)
// walk that never touches state bytes. The state objects of a frozen
// index stay on disk until first read, and nothing is decoded at open:
// a caller that wants to fail at open instead of first read runs
// VerifyPack on the store it gets, which reassembles and checks every
// retained object. When recovering, replicaBase only acts as a floor
// for the replica-id allocator — recovered branches keep the ids they
// were created with.
func OpenRecovered[S, Op, Val any](impl core.MRDT[S, Op, Val], codec Codec[S], main string, replicaBase int, rs *RecoveredState, opts ...Option) (*Store[S, Op, Val], error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	nc, no := 0, 0
	if rs != nil {
		nc, no = len(rs.Commits), len(rs.Objects)
	}
	s := &Store[S, Op, Val]{
		impl:    impl,
		codec:   codec,
		opts:    o,
		objects: make(map[Hash]*packObject, no+1),
		commits: make(map[Hash]Commit, nc+1),
		heads:   make(map[string][]Hash),
		pins:    make(map[Hash]*held[S]),
		clocks:  make(map[string]*clock.Clock),
		metrics: newStoreMetrics(o.Obs),
	}
	s.appender, _ = codec.(appender[S])
	s.editCheck, _ = codec.(editChecker)
	if rs == nil || len(rs.Branches) == 0 {
		// Fresh start — possibly over a log whose branch records were
		// truncated away. Respect a recovered allocator floor so new
		// branch clocks never reuse replica ids that orphaned records
		// already spent.
		s.nextID = replicaBase
		if rs != nil && rs.NextID > s.nextID {
			s.nextID = rs.NextID
		}
		init := impl.Init()
		st := s.putState(init, nil, Hash{})
		root := s.putCommit(Commit{State: st, Gen: 1})
		s.setHeadsLocked(main, []Hash{root})
		c, err := clock.New(s.nextID)
		if err != nil {
			return nil, err
		}
		s.clocks[main] = c
		s.nextID++
		s.persistBranchLocked(main)
		s.persistNextIDLocked()
		if err := s.finishPersistLocked(); err != nil {
			return nil, err
		}
		return s, nil
	}

	// With a frozen index, nothing decodes per entry at open: commits and
	// objects alike resolve by binary search over the index's raw
	// sections, and only the replayed suffix lands in the maps (skipping
	// hashes the index already holds, keeping map and index disjoint so
	// counts stay exact). Open time is O(suffix), flat in history.
	s.frozen = rs.Frozen
	for h, c := range rs.Commits {
		if s.frozen != nil && s.frozen.HasCommit(h) {
			continue
		}
		s.commits[h] = Commit{
			Parents: append([]Hash(nil), c.Parents...),
			State:   c.State,
			Gen:     c.Gen,
			Time:    c.Time,
		}
	}
	for h, or := range rs.Objects {
		s.objects[h] = &packObject{
			data: or.Data, base: or.Base, delta: or.Delta, size: or.Size, depth: or.Depth,
			stored: len(or.Data),
		}
	}
	maxReplica := -1
	for name, b := range rs.Branches {
		if len(b.Heads) == 0 {
			return nil, fmt.Errorf("%w: recovered branch %q has no head", ErrCorruptPack, name)
		}
		s.setHeadsLocked(name, sortHashes(slices.Clone(b.Heads)))
		if b.Replica == NoClock {
			continue
		}
		c, err := clock.New(b.Replica)
		if err != nil {
			return nil, fmt.Errorf("store: recovered branch %q: %w", name, err)
		}
		c.Observe(clock.Pack(b.Clock, 0))
		s.clocks[name] = c
		maxReplica = max(maxReplica, b.Replica)
	}
	s.nextID = max(rs.NextID, maxReplica+1, replicaBase)
	if _, ok := s.heads[main]; !ok {
		return nil, fmt.Errorf("%w: recovered state has no branch %q (log belongs to another node?)", ErrCorruptPack, main)
	}
	if rs.Frozen != nil {
		// Checkpoint recovery validates heads only: the index arrived
		// under a CRC-verified frame, every chain re-checks its content
		// address at first materialization, and the recovery ladder
		// (peepul) reopens with a full replay when a checkpoint
		// turns out bad — so open stays flat instead of O(history).
		if err := s.validateHeads(); err != nil {
			return nil, err
		}
	} else if err := s.validateRecovered(); err != nil {
		return nil, err
	}
	return s, nil
}

// validateRecovered checks the reachable closure of every branch head:
// commits resolve, parents and pinned state objects are present, and
// generation numbers respect Gen = 1 + max parent generation (the
// invariant the generation-guided DAG walks assume).
func (s *Store[S, Op, Val]) validateRecovered() error {
	if err := s.validateHeads(); err != nil {
		return err
	}
	seen := make(map[Hash]bool)
	var stack []Hash
	for _, hs := range s.heads {
		for _, h := range hs {
			if !seen[h] {
				seen[h] = true
				stack = append(stack, h)
			}
		}
	}
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := s.commits[h]
		if !s.objExistsLocked(c.State) {
			return fmt.Errorf("%w: commit %v pins missing state %v", ErrCorruptPack, h, c.State)
		}
		wantGen := 1
		for _, p := range c.Parents {
			pc, ok := s.commits[p]
			if !ok {
				return fmt.Errorf("%w: commit %v references missing parent %v", ErrCorruptPack, h, p)
			}
			if pc.Gen >= wantGen {
				wantGen = pc.Gen + 1
			}
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
		if c.Gen != wantGen {
			return fmt.Errorf("%w: commit %v has generation %d, want %d", ErrCorruptPack, h, c.Gen, wantGen)
		}
	}
	return nil
}

// validateHeads checks that every branch head resolves to a present
// commit pinning a present state object — the O(heads) validation
// checkpoint recoveries run in place of the full closure walk, and
// VerifyPack's last step.
func (s *Store[S, Op, Val]) validateHeads() error {
	for b, hs := range s.heads {
		for _, h := range hs {
			c, ok := s.commitLocked(h)
			if !ok {
				return fmt.Errorf("%w: branch %s heads missing commit %v", ErrCorruptPack, b, h)
			}
			if !s.objExistsLocked(c.State) {
				return fmt.Errorf("%w: branch %s pins missing state %v", ErrCorruptPack, b, c.State)
			}
		}
	}
	return nil
}
