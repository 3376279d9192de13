// Package store is the Git-like replicated datastore the MRDTs run on —
// the reproduction's substitute for Irmin (§7.1). It keeps versioned,
// content-addressed states in a commit DAG with named branches; operations
// commit new versions, and a branch pulls from another via an MRDT
// three-way merge whose base is the branches' lowest common ancestor.
//
// The store provides exactly the guarantees the paper's semantics assume:
// unique, happens-before-respecting timestamps (Ψ_ts, from internal/clock)
// and a well-defined LCA for every pair of branches (Ψ_lca). Criss-cross
// merge patterns, where the DAG has several maximal common ancestors, are
// handled the way Git's recursive strategy handles them: the candidate
// ancestors are merged into a virtual base commit, which restores the
// "intersection of histories" reading of the LCA.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/recon"
)

// Hash is a content address: the SHA-256 of an encoded object.
type Hash [sha256.Size]byte

// String renders the short form of the hash.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:6]) }

// Codec serializes and deserializes concrete states. Encoding drives
// content addressing and the space-accounting used by the benchmarks;
// decoding lets the store install transferred histories (Import) without
// a side-channel decoder, which is what allows a registry of data types
// to round-trip states uniformly. Import calls Encode and Decode from
// several goroutines at once, so a codec must not share mutable state
// between calls.
type Codec[S any] interface {
	Encode(S) []byte
	Decode([]byte) (S, error)
}

// Options collects the store's tunables; the zero value is never used
// directly — DefaultOptions supplies the defaults and functional Option
// values override them.
type Options struct {
	// SnapshotEvery is the pack layer's chain bound: no read walks more
	// than SnapshotEvery-1 patches to reach a snapshot. A state whose
	// parent's chain is full is composed onto that chain's snapshot as
	// one patch, unless the patch reaches a quarter of the state's full
	// encoding; then it is stored whole. 1 disables packing (every state
	// a snapshot — the pre-pack storage format).
	SnapshotEvery int
	// StateCacheSize bounds the LRU of decoded states: branch heads and
	// recent merge bases stay hot while deep history is re-materialized
	// on demand instead of pinning memory.
	StateCacheSize int
	// Persister, when non-nil, receives every durable mutation (see
	// persist.go). nil keeps the store purely in-memory.
	Persister Persister
	// Obs, when non-nil, receives the store's metrics (merge/pull
	// latency, LCA walk steps, cache hit ratios — see obs.go). nil
	// disables instrumentation; the hot paths then pay one nil check.
	Obs *obs.Registry
	// VerifyOnOpen makes OpenRecovered run VerifyPack — the full
	// chain-forest reassembly and decode of every recovered state object
	// — before handing the store out. Off by default: recovery installs
	// the commit and pack index without touching state bytes (O(live
	// index), flat in history), the CRC framing of the durable log
	// already guards integrity, and materialize re-verifies every chain
	// it reassembles on first read. Tests and crash-injection properties
	// turn it on to fail at open instead of first read.
	VerifyOnOpen bool
}

// DefaultOptions returns the store defaults: a snapshot every 32 states
// and 128 cached decoded states.
func DefaultOptions() Options {
	return Options{
		SnapshotEvery:  32,
		StateCacheSize: 128,
	}
}

// Option adjusts store construction.
type Option func(*Options)

// WithSnapshotEvery sets the pack layer's chain bound — the maximum
// delta-chain length between a state and the snapshot it reassembles
// from. A chain-full state is composed onto the snapshot unless that
// patch reaches a quarter of the state; then it is stored whole. Smaller
// values trade composition work for cheaper cold reads; 1 stores every
// state as a full snapshot. Values below one are clamped to one.
func WithSnapshotEvery(n int) Option {
	return func(o *Options) { o.SnapshotEvery = max(n, 1) }
}

// WithStateCacheSize bounds the store's LRU of decoded states. Values
// below one are clamped to one so the hot head state is always cached.
func WithStateCacheSize(n int) Option {
	return func(o *Options) { o.StateCacheSize = max(n, 1) }
}

// WithVerifyOnOpen controls whether OpenRecovered runs VerifyPack on the
// recovered state (default false — lazy open; see Options.VerifyOnOpen).
func WithVerifyOnOpen(v bool) Option {
	return func(o *Options) { o.VerifyOnOpen = v }
}

// WithPersister attaches a durable log (e.g. internal/disk's segmented
// pack log) to the store: every commit, pack object and branch move is
// appended to it, and GC compacts it. Stores opened over a recovered log
// use OpenRecovered so history survives restarts.
func WithPersister(p Persister) Option {
	return func(o *Options) { o.Persister = p }
}

// WithObs attaches an observability registry: the store registers its
// latency histograms, LCA walk counter and cache hit-ratio counters on
// it. A nil registry keeps instrumentation disabled.
func WithObs(reg *obs.Registry) Option {
	return func(o *Options) { o.Obs = reg }
}

// Commit is one version in the DAG.
type Commit struct {
	// Parents are the commit's parents: none for the root, one for an
	// operation commit, two for a merge commit.
	Parents []Hash
	// State addresses the encoded state this commit pins.
	State Hash
	// Gen is the commit's generation number: 1 + max parent generation.
	Gen int
	// Time is the timestamp of the operation that created the commit (the
	// merge point's clock for merge commits).
	Time core.Timestamp
}

// Errors returned by the store.
var (
	ErrNoBranch     = errors.New("store: unknown branch")
	ErrBranchExists = errors.New("store: branch already exists")

	// ErrLastBranch is returned by DeleteBranch when asked to remove the
	// only remaining branch.
	ErrLastBranch = errors.New("store: cannot delete the last branch")
)

// Store is a single-object replicated datastore for one MRDT. It is safe
// for concurrent use and read-parallel: queries (Head, HeadHash, Size,
// Branches, Frontier, Export, ExportSincePacked, Commit, NumCommits) take a
// shared read lock and run concurrently with each other, while mutations
// (Apply, Pull, Sync, Fork, Import, Integrate, GC, DeleteBranch) and the
// capture calls (Snapshot, ExportSet, Capture.Close) serialize behind the
// write lock. Each branch carries its own Lamport clock, modelling one
// replica per branch.
type Store[S, Op, Val any] struct {
	mu      sync.RWMutex
	impl    core.MRDT[S, Op, Val]
	codec   Codec[S]
	opts    Options
	objects map[Hash]*packObject
	// frozen is a checkpoint's object index kept in serialized form
	// (frozen.go): entries not shadowed by the objects map resolve
	// through it by binary search and materialize lazily. nil except
	// after a checkpoint recovery; GC thaws and drops it.
	frozen  *FrozenIndex
	cache   *stateCache[S]
	commits map[Hash]Commit
	heads   map[string]Hash
	clocks  map[string]*clock.Clock
	nextID  int
	// rtree mirrors the commit-hash set for range-fingerprint set
	// reconciliation (recon.go). Built lazily on the first recon query —
	// so open time stays flat in history — and kept exact by
	// addCommitLocked and GC from then on.
	rtree *recon.Tree
	// captures are the open Captures; addCommitLocked appends every commit it
	// newly installs to each one's record. importVia is the tracking
	// branch of the Import in progress, stamped on the entries it
	// installs.
	captures  map[*Capture]struct{}
	importVia string
	// persistErr is the sticky persistence failure (persist.go): once a
	// Persister call fails, every later mutation reports it.
	persistErr error
	// metrics is the optional instrumentation (obs.go); nil when no
	// registry was attached.
	metrics *storeMetrics

	// One-slot reassembly cache (pack.go); own lock so readers holding
	// mu.RLock can refresh it.
	encMu   sync.Mutex
	encHash Hash
	encBuf  []byte
}

// New creates a store for impl with a single branch named main, holding
// the initial state. Branch clocks draw replica ids starting at 0; a
// process running several stores of the same object (e.g. one per network
// replica) must give each store a distinct id range via NewAt so that
// timestamps stay globally unique.
func New[S, Op, Val any](impl core.MRDT[S, Op, Val], codec Codec[S], main string, opts ...Option) *Store[S, Op, Val] {
	return NewAt(impl, codec, main, 0, opts...)
}

// NewAt is New with an explicit replica-id base for the store's branch
// clocks: branch k created in this store uses replica id replicaBase+k.
// It panics if initialization fails, which can only happen when a
// Persister rejects the initial records — persistent stores are opened
// with OpenRecovered, whose error return covers that path.
func NewAt[S, Op, Val any](impl core.MRDT[S, Op, Val], codec Codec[S], main string, replicaBase int, opts ...Option) *Store[S, Op, Val] {
	s, err := OpenRecovered(impl, codec, main, replicaBase, nil, opts...)
	if err != nil {
		panic(fmt.Sprintf("store: NewAt: %v", err))
	}
	return s
}

// Branches returns the branch names, sorted.
func (s *Store[S, Op, Val]) Branches() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.heads))
	for b := range s.heads {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Fork creates branch name from the current head of src (the
// CREATEBRANCH rule).
func (s *Store[S, Op, Val]) Fork(src, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.heads[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBranch, src)
	}
	if _, dup := s.heads[name]; dup {
		return fmt.Errorf("%w: %s", ErrBranchExists, name)
	}
	if s.nextID > clock.MaxReplica {
		return fmt.Errorf("store: replica id space exhausted")
	}
	s.heads[name] = h
	c, err := clock.New(s.nextID)
	if err != nil {
		return err
	}
	// The new replica's clock must dominate everything it has seen.
	c.Observe(clock.Pack(s.clocks[src].Now(), 0))
	s.clocks[name] = c
	s.nextID++
	s.persistBranchLocked(name)
	s.persistNextIDLocked()
	return s.finishPersistLocked()
}

// Apply performs op on branch b (the DO rule) and commits the resulting
// state. It returns the operation's value.
func (s *Store[S, Op, Val]) Apply(b string, op Op) (Val, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.metrics; m != nil {
		start := time.Now()
		defer func() { m.applyNs.Observe(time.Since(start).Nanoseconds()) }()
	}
	var zero Val
	head, ok := s.heads[b]
	if !ok {
		return zero, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	hc := s.commitAtLocked(head)
	cur, err := s.stateLocked(hc.State)
	if err != nil {
		return zero, err
	}
	t := s.clocks[b].Tick()
	next, val := s.impl.Do(op, cur, t)
	st := s.putState(next, hc.State)
	s.heads[b] = s.putCommit(Commit{
		Parents: []Hash{head},
		State:   st,
		Gen:     hc.Gen + 1,
		Time:    t,
	})
	// The superseded state leaves the cache unless a head still pins it:
	// a writer's trail of dead heads would otherwise flush the merge
	// bases and peer heads the cache is for.
	if st != hc.State && !s.headPinsLocked(hc.State) {
		s.cache.remove(hc.State)
	}
	s.persistBranchLocked(b)
	if err := s.finishPersistLocked(); err != nil {
		return zero, err
	}
	return val, nil
}

// headPinsLocked reports whether some branch head pins state st.
// Callers hold s.mu.
func (s *Store[S, Op, Val]) headPinsLocked(st Hash) bool {
	for _, h := range s.heads {
		if s.commitAtLocked(h).State == st {
			return true
		}
	}
	return false
}

// Head returns the current state of branch b.
func (s *Store[S, Op, Val]) Head(b string) (S, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var zero S
	head, ok := s.heads[b]
	if !ok {
		return zero, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	return s.stateLocked(s.commitAtLocked(head).State)
}

// HeadHash returns the commit hash at the head of branch b.
func (s *Store[S, Op, Val]) HeadHash(b string) (Hash, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	head, ok := s.heads[b]
	if !ok {
		return Hash{}, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	return head, nil
}

// Size returns the encoded size in bytes of branch b's state — the space
// metric reported by Figure 15.
func (s *Store[S, Op, Val]) Size(b string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	head, ok := s.heads[b]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	obj, _ := s.objLocked(s.commitAtLocked(head).State)
	return obj.size, nil
}

// Pull merges branch src into branch dst (the MERGE rule). Degenerate
// cases avoid the data type merge entirely:
//
//   - If the merge base is src's head, dst already has everything: the
//     pull is a no-op. When the two heads carry identical operation sets
//     under different merge commits — replicas that absorbed the same
//     operations through different exchanges — the pull instead elects
//     the smaller head hash as the canonical commit, so gossiping
//     replicas converge to one head, not just one state.
//   - If the merge base is dst's head, the pull fast-forwards by
//     adopting src's head commit. Likewise when dst's exclusive commits
//     are all merges (merges create no operations): adopting src's head
//     loses nothing, and declining to mint a fresh merge commit is what
//     lets repeated gossip rounds terminate instead of chasing each
//     other's heads forever.
//
// Otherwise a three-way merge of the two heads over their merge base is
// committed with both heads as parents. The base handed to the data type
// merge is the join of every maximal common ancestor (see lca), so its
// operation set is exactly the intersection of the heads' — the Ψ_lca
// property the data type merges are verified against holds by
// construction, for any divergence shape arbitrary-order gossip
// produces. dst's clock observes src's so that later operations on dst
// carry larger timestamps than everything merged in.
func (s *Store[S, Op, Val]) Pull(dst, src string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.pullLocked(dst, src); err != nil {
		return err
	}
	return s.finishPersistLocked()
}

func (s *Store[S, Op, Val]) pullLocked(dst, src string) error {
	if m := s.metrics; m != nil {
		start := time.Now()
		defer func() { m.pullNs.Observe(time.Since(start).Nanoseconds()) }()
	}
	hs, ok := s.heads[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBranch, src)
	}
	hd, ok := s.heads[dst]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBranch, dst)
	}
	if hd == hs {
		return nil // already identical
	}
	base, err := s.lca(hd, hs)
	if err != nil {
		return err
	}
	if base == hs {
		return nil // src is behind dst: nothing to pull
	}
	s.clocks[dst].Observe(clock.Pack(s.clocks[src].Now(), 0))
	if base == hd {
		// Fast-forward: dst has no exclusive history; adopting src's
		// head commit is exact and keeps the DAG transparent for
		// future LCAs.
		s.heads[dst] = hs
		s.persistBranchLocked(dst)
		return nil
	}
	// Heads that differ without differing in operations are convergence
	// bookkeeping, not merges: minting a merge commit for them would
	// move the heads forever without bringing them together.
	dstOps, srcOps := s.exclusiveOps(hd, hs)
	if len(srcOps) == 0 {
		if len(dstOps) == 0 && bytes.Compare(hs[:], hd[:]) < 0 {
			// Identical operation sets under different merge commits:
			// elect the smaller hash as the canonical head, so every
			// replica converges to one commit, not just one state.
			s.heads[dst] = hs
			s.persistBranchLocked(dst)
		}
		return nil // src has no operations dst lacks
	}
	if len(dstOps) == 0 {
		// Semantic fast-forward: src's head carries every operation
		// dst has (dst's exclusive commits are merges, which create
		// no events), so adopting it loses nothing.
		s.heads[dst] = hs
		s.persistBranchLocked(dst)
		return nil
	}
	return s.mergeHeadsLocked(dst, hd, hs, base)
}

// mergeHeadsLocked commits the three-way merge of dst's head hd with
// commit other over base, and advances dst to the merge commit. The
// caller has already observed the source clock.
func (s *Store[S, Op, Val]) mergeHeadsLocked(dst string, hd, other, base Hash) error {
	if m := s.metrics; m != nil {
		start := time.Now()
		defer func() { m.mergeNs.Observe(time.Since(start).Nanoseconds()) }()
	}
	dc, oc := s.commitAtLocked(hd), s.commitAtLocked(other)
	baseState, err := s.stateLocked(s.commitAtLocked(base).State)
	if err != nil {
		return err
	}
	dstState, err := s.stateLocked(dc.State)
	if err != nil {
		return err
	}
	otherState, err := s.stateLocked(oc.State)
	if err != nil {
		return err
	}
	merged := s.impl.Merge(baseState, dstState, otherState)
	// The merge commit's timestamp must dominate its whole ancestry;
	// the absorbed head's own timestamp bounds everything it carries.
	s.clocks[dst].Observe(oc.Time)
	t := s.clocks[dst].Tick()
	gen := dc.Gen
	if oc.Gen > gen {
		gen = oc.Gen
	}
	// The merge commit's first parent is dst's head: the pack layer
	// chains the merged state against it, and packed exports ship that
	// patch to peers that hold the parent.
	st := s.putState(merged, dc.State)
	s.heads[dst] = s.putCommit(Commit{
		Parents: []Hash{hd, other},
		State:   st,
		Gen:     gen + 1,
		Time:    t,
	})
	s.persistBranchLocked(dst)
	return nil
}

// Sync converges two branches atomically: a pulls b (a three-way merge
// over their merge base), then b adopts the result — no operation can
// interleave between the two pulls, so the second leg is always a
// fast-forward or election, never a second data type merge. After Sync
// the two branches hold equal heads.
func (s *Store[S, Op, Val]) Sync(a, b string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.pullLocked(a, b); err != nil {
		return err
	}
	if err := s.pullLocked(b, a); err != nil {
		return err
	}
	return s.finishPersistLocked()
}

// Commit returns the commit object at hash h.
func (s *Store[S, Op, Val]) Commit(h Hash) (Commit, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.commitLocked(h)
}

// putState packs state, chained against the base state hash (its commit
// parent's state; zero for the root), and returns its content address.
func (s *Store[S, Op, Val]) putState(state S, base Hash) Hash {
	t := s.metrics.startPhases()
	enc := s.codec.Encode(state)
	s.metrics.lap(phaseEncode, &t)
	h := sha256.Sum256(enc)
	s.metrics.lap(phaseHash, &t)
	s.cache.put(h, state)
	s.packLocked(h, enc, base, nil)
	return h
}

func (s *Store[S, Op, Val]) putCommit(c Commit) Hash {
	h := commitHash(c)
	s.addCommitLocked(h, c)
	return h
}

// commitHash is c's content address.
func commitHash(c Commit) Hash {
	// A commit's preimage is at most 3 hashes (two parents + state) and
	// two fixed-width integers; seeding the appends from a stack array
	// keeps the hot Apply path free of a per-commit heap allocation.
	var arr [3*sha256.Size + 16]byte
	buf := arr[:0]
	for _, p := range c.Parents {
		buf = append(buf, p[:]...)
	}
	buf = append(buf, c.State[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.Gen))
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.Time))
	return sha256.Sum256(buf)
}

// addCommitLocked installs c under its address h, unless it is present:
// content addressing makes it identical.
func (s *Store[S, Op, Val]) addCommitLocked(h Hash, c Commit) {
	if s.commitExistsLocked(h) {
		return
	}
	s.commits[h] = c
	if s.rtree != nil {
		s.rtree.Add(recon.MakeItem(uint64(c.Gen), h))
	}
	for cp := range s.captures {
		cp.log = append(cp.log, install{hash: h, via: s.importVia})
	}
	s.persistCommitLocked(h, c)
}
