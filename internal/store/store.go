// Package store is the Git-like replicated datastore the MRDTs run on —
// the reproduction's substitute for Irmin (§7.1). It keeps versioned,
// content-addressed states in a commit DAG with named branches;
// operations commit new versions, and a branch pulls from another.
//
// A branch head is a head set: commits none of which descends from
// another. In the paper's model a merge creates no event, so a pull
// commits nothing: it unions the two head sets and drops the dominated
// members. A branch's state is the canonical merge of its head set — the
// members folded pairwise in hash order, each step an MRDT three-way
// merge over the fold of the maximal common ancestors, so criss-cross
// histories merge the way Git's recursive strategy merges them — and is
// cached, not committed. Only an operation on a branch with several
// heads commits that merge first, as binary merge commits every replica
// that saw the same heads mints identically.
//
// The store provides exactly the guarantees the paper's semantics assume:
// unique, happens-before-respecting timestamps (Ψ_ts, from internal/clock)
// and, for every merge, a base carrying exactly the operations common to
// both sides (Ψ_lca).
//
// A store never forgets. No branch is deleted and a head set only grows
// by union, so every commit stays reachable: commits, pack objects and
// the recon tree only ever grow, and there is nothing to collect.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/recon"
)

// Hash is a content address, 32 bytes of SHA-256 output: a commit's is
// the SHA-256 of its fields (commitHash), a state's the root of its
// encoding's chunk tree (StateAddr).
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
//
// A codec may also have the form Check(enc []byte) error, nil exactly
// when Decode(enc) succeeds and Encode of the result is enc. Import and
// VerifyPack then validate encodings in place instead of round-tripping
// them (checkEncoding); neither caches a state.
//
// A codec may also have the append form AppendEncode(dst []byte, next,
// prev S, prevEnc []byte) ([]byte, int), which appends exactly
// Encode(next) to dst and returns the result with the number of its last
// bytes it copied from the end of prevEnc (0 when it copied none). When
// prevEnc is non-nil it is Encode(prev), and the codec may copy from it
// whatever next shares with prev; dst never shares memory with prevEnc.
// The store then encodes each operation commit from its parent's
// encoding, into a buffer it recycles, and diffs it against that
// encoding knowing the copied run is shared (putState): so such a
// codec's Decode and Check must keep no part of their input, which the
// store may overwrite once they return. In internal/wire, MLog,
// OrSetSpace and PNCounter have this form; MLog copies an append's
// parent whole.
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
	// Obs receives the store's metrics (merge/pull latency, LCA walk
	// steps, cache hit ratios — see obs.go). nil gives the store a
	// registry of its own.
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
// appended to it. Stores opened over a recovered log use OpenRecovered
// so history survives restarts.
func WithPersister(p Persister) Option {
	return func(o *Options) { o.Persister = p }
}

// WithObs attaches an observability registry: the store registers its
// latency histograms, LCA walk counter and cache hit-ratio counters on
// it. Without one (or with nil) the store counts into a private registry.
func WithObs(reg *obs.Registry) Option {
	return func(o *Options) { o.Obs = reg }
}

// Commit is one version in the DAG.
type Commit struct {
	// Parents are the commit's parents: none for the root, one for an
	// operation commit, two for a merge commit, sorted by hash.
	Parents []Hash
	// State addresses the encoded state this commit pins.
	State Hash
	// Gen is the commit's generation number: 1 + max parent generation.
	Gen int
	// Time is the timestamp of the operation that created the commit; a
	// merge commit repeats its later parent's, so only operation commits
	// carry timestamps of their own.
	Time core.Timestamp
}

// Errors returned by the store.
var (
	ErrNoBranch     = errors.New("store: unknown branch")
	ErrBranchExists = errors.New("store: branch already exists")
)

// Store is a single-object replicated datastore for one MRDT. It is safe
// for concurrent use and read-parallel: queries (Head, HeadHash, Size,
// Branches, Frontier, Export, ExportSincePacked, Commit, NumCommits) take a
// shared read lock and run concurrently with each other, while mutations
// (Apply, Pull, Sync, Fork, Import, Integrate) and the capture calls
// (Snapshot, ExportSet, Capture.Close) serialize behind the write lock.
// Each branch that takes operations carries its own Lamport clock,
// modelling one replica per branch; a branch Import created, which only
// mirrors the heads it was given, has none.
type Store[S, Op, Val any] struct {
	mu      sync.RWMutex
	impl    core.MRDT[S, Op, Val]
	codec   Codec[S]
	opts    Options
	objects map[Hash]*packObject
	// frozen is a checkpoint's object index kept in serialized form
	// (frozen.go): entries not shadowed by the objects map resolve
	// through it by binary search and materialize lazily. nil except
	// after a checkpoint recovery, and never dissolved: commits and
	// objects installed later go to the maps.
	frozen  *FrozenIndex
	cache   *stateCache[S]
	commits map[Hash]Commit
	// heads maps each branch to its head set: sorted by hash, never
	// empty, and never modified in place, so a set may be shared. pins
	// counts the head-set members, over all branches, that pin each
	// state. Both change only through setHeadsLocked.
	heads  map[string][]Hash
	pins   map[Hash]int
	clocks map[string]*clock.Clock
	nextID int
	// rtree mirrors the commit-hash set for range-fingerprint set
	// reconciliation (recon.go). Built lazily on the first recon query —
	// so open time stays flat in history — and kept exact by
	// addCommitLocked from then on.
	rtree *recon.Tree
	// captures are the open Captures; addCommitLocked appends every commit it
	// newly installs to each one's record. importVia is the label of the
	// import in progress (Integrate's via, Import's branch), stamped on
	// the entries it installs.
	captures  map[*Capture]struct{}
	importVia string
	// persistErr is the sticky persistence failure (persist.go): once a
	// Persister call fails, every later mutation reports it.
	persistErr error
	// metrics is the instrumentation (obs.go).
	metrics *storeMetrics

	// One-slot reassembly cache (pack.go); own lock so readers holding
	// mu.RLock can refresh it. encFree is true when no pack object holds
	// encBuf, so that a writer displacing it may recycle it.
	encMu   sync.Mutex
	encHash Hash
	encBuf  []byte
	encTree *chunkTree // encBuf's chunk tree
	encFree bool
	// appender is the codec's append form (Codec), nil without one, and
	// spare the buffer putState encodes the next state into: a slot
	// buffer packLocked displaced and no one holds. spareTree is the
	// slot's last displaced chunk tree, which putState builds the next
	// address in. Guarded by the write lock.
	appender  appender[S]
	spare     []byte
	spareTree *chunkTree
}

// appender is the append form of a Codec.
type appender[S any] interface {
	AppendEncode(dst []byte, next, prev S, prevEnc []byte) ([]byte, int)
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
// clocks: the k-th branch created with a clock (main, then each Fork)
// uses replica id replicaBase+k.
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

// Fork creates branch name at the head set of src (the CREATEBRANCH
// rule). The new branch is a new replica with a clock of its own, which
// needs no history: Apply observes the head set's latest timestamp before
// every tick.
func (s *Store[S, Op, Val]) Fork(src, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs, ok := s.heads[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBranch, src)
	}
	if _, dup := s.heads[name]; dup {
		return fmt.Errorf("%w: %s", ErrBranchExists, name)
	}
	c, err := clock.New(s.nextID)
	if err != nil {
		return err
	}
	s.setHeadsLocked(name, hs)
	s.clocks[name] = c
	s.nextID++
	s.persistBranchLocked(name)
	s.persistNextIDLocked()
	return s.finishPersistLocked()
}

// Apply performs op on branch b (the DO rule) and commits the resulting
// state. On a branch with several heads it first commits their canonical
// merge (mergeHeadsLocked), the op's one parent. The branch clock
// observes that parent's timestamp, the latest in its history, before it
// ticks. A branch without a clock (Import's) takes no operations. Apply
// returns the operation's value.
func (s *Store[S, Op, Val]) Apply(b string, op Op) (Val, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	defer func() { s.metrics.applyNs.Observe(time.Since(start).Nanoseconds()) }()
	var zero Val
	hs, ok := s.heads[b]
	if !ok {
		return zero, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	clk := s.clocks[b]
	if clk == nil {
		return zero, fmt.Errorf("store: %s has no clock and takes no operations", b)
	}
	head, err := s.mergeHeadsLocked(hs)
	if err != nil {
		return zero, err
	}
	hc := s.commitAtLocked(head)
	cur, err := s.stateLocked(hc.State)
	if err != nil {
		return zero, err
	}
	clk.Observe(hc.Time)
	t := clk.Tick()
	next, val := s.impl.Do(op, cur, t)
	st := s.putState(next, &cur, hc.State)
	s.setHeadsLocked(b, []Hash{s.putCommit(Commit{
		Parents: []Hash{head},
		State:   st,
		Gen:     hc.Gen + 1,
		Time:    t,
	})})
	// The superseded state leaves the cache unless a head still pins it:
	// a writer's trail of dead heads would otherwise flush the merge
	// bases and peer heads the cache is for.
	if st != hc.State && s.pins[hc.State] == 0 {
		s.cache.remove(hc.State)
	}
	s.persistBranchLocked(b)
	if err := s.finishPersistLocked(); err != nil {
		return zero, err
	}
	return val, nil
}

// setHeadsLocked makes hs branch b's head set and keeps pins in step:
// each member of the old set unpins its state and each of the new one
// pins it. Callers hold the write lock.
func (s *Store[S, Op, Val]) setHeadsLocked(b string, hs []Hash) {
	for _, h := range s.heads[b] {
		st := s.commitAtLocked(h).State
		if s.pins[st]--; s.pins[st] <= 0 {
			delete(s.pins, st)
		}
	}
	s.heads[b] = hs
	for _, h := range hs {
		s.pins[s.commitAtLocked(h).State]++
	}
}

// mergeHeadsLocked returns the one commit that carries head set hs: its
// member, or else the canonical merge of its members, committed. The
// members fold in foldLocked's order, one binary merge commit per step,
// each with its two parents sorted, the later parent's timestamp and no
// clock tick. So every replica that writes after seeing the same heads
// commits the same merges. Callers hold the write lock.
func (s *Store[S, Op, Val]) mergeHeadsLocked(hs []Hash) (Hash, error) {
	acc := hs[0]
	for i := 1; i < len(hs); i++ {
		merged, err := s.foldLocked(hs[:i+1])
		if err != nil {
			return Hash{}, err
		}
		ps := sortHashes([]Hash{acc, hs[i]})
		pc, qc := s.commitAtLocked(ps[0]), s.commitAtLocked(ps[1])
		// The pack layer chains the merged state against the first
		// parent's: the patch packed exports ship.
		st := s.putState(merged, nil, pc.State)
		acc = s.putCommit(Commit{
			Parents: ps,
			State:   st,
			Gen:     max(pc.Gen, qc.Gen) + 1,
			Time:    max(pc.Time, qc.Time),
		})
	}
	return acc, nil
}

// Head returns the current state of branch b: its head's state, or the
// canonical merge of its head set (foldLocked).
func (s *Store[S, Op, Val]) Head(b string) (S, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hs, ok := s.heads[b]
	if !ok {
		var zero S
		return zero, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	return s.foldLocked(hs)
}

// HeadHash returns the name of branch b's head set (HeadSetHash): the
// head commit's hash while the branch has one head.
func (s *Store[S, Op, Val]) HeadHash(b string) (Hash, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hs, ok := s.heads[b]
	if !ok {
		return Hash{}, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	return HeadSetHash(hs), nil
}

// Heads returns the members of branch b's head set, sorted by hash; nil
// for an unknown branch.
func (s *Store[S, Op, Val]) Heads(b string) []Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.heads[b])
}

// Size returns the encoded size in bytes of branch b's state — the space
// metric reported by Figure 15.
func (s *Store[S, Op, Val]) Size(b string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hs, ok := s.heads[b]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	if len(hs) == 1 {
		obj, _ := s.objLocked(s.commitAtLocked(hs[0]).State)
		return obj.size, nil
	}
	st, err := s.foldLocked(hs)
	if err != nil {
		return 0, err
	}
	return len(s.codec.Encode(st)), nil
}

// Pull merges branch src into branch dst (the MERGE rule): dst's head set
// becomes the union of both sets, less every member another member
// descends from. In the paper's model a merge creates no event, and a
// pull mints no commit: dst's state is the canonical merge of its head
// set (Head), and the next Apply on dst commits it. So a pull of news
// already held changes nothing, and branches holding the same operations
// hold the same head set.
func (s *Store[S, Op, Val]) Pull(dst, src string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.pullLocked(dst, src); err != nil {
		return err
	}
	return s.finishPersistLocked()
}

func (s *Store[S, Op, Val]) pullLocked(dst, src string) error {
	hs, ok := s.heads[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBranch, src)
	}
	return s.uniteLocked(dst, hs)
}

// uniteLocked is the union every pull and Integrate lands with: dst's
// head set becomes the maximal members of itself and hs. It persists dst
// only when the set moved. Callers hold the write lock.
func (s *Store[S, Op, Val]) uniteLocked(dst string, hs []Hash) error {
	start := time.Now()
	defer func() { s.metrics.pullNs.Observe(time.Since(start).Nanoseconds()) }()
	hd, ok := s.heads[dst]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBranch, dst)
	}
	if u := s.maximalLocked(append(slices.Clone(hd), hs...)); !slices.Equal(u, hd) {
		s.setHeadsLocked(dst, u)
		s.persistBranchLocked(dst)
	}
	return nil
}

// Sync converges two branches atomically: afterwards both hold the union
// of their head sets.
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

// NumCommits returns the number of commits the store holds.
func (s *Store[S, Op, Val]) NumCommits() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.numCommitsLocked()
}

// putState packs state, chained against the base state hash (its commit
// parent's state; zero for the root), and returns its content address.
// prev, when non-nil, is base's decoded state. The base's encoding is
// materialized once — the reassembly slot holds it when base was the
// last state stored — and serves three steps. A codec with the append
// form (Codec) encodes state into the spare buffer, copying what it
// shares with prev from that encoding, and reports the run it copied.
// The patch from base's encoding is diffed with that run already known
// to be shared (delta.MakeShared), so an append to a log compares only
// what it added. And the address is computed from base's chunk tree and
// the patch's copy runs — the copied run alone when the codec reported
// one — so it hashes what the operation changed; the pack stores the
// same patch.
func (s *Store[S, Op, Val]) putState(state S, prev *S, base Hash) Hash {
	start := time.Now()
	var baseEnc []byte
	var baseTree *chunkTree
	// The state's own size is checked against the patch format's limit
	// once it is encoded. A base that does not reassemble gets no patch,
	// here or in packLocked: the state is stored whole.
	if _, ok := s.chainBaseLocked(base, 0); ok {
		baseEnc, baseTree, _ = s.materializeLocked(base)
	}
	t := time.Now()
	reassembly := t.Sub(start)
	enc, copied := s.encodeLocked(state, prev, baseEnc)
	s.metrics.lap(phaseEncode, &t)
	var patch []byte
	var runs []delta.CopyRun
	if _, ok := s.chainBaseLocked(base, len(enc)); ok && baseEnc != nil {
		var read int
		patch, read = delta.MakeShared(baseEnc, enc, copied)
		s.metrics.deltaCompared.Add(int64(read))
		if copied > 0 {
			runs = []delta.CopyRun{{At: len(enc) - copied, Off: len(baseEnc) - copied, Len: copied}}
		} else {
			runs, _, _ = delta.CopyRuns(patch)
		}
		now := time.Now()
		s.metrics.phaseNs[phaseDelta].Observe((reassembly + now.Sub(t)).Nanoseconds())
		t = now
	} else {
		baseTree = nil
	}
	into := s.spareTree
	s.spareTree = nil
	h, tree := s.addrRunsLocked(enc, baseTree, runs, into)
	s.metrics.lap(phaseHash, &t)
	s.cache.put(h, state)
	s.packLocked(h, enc, tree, base, patch)
	return h
}

// encodeLocked encodes state and counts the bytes. A codec with the
// append form encodes it into the spare buffer, copying from baseEnc,
// base's encoding, when prev is base's state, and reports how many of
// the encoding's last bytes it copied; any other codec allocates with
// Encode. Callers hold the write lock.
func (s *Store[S, Op, Val]) encodeLocked(state S, prev *S, baseEnc []byte) ([]byte, int) {
	var enc []byte
	copied := 0
	if s.appender == nil {
		enc = s.codec.Encode(state)
	} else {
		var p S
		if prev != nil {
			p = *prev
		} else {
			baseEnc = nil
		}
		dst := s.spare[:0]
		s.spare = nil
		enc, copied = s.appender.AppendEncode(dst, state, p, baseEnc)
	}
	s.metrics.encodedBytes.Add(int64(len(enc)))
	s.metrics.encodeCopied.Add(int64(copied))
	return enc, copied
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
