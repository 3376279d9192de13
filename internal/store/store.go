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
// held decoded while the set pins it, not committed. Only an operation
// on a branch with several heads commits that merge first, as binary
// merge commits every replica that saw the same heads mints identically.
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
	"unsafe"

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
// to round-trip states uniformly. Readers that hold the store's read
// lock at once — state reads, VerifyPack, size queries — call Encode and
// Decode concurrently, so a codec must not share mutable state between
// calls.
//
// A codec may also have the form Check(enc []byte) error, nil exactly
// when Decode(enc) succeeds and Encode of the result is enc. Import and
// VerifyPack then validate encodings in place instead of round-tripping
// them (checkEncoding); neither caches a state.
//
// A codec with Check may also have the edit form CheckEdit(enc, base
// []byte, runs []delta.CopyRun) error, nil exactly when Check(enc) is,
// given that base is canonical and that runs are the runs enc copies
// from it (enc[At:At+Len] == base[Off:Off+Len]). Import then checks each
// first-seen state a shipped patch builds with the patch's copy runs,
// inline, in the work of the edit rather than of the state. In
// internal/wire, OrSetSpace, OrSetSpaceTime and MLog have it.
//
// A codec may also have the append form AppendEncode(dst []byte, inPlace
// int, next, prev S, prevEnc []byte, runs []delta.CopyRun) (enc, buf
// []byte, copied []delta.CopyRun), which writes exactly Encode(next) at
// the end of buf — dst when the encoding fits in it, else a new buffer
// with an eighth more room in front — and returns the encoding, enc, the
// last len(enc) bytes of buf, and runs, to which it has appended each run
// of enc it copied from prevEnc: enc[At:At+Len] == prevEnc[Off:Off+Len],
// the runs ascending by At, inside both encodings and apart. When prevEnc
// is non-nil it is Encode(prev), and the codec may copy from it whatever
// next shares with prev; dst's last inPlace bytes are then prevEnc's
// last inPlace bytes, and of a run ending both encodings the codec need
// not write those bytes into dst again, but must write every other byte
// of enc. dst never
// shares memory with prevEnc, and runs is the store's, reused from commit
// to commit. The store then encodes each operation commit from its
// parent's encoding into one of two buffers it alternates, the one that
// holds the grandparent's encoding, so that an append writes only what
// is new since the grandparent; and it diffs the encoding against the
// parent's knowing the runs are shared (putState), so a false run
// corrupts the stored patch. Such a codec's Decode and Check must keep no
// part of their input, which the store may overwrite once they return.
// In internal/wire, MLog, OrSetSpace, OrSetSpaceTime and PNCounter have
// this form: MLog copies an append's parent whole and leaves the bytes in
// place unwritten, the OR-sets copy the pairs around one added, refreshed
// or removed pair, writing their whole encoding, and PNCounter copies
// nothing. A codec whose AppendEncode has any other signature has no
// append form: the store encodes with its Encode.
type Codec[S any] interface {
	Encode(S) []byte
	Decode([]byte) (S, error)
}

// Options collects what a store is built with. The zero value is a
// purely in-memory store counting into a registry of its own; the pack
// layout is fixed (pack.go).
type Options struct {
	// Persister, when non-nil, receives every durable mutation (see
	// persist.go). nil keeps the store purely in-memory.
	Persister Persister
	// Obs receives the store's metrics (merge/pull latency, LCA walk
	// steps, cache hit ratios — see obs.go). nil gives the store a
	// registry of its own.
	Obs *obs.Registry
}

// Option adjusts store construction.
type Option func(*Options)

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
	commits map[Hash]Commit
	// heads maps each branch to its head set: sorted by hash, never
	// empty, and never modified in place, so a set may be shared. pins
	// holds what they pin (held), the only decoded states the store
	// keeps. Both change only through setHeadsLocked.
	heads  map[string][]Hash
	pins   map[Hash]*held[S]
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
	// mu.RLock can refresh it. encWhole is the whole buffer encBuf lies
	// in, len == cap: encBuf ends it when the append form wrote it, and
	// starts it when a patch was applied into it. encFree is true when no
	// pack object holds encBuf, so that a writer displacing it may
	// recycle encWhole.
	encMu    sync.Mutex
	encHash  Hash
	encBuf   []byte
	encWhole []byte
	encTree  *chunkTree // encBuf's chunk tree
	encFree  bool
	// appender is the codec's append form (Codec), nil without one, and
	// spare the whole buffer putState encodes the next state at the end
	// of with it, or an import reassembles the next shipped patch into
	// from its start: a slot buffer packLocked displaced and no one
	// holds. The spare's last spareTail bytes are the last spareTail
	// bytes of the encoding of state spareKey, so an encoding copied from
	// that one's need not write them. spareTree is the slot's last
	// displaced chunk tree, which the next address is built in. Guarded
	// by the write lock.
	appender  appender[S]
	spare     []byte
	spareKey  Hash
	spareTail int
	spareTree *chunkTree
	// runs is the buffer the append form reports its copied runs in, and
	// an import parses a shipped patch's copy runs into. editCheck is the
	// codec's edit form (Codec), nil without one.
	runs      []delta.CopyRun
	editCheck editChecker
}

// appender is the append form of a Codec.
type appender[S any] interface {
	AppendEncode(dst []byte, inPlace int, next, prev S, prevEnc []byte, runs []delta.CopyRun) (enc, buf []byte, copied []delta.CopyRun)
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
	head, cur, err := s.mergeHeadsLocked(hs)
	if err != nil {
		return zero, err
	}
	hc := s.commitAtLocked(head)
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
	s.holdLocked(st, s.pins[st], next)
	s.persistBranchLocked(b)
	if err := s.finishPersistLocked(); err != nil {
		return zero, err
	}
	return val, nil
}

// setHeadsLocked makes hs branch b's head set and keeps pins in step:
// the new set pins its members' states and, with several members, its
// fold, and then the old set unpins its own, so a state both pin stays
// decoded. Callers hold the write lock.
func (s *Store[S, Op, Val]) setHeadsLocked(b string, hs []Hash) {
	old := s.heads[b]
	s.heads[b] = hs
	s.pinSetLocked(hs, 1)
	s.pinSetLocked(old, -1)
}

// held is what the head sets pin under one key of Store.pins: a member's
// state under its address, or a multi-head set's fold under the set's
// name (HeadSetHash), which no state address equals. n counts the pins,
// and the entry goes with the last. st is filled on the key's first read
// (readLocked); size is then its encoded size, 0 for a fold, which is
// never encoded.
type held[S any] struct {
	n    int
	mu   sync.Mutex
	st   S
	size int
	ok   bool
}

// pinSetLocked moves by d the pins of head set hs: its members' states
// and, with several members, its fold. Callers hold the write lock.
func (s *Store[S, Op, Val]) pinSetLocked(hs []Hash, d int) {
	for _, h := range hs {
		s.pinLocked(s.commitAtLocked(h).State, d)
	}
	if len(hs) > 1 {
		s.pinLocked(HeadSetHash(hs), d)
	}
}

func (s *Store[S, Op, Val]) pinLocked(k Hash, d int) {
	p := s.pins[k]
	if p == nil {
		p = &held[S]{}
		s.pins[k] = p
	}
	if p.n += d; p.n <= 0 {
		s.metrics.residentBytes.Add(-int64(p.size))
		delete(s.pins, k)
	}
}

// readLocked returns the state read reads, held under k while a head set
// pins k: read on the key's first read only, once even when readers
// under the read lock race for it, since the entry's mutex is held while
// it fills. Callers hold s.mu (read or write).
func (s *Store[S, Op, Val]) readLocked(k Hash, read func() (S, error)) (S, error) {
	p := s.pins[k]
	if p == nil {
		return read()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ok {
		s.metrics.cacheHit.Inc()
		return p.st, nil
	}
	st, err := read()
	if err == nil {
		s.holdLocked(k, p, st)
	}
	return st, err
}

// holdLocked makes st the decoded state p holds under k. Apply calls it
// with the state it built, so the next operation starts from the value
// the data type returned, not from a decode.
func (s *Store[S, Op, Val]) holdLocked(k Hash, p *held[S], st S) {
	if obj, ok := s.objLocked(k); ok && !p.ok {
		p.size = obj.size
		s.metrics.residentBytes.Add(int64(p.size))
	}
	p.st, p.ok = st, true
}

// mergeHeadsLocked returns the one commit that carries head set hs, and
// its state: its member, or else the canonical merge of its members,
// committed. The members fold once, one binary merge commit per step,
// each with its two parents sorted, the later parent's timestamp and no
// clock tick. So every replica that writes after seeing the same heads
// commits the same merges. Callers hold the write lock.
func (s *Store[S, Op, Val]) mergeHeadsLocked(hs []Hash) (Hash, S, error) {
	acc := hs[0]
	st, err := s.foldStepsLocked(hs, func(i int, merged S) {
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
	})
	return acc, st, err
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
// form (Codec) encodes state at the end of the spare buffer, copying what
// it shares with prev from that encoding, less what the spare already
// holds of it, and reports the runs it copied. The patch from base's
// encoding is diffed with those runs already known to be shared
// (delta.MakeShared), so an append to a log or an add to a set compares
// only what it changed. And the address is computed from base's chunk
// tree and the patch's copy runs, so it hashes what the operation
// changed; the pack stores the same patch.
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
	enc, buf, copies, tail := s.encodeLocked(state, prev, base, baseEnc)
	s.metrics.lap(phaseEncode, &t)
	var patch []byte
	if _, ok := s.chainBaseLocked(base, len(enc)); ok && baseEnc != nil {
		var read int
		patch, read = delta.MakeShared(baseEnc, enc, copies)
		s.metrics.deltaCompared.Add(int64(read))
		now := time.Now()
		s.metrics.phaseNs[phaseDelta].Observe((reassembly + now.Sub(t)).Nanoseconds())
		t = now
	}
	into := s.spareTree
	s.spareTree = nil
	h, tree := s.addrLocked(enc, baseTree, patch, into)
	s.metrics.lap(phaseHash, &t)
	s.packLocked(h, enc, buf, tree, base, patch, tail)
	return h
}

// encodeLocked encodes state and counts the bytes. A codec with the
// append form writes it at the end of the spare buffer, copying from
// baseEnc, base's encoding, when prev is base's state, and need not
// write again the bytes the spare's end already holds of it (spareTail);
// the written-bytes counter counts the encoding less those. It reports
// the runs it copied, in the store's run buffer, and tail, the length of
// the run that ends both encodings. Any other codec allocates with
// Encode and reports none. buf is the whole buffer enc lies in. Callers
// hold the write lock.
func (s *Store[S, Op, Val]) encodeLocked(state S, prev *S, base Hash, baseEnc []byte) (enc, buf []byte, runs []delta.CopyRun, tail int) {
	if s.appender == nil {
		enc = s.codec.Encode(state)
		s.countEncodedLocked(len(enc), len(enc), 0)
		return enc, enc[:cap(enc)], nil, 0
	}
	var p S
	inPlace := 0
	if prev == nil {
		baseEnc = nil
	} else {
		p = *prev
		if s.spare != nil && s.spareKey == base {
			inPlace = s.spareTail
		}
	}
	dst := s.spare
	s.spare = nil
	enc, buf, runs = s.appender.AppendEncode(dst, inPlace, state, p, baseEnc, s.runs[:0])
	s.runs = runs
	copied := 0
	for _, r := range runs {
		copied += r.Len
	}
	if k := len(runs); k > 0 && runs[k-1].At+runs[k-1].Len == len(enc) && runs[k-1].Off+runs[k-1].Len == len(baseEnc) {
		tail = runs[k-1].Len
	}
	written := len(enc)
	if unsafe.SliceData(buf) == unsafe.SliceData(dst) {
		written -= min(inPlace, tail)
	}
	s.countEncodedLocked(len(enc), written, copied)
	return enc, buf, runs, tail
}

// countEncodedLocked counts an encoding of n bytes, of which the codec
// wrote written and reported copied shared with the parent's.
func (s *Store[S, Op, Val]) countEncodedLocked(n, written, copied int) {
	s.metrics.encodedBytes.Add(int64(n))
	s.metrics.encodeWritten.Add(int64(written))
	s.metrics.encodeCopied.Add(int64(copied))
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
