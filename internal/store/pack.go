package store

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/delta"
)

// The pack layer: how the store keeps encoded states resident.
//
// Every state used to pin its full encoding forever, so resident bytes
// grew O(history × state size). Packed, each state object is either a
// full snapshot or a binary delta (internal/delta) chained to the state
// of its commit-parent — Git's packfile discipline applied to the
// paper's version store. The chain bound is SnapshotEvery−1 patches, so
// no read ever walks an unbounded chain: a state whose parent's chain is
// full is stored as one patch composed onto that chain's snapshot (depth
// 1, delta.Compose over the chain's patches and its own), unless that
// patch reaches a quarter of the state, when it is stored whole. Reads
// reassemble through materialize, which verifies the content address
// (addr.go) of everything it rebuilds; decoded states are held in a
// small LRU so branch heads stay hot while deep history stops pinning
// memory.

// ErrCorruptPack is returned when a stored object fails to reassemble to
// its content address — a broken chain or a corrupted patch.
var ErrCorruptPack = errors.New("store: corrupt pack object")

// packObject is one stored state encoding.
type packObject struct {
	// data is the full encoding when delta is false, the patch against
	// base's encoding when delta is true. nil for a lazily recovered
	// object whose bytes are still on disk; bytes() loads it on first use.
	data []byte
	// base is the state hash the patch chains to (zero for snapshots).
	base Hash
	// delta distinguishes patches from snapshots.
	delta bool
	// size is the length of the full encoding, whatever the storage form
	// — it keeps Size O(1) and the space accounting exact.
	size int
	// depth is the number of patches between this object and its chain's
	// snapshot; snapshots are depth 0.
	depth int
	// stored is the length of the stored bytes (== len(data) once
	// resident); recovery records it so PackStats stays exact without
	// forcing lazy objects off disk.
	stored int
	// load fetches the stored bytes of a lazily recovered object from the
	// durable log; nil when data is resident. once/loadErr make the fetch
	// race-safe under the store's shared read lock.
	load    func() ([]byte, error)
	once    sync.Once
	loadErr error
}

// bytes returns the object's stored bytes, fetching them from the
// durable log on first use for lazily recovered objects. Safe under the
// store's read lock: sync.Once publishes data with a happens-before edge
// for every concurrent reader.
func (o *packObject) bytes() ([]byte, error) {
	if o.load == nil {
		return o.data, nil
	}
	o.once.Do(func() {
		data, err := o.load()
		if err != nil {
			o.loadErr = fmt.Errorf("%w: %w", ErrCorruptPack, err)
			return
		}
		o.data = data
	})
	if o.loadErr != nil {
		return nil, o.loadErr
	}
	return o.data, nil
}

// PackStats is a snapshot of the pack layer's space accounting.
type PackStats struct {
	// Objects is the number of distinct state objects retained.
	Objects int
	// Snapshots and Deltas split Objects by storage form.
	Snapshots int
	Deltas    int
	// PackedBytes is the resident encoded bytes: Σ len(stored data).
	PackedBytes int64
	// FullBytes is what the same states would pin unpacked: Σ full
	// encoded size — the pre-pack resident footprint.
	FullBytes int64
	// MaxDepth is the longest patch chain below any object.
	MaxDepth int
}

// PackStats reports the pack layer's space accounting.
func (s *Store[S, Op, Val]) PackStats() PackStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ps PackStats
	add := func(delta bool, stored, size, depth int) {
		ps.Objects++
		if delta {
			ps.Deltas++
		} else {
			ps.Snapshots++
		}
		ps.PackedBytes += int64(stored)
		ps.FullBytes += int64(size)
		if depth > ps.MaxDepth {
			ps.MaxDepth = depth
		}
	}
	for _, o := range s.objects {
		add(o.delta, o.stored, o.size, o.depth)
	}
	if s.frozen != nil {
		for i, n := 0, s.frozen.NumObjects(); i < n; i++ {
			h, fo := s.frozen.ObjectAt(i)
			if _, shadowed := s.objects[h]; shadowed {
				continue
			}
			add(fo.Delta, fo.Stored, fo.Size, fo.Depth)
		}
	}
	return ps
}

// stateCache is a bounded LRU of decoded states keyed by state hash. It
// has its own lock: readers holding the store's shared read lock still
// mutate recency.
type stateCache[S any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[Hash]*list.Element
}

type cacheEntry[S any] struct {
	h Hash
	s S
}

func newStateCache[S any](capacity int) *stateCache[S] {
	return &stateCache[S]{cap: capacity, ll: list.New(), items: make(map[Hash]*list.Element)}
}

func (c *stateCache[S]) get(h Hash) (S, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[h]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*cacheEntry[S]).s, true
	}
	var zero S
	return zero, false
}

func (c *stateCache[S]) put(h Hash, s S) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[h]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*cacheEntry[S]).s = s
		return
	}
	c.items[h] = c.ll.PushFront(&cacheEntry[S]{h: h, s: s})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry[S]).h)
	}
}

func (c *stateCache[S]) remove(h Hash) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[h]; ok {
		c.ll.Remove(e)
		delete(c.items, h)
	}
}

// materializeLocked reassembles the full encoding of the state addressed
// by h: walk the delta chain down to its snapshot, compose the patches
// into one and apply it, and verify the result against the content
// address. It returns the encoding's chunk tree too, the base of an
// incremental address. Callers must hold s.mu (read or write) and must
// not modify the returned buffer — it may be the stored snapshot or the
// reassembly cache.
//
// A one-slot reassembly cache keyed by state hash makes chain-sequential
// access — Apply deltifying against the state it just built, imports
// walking a shipped chain — O(patch) instead of O(chain). The slot keeps
// its encoding's chunk tree, so a chain rebuilt from it is addressed
// incrementally too; any other is addressed from scratch.
func (s *Store[S, Op, Val]) materializeLocked(h Hash) ([]byte, *chunkTree, error) {
	s.encMu.Lock()
	cached, cachedHash, cachedTree := s.encBuf, s.encHash, s.encTree
	s.encMu.Unlock()
	if cachedHash == h && cached != nil {
		s.metrics.reasmHit.Inc()
		return cached, cachedTree, nil
	}
	s.metrics.reasmMiss.Inc()

	var patches [][]byte // stored patches from h down, snapshot excluded
	cur := h
	var enc []byte
	var baseTree *chunkTree // enc's tree while enc is the slot's
	for {
		if cur == cachedHash && cached != nil {
			enc, baseTree = cached, cachedTree
			break
		}
		obj, ok := s.objLocked(cur)
		if !ok {
			return nil, nil, fmt.Errorf("%w: missing object %v in chain of %v", ErrCorruptPack, cur, h)
		}
		data, err := obj.bytes()
		if err != nil {
			return nil, nil, err
		}
		if !obj.delta {
			enc = data
			break
		}
		patches = append(patches, data)
		cur = obj.base
	}
	var patch []byte
	if len(patches) > 0 {
		// One Apply rebuilds the state: a longer chain first folds into
		// one composed patch, bottom patch first, which builds no
		// intermediate state where applying patch by patch builds one per
		// patch.
		slices.Reverse(patches)
		patch = patches[0]
		var err error
		if len(patches) > 1 {
			patch, err = delta.Compose(patches...)
		}
		if err == nil {
			enc, err = delta.Apply(enc, patch)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v (chain of %v)", ErrCorruptPack, err, h)
		}
	}
	got, tree := s.addrLocked(enc, baseTree, patch, nil)
	if got != h {
		return nil, nil, fmt.Errorf("%w: object %v reassembles to a different hash", ErrCorruptPack, h)
	}
	if len(patches) > 0 {
		s.encMu.Lock()
		s.encHash, s.encBuf, s.encTree, s.encFree = h, enc, tree, true
		s.encMu.Unlock()
	}
	return enc, tree, nil
}

// stateLocked returns the decoded state addressed by h, via the LRU.
// Callers must hold s.mu (read or write).
func (s *Store[S, Op, Val]) stateLocked(h Hash) (S, error) {
	if st, ok := s.cache.get(h); ok {
		s.metrics.cacheHit.Inc()
		return st, nil
	}
	s.metrics.cacheMiss.Inc()
	var zero S
	enc, _, err := s.materializeLocked(h)
	if err != nil {
		return zero, err
	}
	st, err := s.codec.Decode(enc)
	if err != nil {
		return zero, fmt.Errorf("%w: object %v does not decode: %v", ErrCorruptPack, h, err)
	}
	s.cache.put(h, st)
	return st, nil
}

// packLocked stores encoding enc, whose chunk tree is tree, under its
// content address h. With a patch from base — the state of the commit's
// first parent — to enc, it is stored as that patch while base's chain
// has room below SnapshotEvery−1 patches; a nil patch (a state shipped
// whole) is made here (diffLocked). A state whose base's chain is full is
// stored instead as one patch against that chain's snapshot, at depth 1:
// the composition of the chain's patches and its own (composeLocked),
// kept only while it is under a quarter of enc. Otherwise, and whenever
// the patch does not beat enc or chainBaseLocked refuses base, the state
// is stored whole. packLocked owns enc and patch. Callers hold the write
// lock.
//
// enc becomes the reassembly slot's buffer. A state stored whole is
// stored as enc itself only when enc has no spare capacity (a snapshot
// pins no slack); the slot then records that a pack object holds its
// buffer. Otherwise the buffer is the store's alone, and once a later
// packLocked displaces it from the slot it is the spare the next state
// is encoded into (putState). An enc stored nowhere, its state already
// present, is the spare at once.
func (s *Store[S, Op, Val]) packLocked(h Hash, enc []byte, tree *chunkTree, base Hash, patch []byte) {
	if s.objExistsLocked(h) {
		s.keepSpareLocked(enc, tree)
		return
	}
	obj := &packObject{size: len(enc)}
	if bo, ok := s.chainBaseLocked(base, len(enc)); ok {
		if patch == nil {
			patch, _ = s.diffLocked(base, enc)
		}
		switch {
		case patch == nil || len(patch) >= len(enc):
		case bo.depth+1 < s.opts.SnapshotEvery:
			obj.data, obj.base, obj.delta, obj.depth = patch, base, true, bo.depth+1
		default:
			if root, composed, ok := s.composeLocked(bo, patch); ok && composeKeep*len(composed) < len(enc) {
				obj.data, obj.base, obj.delta, obj.depth = composed, root, true, 1
			}
		}
	}
	held := false
	if !obj.delta {
		if held = cap(enc) == len(enc); held {
			obj.data = enc
		} else {
			obj.data = append(make([]byte, 0, len(enc)), enc...)
		}
	}
	obj.stored = len(obj.data)
	s.objects[h] = obj
	s.persistObjectLocked(h, obj)
	// The freshly packed encoding is the likeliest next chain base.
	s.encMu.Lock()
	buf := s.encBuf
	if !s.encFree {
		buf = nil
	}
	s.keepSpareLocked(buf, s.encTree)
	s.encHash, s.encBuf, s.encTree, s.encFree = h, enc, tree, !held
	s.encMu.Unlock()
}

// keepSpareLocked keeps buf and tree, which nothing else refers to, for
// putState to build the next state's encoding and chunk tree in: buf
// only if the codec has the append form that encodes into it (Codec).
// Either may be nil. Callers hold the write lock.
func (s *Store[S, Op, Val]) keepSpareLocked(buf []byte, tree *chunkTree) {
	if buf != nil && s.appender != nil {
		s.spare = buf[:0]
	}
	if tree != nil {
		s.spareTree = tree
	}
}

// diffLocked returns a patch from base's encoding to enc, and base's
// chunk tree, or nils when enc does not chain onto base
// (chainBaseLocked) or base does not reassemble. The delta phase times
// it. Callers hold s.mu.
func (s *Store[S, Op, Val]) diffLocked(base Hash, enc []byte) ([]byte, *chunkTree) {
	if _, ok := s.chainBaseLocked(base, len(enc)); !ok {
		return nil, nil
	}
	t := time.Now()
	defer s.metrics.lap(phaseDelta, &t)
	baseEnc, tree, err := s.materializeLocked(base)
	if err != nil {
		return nil, nil
	}
	patch, read := delta.MakeShared(baseEnc, enc, 0)
	s.metrics.deltaCompared.Add(int64(read))
	return patch, tree
}

// chainBaseLocked returns the object a state whose encoding is size
// bytes may chain onto as a patch: base's, unless the store keeps
// snapshots only (SnapshotEvery 1) or size is beyond the patch format's
// target limit — Apply rejects larger announced targets (its allocation
// bound), so chaining such a state would make it unreadable. Callers
// hold s.mu.
func (s *Store[S, Op, Val]) chainBaseLocked(base Hash, size int) (*packObject, bool) {
	if s.opts.SnapshotEvery <= 1 || size > delta.MaxTarget {
		return nil, false
	}
	return s.objLocked(base)
}

// composeKeep is the chain-full rule's bound: a composed patch is kept
// only while composeKeep times its length is under the full encoding,
// the same quarter the durable log's delta checkpoints are held to.
const composeKeep = 4

// composeLocked composes the stored patches of bo's chain, from its
// snapshot up to bo, with top, a patch from bo's state onwards: the
// result is one patch from the snapshot, whose hash it returns as root.
// ok is false when a patch of the chain does not load or compose.
// Callers hold s.mu.
func (s *Store[S, Op, Val]) composeLocked(bo *packObject, top []byte) (root Hash, patch []byte, ok bool) {
	if !bo.delta {
		return Hash{}, nil, false
	}
	// The recorded depth sizes the chain and bounds the walk, so a base
	// cycle in a damaged pack cannot spin it.
	chain := make([][]byte, bo.depth+1)
	i := bo.depth
	chain[i] = top
	for obj := bo; obj.delta; {
		if i == 0 {
			return Hash{}, nil, false
		}
		p, err := obj.bytes()
		if err != nil {
			return Hash{}, nil, false
		}
		i--
		chain[i] = p
		root = obj.base
		if obj, ok = s.objLocked(root); !ok {
			return Hash{}, nil, false
		}
	}
	patch, err := delta.Compose(chain[i:]...)
	return root, patch, err == nil
}

// VerifyPack materializes every retained state object, checking that each
// chain reassembles to its content address and to a canonical encoding
// (checkEncoding, the test Import applies). It is the pack layer's
// integrity check, used by tests, by recovery-on-open (OpenRecovered
// runs it before a recovered store is handed out), and available to
// tools.
//
// Objects are visited chain-forest order — each snapshot's dependent
// patches depth-first, every encoding built with exactly one patch
// application from its base — so a full verification costs O(total
// state bytes), not O(chain length × state bytes). Objects no such walk
// reaches (a missing or cyclic chain base) are verified individually,
// which yields the precise corruption error.
func (s *Store[S, Op, Val]) VerifyPack() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// A whole-pack walk needs every object, including frozen entries the
	// map does not hold; materialize the combined index once up front.
	objects := s.allObjectsLocked()
	children := make(map[Hash][]Hash)
	var roots []Hash
	for h, obj := range objects {
		if obj.delta {
			children[obj.base] = append(children[obj.base], h)
		} else {
			roots = append(roots, h)
		}
	}
	// verify checks the encoding enc of object h, which patch builds from
	// the encoding base summarizes (both nil for a snapshot), and returns
	// its chunk tree.
	verify := func(h Hash, enc []byte, base *chunkTree, patch []byte) (*chunkTree, error) {
		obj := objects[h]
		got, tree := s.addrLocked(enc, base, patch, nil)
		if got != h {
			return nil, fmt.Errorf("%w: object %v reassembles to a different hash", ErrCorruptPack, h)
		}
		if len(enc) != obj.size {
			return nil, fmt.Errorf("%w: object %v is %d bytes, %d recorded", ErrCorruptPack, h, len(enc), obj.size)
		}
		if err := checkEncoding(s.codec, enc); err != nil {
			return nil, fmt.Errorf("%w: object %v is not a valid encoding: %v", ErrCorruptPack, h, err)
		}
		return tree, nil
	}
	reached := make(map[Hash]bool, len(objects))
	type frame struct {
		h    Hash
		enc  []byte
		tree *chunkTree
	}
	for _, root := range roots {
		rootEnc, err := objects[root].bytes()
		if err != nil {
			return err
		}
		tree, err := verify(root, rootEnc, nil, nil)
		if err != nil {
			return err
		}
		stack := []frame{{h: root, enc: rootEnc, tree: tree}}
		reached[root] = true
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, child := range children[top.h] {
				patch, err := objects[child].bytes()
				if err != nil {
					return err
				}
				enc, err := delta.Apply(top.enc, patch)
				if err != nil {
					return fmt.Errorf("%w: %v (chain of %v)", ErrCorruptPack, err, child)
				}
				tree, err := verify(child, enc, top.tree, patch)
				if err != nil {
					return err
				}
				reached[child] = true
				stack = append(stack, frame{h: child, enc: enc, tree: tree})
			}
		}
	}
	if len(reached) != len(objects) {
		// Some delta's chain never reaches a snapshot: its base is either
		// absent or part of a base cycle. Diagnose the first one exactly.
		for h := range objects {
			if reached[h] {
				continue
			}
			onPath := map[Hash]bool{h: true}
			for cur := h; ; {
				base := objects[cur].base
				if _, ok := objects[base]; !ok {
					return fmt.Errorf("%w: missing object %v in chain of %v", ErrCorruptPack, base, h)
				}
				if onPath[base] {
					return fmt.Errorf("%w: object %v chains in a cycle", ErrCorruptPack, h)
				}
				onPath[base] = true
				cur = base
			}
		}
	}
	return s.validateHeads()
}

// EncodedState materializes the encoded state pinned by state hash h and
// returns a copy.
func (s *Store[S, Op, Val]) EncodedState(h Hash) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc, _, err := s.materializeLocked(h)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), enc...), nil
}
