package store

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/delta"
)

// The pack layer: how the store keeps encoded states resident.
//
// Every state used to pin its full encoding forever, so resident bytes
// grew O(history × state size). Packed, each state object is either a
// full snapshot or a binary delta (internal/delta) chained to the state
// of its commit-parent — Git's packfile discipline applied to the
// paper's version store. The chain bound is chainBound−1 patches, so no
// read ever walks an unbounded chain.
//
// A state whose ordinary run is full is stored as one patch composed
// (delta.Compose) onto a level base, after Mercurial's sparse-revlog
// intermediate snapshots. The chain bound's chainBound−1 patches are
// split into an ordinary run of runLen (15) and levels (4) levels of up
// to levelFan (4) bases each. A level-1 base holds one run's literals
// and chains onto the level-1 base before it; once levelFan of them
// stand, the next chain-full state folds them into a level-2 base, and
// so on, like a base-levelFan counter. A level's first base chains onto
// the newest base of a higher level, or onto the snapshot when there is
// none; when every level is full, the next base goes on the top level,
// onto the snapshot, and the count starts over. So a literal is stored
// again about once per level, not once per run since the snapshot, and
// no chain holds more than levelFan bases per level in all, nor more
// patches than the bound. A composition is kept only while it is under a
// quarter of its state and its chain — it and every patch below it —
// under half, so a read folds no more than that; one that is not leaves
// its depth to the level below, and the state is stored whole when no
// form fits. Levels live in memory only; the records carry each object's
// base and depth, as before.
//
// Reads reassemble through materialize, which verifies the content
// address (addr.go) of everything it rebuilds. A decoded state stays in
// memory only while a head set pins it (held); every other state, merge
// bases among them, is materialized and decoded on each read.

// The pack layout. No record holds it.
const (
	// chainBound bounds every read: no state is chainBound or more
	// patches above its chain's snapshot.
	chainBound = 32
	// levels is the number of levels of bases, and levelFan the number
	// of bases a level takes before the next chain-full state folds them
	// into one base a level up.
	levels   = 4
	levelFan = 4
	// maxBases is the most bases a chain holds: levelFan per level.
	maxBases = levels * levelFan
	// runLen is the ordinary patches from a base, or the snapshot, to a
	// chain-full state: what the bound leaves after the bases.
	runLen = chainBound - 1 - maxBases
)

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
	// level and run place the object in the leveled layout: level is 0
	// for a snapshot or an ordinary patch and i for a level-i base, and
	// run counts the ordinary patches from the newest base or snapshot
	// below up to the object. Both are kept in memory only: a recovered
	// object has zeros, so its chain holds no base and the next
	// composition on it goes onto the snapshot, starting a new stack.
	level int8
	run   int32
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
	// verified is set once materializeLocked has matched a snapshot's
	// bytes to its address: a resident object's bytes never change once
	// loaded, so later reads skip the check. Readers set it under the
	// shared lock. A frozen-index object is built afresh on every lookup,
	// so it is checked on every read.
	verified atomic.Bool
	// parent is the patch from the first parent's state that packLocked
	// held for a state it stored otherwise — a chain-full composition or
	// a snapshot — while under a quarter of the state, so that an export
	// ships that patch and not the state (exportSetLocked). It is kept in
	// memory only: a recovered object has none, and it counts in no
	// PackStats figure.
	parent *parentPatch
}

// parentPatch is a patch from the state base, the first parent's state
// of the commit packLocked stored its object for.
type parentPatch struct {
	base  Hash
	patch []byte
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
// incrementally too; any other is addressed from scratch. A snapshot
// read whole is addressed until one read has verified it
// (packObject.verified); later reads return it with a nil tree.
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
	var whole *packObject   // h's object when it is a snapshot
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
			if cur == h {
				if obj.verified.Load() {
					return enc, nil, nil
				}
				whole = obj
			}
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
	if whole != nil {
		whole.verified.Store(true)
	}
	if len(patches) > 0 {
		s.encMu.Lock()
		s.encHash, s.encBuf, s.encWhole, s.encTree, s.encFree = h, enc, enc[:cap(enc)], tree, true
		s.encMu.Unlock()
	}
	return enc, tree, nil
}

// stateLocked returns the decoded state addressed by h: the one a head
// set holds when one pins h, and otherwise a fresh decode of its
// materialized encoding. Callers must hold s.mu (read or write).
func (s *Store[S, Op, Val]) stateLocked(h Hash) (S, error) {
	return s.readLocked(h, func() (S, error) {
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
		return st, nil
	})
}

// packLocked stores encoding enc, whose chunk tree is tree, under its
// content address h. With a patch from base — the state of the commit's
// first parent — to enc, it is stored as that patch while base's run has
// room (placeLocked); a nil patch (a state shipped whole) is made here
// (diffLocked). A state whose base's run is full is stored instead as a
// level base: one patch composed onto the newest base with room, or onto
// the snapshot (composeLocked), kept only while it is under a quarter of
// enc. Otherwise, and whenever the patch does not beat enc or
// chainBaseLocked refuses base, the state is stored whole. A state stored
// either way but as the patch from base keeps that patch beside it
// (packObject.parent) while the patch is under a quarter of enc, for
// exports to ship. packLocked owns enc, buf — the whole buffer enc lies
// in, len == cap — and patch; enc's last tail bytes are the last tail
// bytes of base's encoding. Callers hold the write lock.
//
// enc becomes the reassembly slot's buffer. A state stored whole is
// stored as enc itself only when buf is enc, with no room in front or
// behind (a snapshot pins no slack); the slot then records that a pack
// object holds its buffer. Otherwise the buffer is the store's alone,
// and once a later packLocked displaces it from the slot it is the spare
// the next state is encoded (putState) or reassembled (an import) into.
// A displaced slot that held base and ends its buffer leaves the spare
// ending with enc's last tail bytes. An enc stored nowhere, its state
// already present, is the spare at once.
func (s *Store[S, Op, Val]) packLocked(h Hash, enc, buf []byte, tree *chunkTree, base Hash, patch []byte, tail int) {
	if s.objExistsLocked(h) {
		s.keepSpareLocked(buf, h, endHeld(enc), tree)
		return
	}
	obj := &packObject{size: len(enc)}
	if bo, ok := s.chainBaseLocked(base, len(enc)); ok {
		if patch == nil {
			patch = s.diffLocked(base, enc)
		}
		if patch != nil && len(patch) < len(enc) {
			s.placeLocked(obj, bo, base, patch)
		}
	}
	if obj.base != base && patch != nil && composeKeep*len(patch) < len(enc) {
		obj.parent = &parentPatch{base: base, patch: patch}
	}
	held := false
	if !obj.delta {
		if held = len(enc) == cap(buf); held {
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
	if s.encFree {
		known := 0
		if s.encHash == base {
			known = min(tail, endHeld(s.encBuf))
		}
		s.keepSpareLocked(s.encWhole, h, known, s.encTree)
	} else {
		s.keepSpareLocked(nil, h, 0, s.encTree)
	}
	s.encHash, s.encBuf, s.encWhole, s.encTree, s.encFree = h, enc, buf, tree, !held
	s.encMu.Unlock()
}

// endHeld is how many of enc's last bytes the end of its whole buffer
// holds: all of them when enc ends it, as the append form's encodings
// do, else none.
func endHeld(enc []byte) int {
	if cap(enc) == len(enc) {
		return len(enc)
	}
	return 0
}

// placeLocked makes obj, a state of obj.size bytes, a patch on its first
// parent's state base, whose object is bo and patch the patch from it:
// an ordinary patch while bo's run is short of the layout's and the chain
// bound has room, else a level base (composeLocked). A state whose
// composition fails at the end of a run stays an ordinary patch while
// the chain bound has room, so a small state is composed again, or
// stored whole, only once its chain is full. obj stays a snapshot when
// no form fits. Callers hold the write lock.
func (s *Store[S, Op, Val]) placeLocked(obj, bo *packObject, base Hash, patch []byte) {
	full := bo.depth+1 >= chainBound
	if (full || bo.run == runLen) && s.composeLocked(obj, bo, patch) {
		return
	}
	if !full {
		obj.data, obj.base, obj.delta, obj.depth, obj.run = patch, base, true, bo.depth+1, bo.run+1
	}
}

// keepSpareLocked keeps buf, a whole buffer whose last tail bytes are
// the last tail bytes of state key's encoding, and tree, which nothing
// else refers to, for the next state's encoding and chunk tree to be
// built in: putState's append form (Codec) encodes at buf's end, and an
// import reassembles a shipped patch into it. Either may be nil. Callers
// hold the write lock.
func (s *Store[S, Op, Val]) keepSpareLocked(buf []byte, key Hash, tail int, tree *chunkTree) {
	if buf != nil {
		s.spare, s.spareKey, s.spareTail = buf, key, tail
	}
	if tree != nil {
		s.spareTree = tree
	}
}

// diffLocked returns a patch from base's encoding to enc, or nil when
// enc does not chain onto base (chainBaseLocked) or base does not
// reassemble. The delta phase times it. Callers hold s.mu.
func (s *Store[S, Op, Val]) diffLocked(base Hash, enc []byte) []byte {
	if _, ok := s.chainBaseLocked(base, len(enc)); !ok {
		return nil
	}
	t := time.Now()
	defer s.metrics.lap(phaseDelta, &t)
	baseEnc, _, err := s.materializeLocked(base)
	if err != nil {
		return nil
	}
	patch, read := delta.MakeShared(baseEnc, enc, nil)
	s.metrics.deltaCompared.Add(int64(read))
	return patch
}

// chainBaseLocked returns the object a state whose encoding is size
// bytes may chain onto as a patch: base's, unless size is beyond the
// patch format's target limit — Apply rejects larger announced targets
// (its allocation bound), so chaining such a state would make it
// unreadable. Callers hold s.mu.
func (s *Store[S, Op, Val]) chainBaseLocked(base Hash, size int) (*packObject, bool) {
	if size > delta.MaxTarget {
		return nil, false
	}
	return s.objLocked(base)
}

// composeKeep is the chain-full rule's bound: a composed patch is kept
// only while composeKeep times its length is under the full encoding,
// the same quarter the durable log's delta checkpoints are held to.
const composeKeep = 4

// chainKeep bounds what a read composes: a composed patch is kept only
// while chainKeep times its chain's bytes — it and every patch below it
// — is under the full encoding, as Mercurial's revlog bounds a delta
// chain's bytes by its text's. Reassembly folds a chain's patches into
// one (materializeLocked), work that grows with every run they hold.
const chainKeep = 2

// composeLocked makes obj, whose first parent's object is bo and whose
// patch from that state is top, a level base, and reports whether it
// did. It walks bo's chain down to its snapshot and counts its bases.
// The new base goes on the lowest level with fewer than levelFan bases
// on the chain and depth for one more within maxBases, composed onto
// the newest base of that level or above, or onto the snapshot when
// there is none; when no level has room, it goes on the top level, onto
// the snapshot. A composition that does not stay within composeKeep and
// chainKeep gives its depth to the level below, which takes a base
// beyond its fan while the chain has room. Callers hold s.mu.
func (s *Store[S, Op, Val]) composeLocked(obj, bo *packObject, top []byte) bool {
	if !bo.delta {
		return false
	}
	// The recorded depth sizes the chain and bounds the walk, so a base
	// cycle in a damaged pack cannot spin it.
	chain := make([]*packObject, 0, bo.depth) // bo first
	for o := bo; o.delta; {
		if len(chain) == bo.depth {
			return false
		}
		chain = append(chain, o)
		var ok bool
		if o, ok = s.objLocked(o.base); !ok {
			return false
		}
	}
	// above[i] counts the chain's bases of level i or higher, so a new
	// level-i base lands at depth above[i]+1.
	var above [levels + 2]int
	for _, o := range chain {
		if l := int(o.level); l > 0 && l <= levels {
			above[l]++
		}
	}
	for i := levels - 1; i > 0; i-- {
		above[i] += above[i+1]
	}
	level := 1
	for level <= levels && (above[level]-above[level+1] >= levelFan || above[level] >= maxBases) {
		level++
	}
	if s.composeAtLocked(obj, chain, top, level) {
		return true
	}
	below := level - 1
	return below > 0 && above[below] < maxBases && s.composeAtLocked(obj, chain, top, below)
}

// composeAtLocked makes obj a base of level level on chain (composeLocked)
// when the composition stays within composeKeep and chainKeep: chain's
// patches above the newest base of that level or higher, or all of them
// when there is none or level is past the top, composed with top.
// Callers hold s.mu.
func (s *Store[S, Op, Val]) composeAtLocked(obj *packObject, chain []*packObject, top []byte, level int) bool {
	cut := len(chain) // chain[:cut] composes onto chain[cut-1].base
	if level > levels {
		level = levels
	} else {
		for i, o := range chain {
			if int(o.level) >= level {
				cut = i
				break
			}
		}
	}
	below := 0 // the stored bytes under the root
	for _, o := range chain[cut:] {
		below += o.stored
	}
	if chainKeep*below >= obj.size {
		return false
	}
	patches := make([][]byte, cut+1)
	patches[cut] = top
	for i, o := range chain[:cut] {
		p, err := o.bytes()
		if err != nil {
			return false
		}
		patches[cut-1-i] = p
	}
	composed, err := delta.Compose(patches...)
	if err != nil || composeKeep*len(composed) >= obj.size || chainKeep*(below+len(composed)) >= obj.size {
		return false
	}
	obj.data, obj.base, obj.delta, obj.level = composed, chain[cut-1].base, true, int8(level)
	if obj.depth = 1; cut < len(chain) {
		obj.depth = chain[cut].depth + 1
	}
	return true
}

// VerifyPack materializes every retained state object, checking that each
// chain reassembles to its content address and to a canonical encoding
// (checkEncoding, the test Import applies). It is the pack layer's
// integrity check, used by tests, by a node opened WithVerifyOnOpen
// (which runs it before a recovered store is handed out), and available
// to tools.
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
