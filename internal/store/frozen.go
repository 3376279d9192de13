package store

// The frozen index: the store's commit-graph/multi-pack-index analogue.
//
// A durable checkpoint (internal/disk) carries the log's complete index —
// every commit and every pack object's metadata — and recovery used to
// decode it entry by entry into the store's maps, which made reopen time
// linear in history with a map-insert constant (~microseconds per commit
// on one core). A FrozenIndex keeps the checkpoint's index sections as
// raw fixed-width entry arrays instead, both sorted ascending by hash:
// commits and pack objects alike are looked up by binary search over the
// raw bytes and materialized only when a walk actually touches them. The
// store's maps overlay the index — the replayed suffix and post-recovery
// writes shadow it — so opening a store over a frozen index costs O(1) in
// history, the same shape Git gets from commit-graph and midx sidecars
// over its packs. The DAG walks are O(divergence), so the per-lookup
// binary search (a dozen hash compares) never multiplies against history
// depth.
//
// The raw sections alias the checkpoint record's payload, which the CRC
// frame already verified end to end; entries are never re-validated
// individually. Object bytes themselves are re-checked on load (the lazy
// loader re-reads the record's CRC) and by content address when chains
// reassemble, so a frozen entry pointing at damaged bytes fails loudly at
// first use — and the recovery ladder (internal/replica) then reopens
// with a full replay.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/core"
)

// Fixed entry layouts. Integers are big-endian. A commit has at most two
// parents (root, operation, merge), so parent slots are inlined.
const (
	frozenCommitSize = 32 + 32 + 4 + 8 + 1 + 32 + 32 // hash state gen time np p0 p1
	frozenObjectSize = 32 + 32 + 1 + 8 + 4 + 8 + 4 + 8
	// hash base flags size depth stored seg off
)

// FrozenObject is one pack object's decoded index entry: chain metadata
// plus the (segment, offset) its record lives at in the durable log.
type FrozenObject struct {
	Base   Hash
	Delta  bool
	Size   int
	Depth  int
	Stored int
	Seg    int
	Off    int64
}

// FrozenLoader fetches (and integrity-checks) the stored bytes of the
// object addressed by h from the durable log position (seg, off).
type FrozenLoader func(h Hash, seg int, off int64) ([]byte, error)

// FrozenIndex is a checkpoint's index held in its serialized form:
// fixed-width commit and pack-object entries, each section sorted
// ascending by hash. It is immutable and safe for concurrent readers.
type FrozenIndex struct {
	commits []byte
	objects []byte
	// Loader serves lazy object loads for entries of this index; set by
	// the persister that decoded it.
	Loader FrozenLoader
}

// NewFrozenIndex wraps raw index sections. The byte slices are adopted,
// not copied, and must stay immutable; lengths must be whole multiples of
// the entry sizes.
func NewFrozenIndex(commits, objects []byte, loader FrozenLoader) (*FrozenIndex, error) {
	if len(commits)%frozenCommitSize != 0 {
		return nil, fmt.Errorf("store: frozen commit section is %d bytes, not a multiple of %d", len(commits), frozenCommitSize)
	}
	if len(objects)%frozenObjectSize != 0 {
		return nil, fmt.Errorf("store: frozen object section is %d bytes, not a multiple of %d", len(objects), frozenObjectSize)
	}
	return &FrozenIndex{commits: commits, objects: objects, Loader: loader}, nil
}

// NumCommits returns the number of commit entries.
func (x *FrozenIndex) NumCommits() int { return len(x.commits) / frozenCommitSize }

// NumObjects returns the number of object entries.
func (x *FrozenIndex) NumObjects() int { return len(x.objects) / frozenObjectSize }

// CommitAt decodes commit entry i.
func (x *FrozenIndex) CommitAt(i int) (Hash, Commit) {
	e := x.commits[i*frozenCommitSize : (i+1)*frozenCommitSize]
	var h Hash
	copy(h[:], e[:32])
	var c Commit
	copy(c.State[:], e[32:64])
	c.Gen = int(binary.BigEndian.Uint32(e[64:68]))
	c.Time = core.Timestamp(int64(binary.BigEndian.Uint64(e[68:76])))
	if np := int(e[76]); np > 0 {
		c.Parents = make([]Hash, np)
		copy(c.Parents[0][:], e[77:109])
		if np > 1 {
			copy(c.Parents[1][:], e[109:141])
		}
	}
	return h, c
}

// RawCommit returns commit entry i's raw bytes (for re-emitting the entry
// into a new checkpoint without a decode/encode round trip).
func (x *FrozenIndex) RawCommit(i int) []byte {
	return x.commits[i*frozenCommitSize : (i+1)*frozenCommitSize]
}

// CommitHashAt returns just the hash of commit entry i.
func (x *FrozenIndex) CommitHashAt(i int) Hash {
	var h Hash
	copy(h[:], x.commits[i*frozenCommitSize:])
	return h
}

// ObjectAt decodes object entry i.
func (x *FrozenIndex) ObjectAt(i int) (Hash, FrozenObject) {
	e := x.objects[i*frozenObjectSize : (i+1)*frozenObjectSize]
	var h Hash
	copy(h[:], e[:32])
	var o FrozenObject
	copy(o.Base[:], e[32:64])
	o.Delta = e[64]&1 != 0
	o.Size = int(binary.BigEndian.Uint64(e[65:73]))
	o.Depth = int(binary.BigEndian.Uint32(e[73:77]))
	o.Stored = int(binary.BigEndian.Uint64(e[77:85]))
	o.Seg = int(binary.BigEndian.Uint32(e[85:89]))
	o.Off = int64(binary.BigEndian.Uint64(e[89:97]))
	return h, o
}

// RawObject returns object entry i's raw bytes.
func (x *FrozenIndex) RawObject(i int) []byte {
	return x.objects[i*frozenObjectSize : (i+1)*frozenObjectSize]
}

// ObjectHashAt returns just the hash of object entry i.
func (x *FrozenIndex) ObjectHashAt(i int) Hash {
	var h Hash
	copy(h[:], x.objects[i*frozenObjectSize:])
	return h
}

// FindObject binary-searches the hash-sorted object section.
func (x *FrozenIndex) FindObject(h Hash) (FrozenObject, bool) {
	n := x.NumObjects()
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(x.objects[i*frozenObjectSize:i*frozenObjectSize+32], h[:]) >= 0
	})
	if i < n && bytes.Equal(x.objects[i*frozenObjectSize:i*frozenObjectSize+32], h[:]) {
		_, o := x.ObjectAt(i)
		return o, true
	}
	return FrozenObject{}, false
}

// findCommit binary-searches the hash-sorted commit section, returning
// the entry index.
func (x *FrozenIndex) findCommit(h Hash) (int, bool) {
	n := x.NumCommits()
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(x.commits[i*frozenCommitSize:i*frozenCommitSize+32], h[:]) >= 0
	})
	if i < n && bytes.Equal(x.commits[i*frozenCommitSize:i*frozenCommitSize+32], h[:]) {
		return i, true
	}
	return 0, false
}

// FindCommit binary-searches the hash-sorted commit section and decodes
// the hit.
func (x *FrozenIndex) FindCommit(h Hash) (Commit, bool) {
	if i, ok := x.findCommit(h); ok {
		_, c := x.CommitAt(i)
		return c, true
	}
	return Commit{}, false
}

// HasCommit reports whether the commit section holds h, without decoding
// (FindCommit allocates the hit's parent slice; existence checks need
// not).
func (x *FrozenIndex) HasCommit(h Hash) bool {
	_, ok := x.findCommit(h)
	return ok
}

// AppendFrozenCommit appends one fixed-width commit entry to buf. Commits
// with more than two parents cannot exist (root/op/merge); extra parents
// would be silently dropped, so callers must uphold the invariant.
func AppendFrozenCommit(buf []byte, h Hash, c Commit) []byte {
	var e [frozenCommitSize]byte
	copy(e[:32], h[:])
	copy(e[32:64], c.State[:])
	binary.BigEndian.PutUint32(e[64:68], uint32(c.Gen))
	binary.BigEndian.PutUint64(e[68:76], uint64(c.Time))
	e[76] = byte(len(c.Parents))
	if len(c.Parents) > 0 {
		copy(e[77:109], c.Parents[0][:])
		if len(c.Parents) > 1 {
			copy(e[109:141], c.Parents[1][:])
		}
	}
	return append(buf, e[:]...)
}

// AppendFrozenObject appends one fixed-width object entry to buf.
func AppendFrozenObject(buf []byte, h Hash, o FrozenObject) []byte {
	var e [frozenObjectSize]byte
	copy(e[:32], h[:])
	copy(e[32:64], o.Base[:])
	if o.Delta {
		e[64] = 1
	}
	binary.BigEndian.PutUint64(e[65:73], uint64(o.Size))
	binary.BigEndian.PutUint32(e[73:77], uint32(o.Depth))
	binary.BigEndian.PutUint64(e[77:85], uint64(o.Stored))
	binary.BigEndian.PutUint32(e[85:89], uint32(o.Seg))
	binary.BigEndian.PutUint64(e[89:97], uint64(o.Off))
	return append(buf, e[:]...)
}

// FrozenCommitBytes and FrozenObjectBytes expose the entry widths so a
// persister can size sections exactly.
const (
	FrozenCommitBytes = frozenCommitSize
	FrozenObjectBytes = frozenObjectSize
)

// frozenPackObject is the in-memory form of a frozen entry: a lazy
// packObject whose bytes load through the index's loader on first use.
func frozenPackObject(h Hash, fo FrozenObject, loader FrozenLoader) *packObject {
	return &packObject{
		base: fo.Base, delta: fo.Delta, size: fo.Size, depth: fo.Depth, stored: fo.Stored,
		load: func() ([]byte, error) { return loader(h, fo.Seg, fo.Off) },
	}
}

// objLocked resolves the pack object addressed by h: the mutable map
// first (the replayed suffix and post-recovery writes shadow the index),
// then the frozen index. Frozen hits construct a fresh lazy packObject per
// call rather than caching it in the map — readers hold only the shared
// read lock; the state LRU and the reassembly slot keep repeated reads
// cheap regardless. Callers must hold s.mu (read or write).
func (s *Store[S, Op, Val]) objLocked(h Hash) (*packObject, bool) {
	if o, ok := s.objects[h]; ok {
		return o, true
	}
	if s.frozen != nil {
		if fo, ok := s.frozen.FindObject(h); ok {
			return frozenPackObject(h, fo, s.frozen.Loader), true
		}
	}
	return nil, false
}

// objExistsLocked reports whether a pack object is addressed by h, in
// the map or the frozen index. Callers must hold s.mu.
func (s *Store[S, Op, Val]) objExistsLocked(h Hash) bool {
	if _, ok := s.objects[h]; ok {
		return true
	}
	if s.frozen != nil {
		_, ok := s.frozen.FindObject(h)
		return ok
	}
	return false
}

// allObjectsLocked assembles the complete object index — map entries
// plus frozen entries the map does not shadow — for whole-pack walks
// (VerifyPack). With no frozen index it returns s.objects itself;
// otherwise a fresh map whose frozen-backed entries are lazy and die
// with it. Callers must hold s.mu and must not mutate a returned map
// they did not verify is fresh.
func (s *Store[S, Op, Val]) allObjectsLocked() map[Hash]*packObject {
	if s.frozen == nil {
		return s.objects
	}
	all := make(map[Hash]*packObject, len(s.objects)+s.frozen.NumObjects())
	for i, n := 0, s.frozen.NumObjects(); i < n; i++ {
		h, fo := s.frozen.ObjectAt(i)
		all[h] = frozenPackObject(h, fo, s.frozen.Loader)
	}
	for h, o := range s.objects {
		all[h] = o
	}
	return all
}

// commitLocked resolves the commit addressed by h: the mutable map first
// (the replayed suffix and post-recovery commits shadow the index), then
// the frozen index by binary search. Callers must hold s.mu (read or write).
func (s *Store[S, Op, Val]) commitLocked(h Hash) (Commit, bool) {
	if c, ok := s.commits[h]; ok {
		return c, true
	}
	if s.frozen != nil {
		return s.frozen.FindCommit(h)
	}
	return Commit{}, false
}

// commitAtLocked is commitLocked without the presence bit — the zero
// Commit when absent, the map-indexing idiom the DAG walks use (they
// only ask for hashes the graph contains). Callers must hold s.mu.
func (s *Store[S, Op, Val]) commitAtLocked(h Hash) Commit {
	c, _ := s.commitLocked(h)
	return c
}

// commitExistsLocked reports whether a commit is addressed by h, in the
// map or the frozen index. Callers must hold s.mu.
func (s *Store[S, Op, Val]) commitExistsLocked(h Hash) bool {
	if _, ok := s.commits[h]; ok {
		return true
	}
	return s.frozen != nil && s.frozen.HasCommit(h)
}

// numCommitsLocked counts retained commits across the map and the frozen
// index. The two are disjoint by construction: addCommitLocked refuses hashes
// the index already holds, and recovery installs a replayed suffix entry
// only when the index lacks it.
func (s *Store[S, Op, Val]) numCommitsLocked() int {
	n := len(s.commits)
	if s.frozen != nil {
		n += s.frozen.NumCommits()
	}
	return n
}
