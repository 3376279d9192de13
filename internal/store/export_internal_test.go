package store

import "repro/internal/core"

// ChainBound and MaxBases are the pack layout's bounds (chainBound,
// maxBases), for tests in package store_test: no state is ChainBound or
// more patches above its chain's snapshot, and no chain holds more than
// MaxBases level bases.
const (
	ChainBound = chainBound
	MaxBases   = maxBases
)

// DropDecodedStates forgets every decoded state the head sets hold,
// keeping the pins, so that the next read of any state or fold
// materializes it from the pack, as the first read after a reopen does.
func DropDecodedStates[S, Op, Val any](s *Store[S, Op, Val]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pins {
		s.metrics.residentBytes.Add(-int64(p.size))
		var zero S
		p.st, p.size, p.ok = zero, 0, false
	}
}

// HeldStates returns how many decoded states s holds, and how many its
// head sets pin by a scan of them: the distinct states of their members
// plus the distinct multi-head sets, whose folds a read holds.
func HeldStates[S, Op, Val any](s *Store[S, Op, Val]) (held, pinned int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.pins {
		p.mu.Lock()
		if p.ok {
			held++
		}
		p.mu.Unlock()
	}
	keys := map[Hash]bool{}
	for _, hs := range s.heads {
		for _, h := range hs {
			keys[s.commitAtLocked(h).State] = true
		}
		if len(hs) > 1 {
			keys[HeadSetHash(hs)] = true
		}
	}
	return held, len(keys)
}

// WholeObjectsWithSlack returns how many of s's resident objects stored
// whole hold a buffer with spare capacity, for tests in package
// store_test: a snapshot pins exactly its encoding, so that no object
// ever holds a buffer the store recycles (packLocked).
func WholeObjectsWithSlack[S, Op, Val any](s *Store[S, Op, Val]) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, o := range s.objects {
		if !o.delta && o.load == nil && cap(o.data) != len(o.data) {
			n++
		}
	}
	return n
}

// ResidentObject is a resident pack object as tests in package store_test
// see it: Data is the stored buffer itself, not a copy, Delta tells a
// patch from a state stored whole, and Base is the state a patch chains
// to.
type ResidentObject struct {
	Data  []byte
	Delta bool
	Base  Hash
}

// ResidentObjects returns s's resident pack objects by state hash.
func ResidentObjects[S, Op, Val any](s *Store[S, Op, Val]) map[Hash]ResidentObject {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Hash]ResidentObject, len(s.objects))
	for h, o := range s.objects {
		if o.load == nil {
			out[h] = ResidentObject{Data: o.data, Delta: o.delta, Base: o.base}
		}
	}
	return out
}

// LayoutObject is a pack object as tests in package store_test see its
// place in the layout: Delta tells a patch from a state stored whole,
// Base is the state a patch chains to, Depth the patches below it to its
// chain's snapshot as recorded, and Stored and Size its stored and full
// bytes.
type LayoutObject struct {
	Delta               bool
	Base                Hash
	Depth, Stored, Size int
}

// PackLayout returns every pack object s holds, resident or recovered
// and not yet loaded, by state hash.
func PackLayout[S, Op, Val any](s *Store[S, Op, Val]) map[Hash]LayoutObject {
	s.mu.RLock()
	defer s.mu.RUnlock()
	objects := s.allObjectsLocked()
	out := make(map[Hash]LayoutObject, len(objects))
	for h, o := range objects {
		out[h] = LayoutObject{Delta: o.delta, Base: o.base, Depth: o.depth, Stored: o.stored, Size: o.size}
	}
	return out
}

// CommitHash is c's content address (commitHash), for tests in package
// store_test that forge commits.
func CommitHash(c Commit) Hash { return commitHash(c) }

// MemLog is, for tests in package store_test, a Persister that keeps
// what a replay of its log would recover (memLog).
type MemLog = memLog

// NewMemLog returns an empty MemLog.
func NewMemLog() *MemLog { return newMemLog() }

// Reopen opens a store, with main as its first branch, from what log
// holds, as a restart recovers one: no object holds a patch packLocked
// kept beside it.
func Reopen[S, Op, Val any](impl core.MRDT[S, Op, Val], codec Codec[S], log *MemLog, replicaBase int, opts ...Option) (*Store[S, Op, Val], error) {
	return OpenRecovered(impl, codec, "main", replicaBase, &log.rs, opts...)
}
