package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"slices"
	"time"
)

// ErrNoCommonAncestor is returned when two commits share no ancestor; it
// cannot happen for commits created through the store's API (every branch
// descends from the root), and indicates corruption.
var ErrNoCommonAncestor = errors.New("store: no common ancestor")

// HeadSetHash names a head set, given sorted by hash: its member when it
// has one, so a single-writer branch is named by its head commit, and
// otherwise a domain-separated SHA-256 of the members, which no commit or
// state address can equal.
func HeadSetHash(hs []Hash) Hash {
	if len(hs) == 1 {
		return hs[0]
	}
	h := sha256.New()
	h.Write([]byte("peepul-head-set\x00"))
	for _, m := range hs {
		h.Write(m[:])
	}
	var id Hash
	h.Sum(id[:0])
	return id
}

// sortHashes sorts hs by byte order in place and returns it.
func sortHashes(hs []Hash) []Hash {
	slices.SortFunc(hs, func(a, b Hash) int { return bytes.Compare(a[:], b[:]) })
	return hs
}

// foldLocked returns the canonical merge of head set hs, an antichain
// sorted by hash: the state of its member, or else the fold of its
// members in order (foldStepsLocked). The fold of a branch's multi-head
// set is held while the set pins it (Store.pins); any other, a
// criss-cross merge base among them, is folded on each read and never
// committed. mergeHeadsLocked commits the same fold when an operation
// needs a parent. Callers hold s.mu (read or write).
func (s *Store[S, Op, Val]) foldLocked(hs []Hash) (S, error) {
	if len(hs) == 1 {
		return s.stateLocked(s.commitAtLocked(hs[0]).State)
	}
	return s.readLocked(HeadSetHash(hs), func() (S, error) { return s.foldStepsLocked(hs, nil) })
}

// foldStepsLocked folds head set hs from its first member's state. Each
// step merges the fold so far with the next member over the fold of
// their maximal common ancestors, which is itself an antichain, and hands
// step, when non-nil, the member's index and the fold through it. That
// base carries exactly the operations common to both sides: a commit
// reachable from both is a common ancestor, every common ancestor lies
// below a maximal one, and the fold joins them all. The data type merges
// are verified against precisely that property (Ψ_lca), so any head set
// merges over it, whatever order gossip delivered its history in.
// Callers hold s.mu (read or write).
func (s *Store[S, Op, Val]) foldStepsLocked(hs []Hash, step func(i int, merged S)) (S, error) {
	var zero S
	acc, err := s.stateLocked(s.commitAtLocked(hs[0]).State)
	if err != nil {
		return zero, err
	}
	for i := 1; i < len(hs); i++ {
		right, err := s.stateLocked(s.commitAtLocked(hs[i]).State)
		if err != nil {
			return zero, err
		}
		bases := s.maximalCommonAncestors(hs[:i], hs[i:i+1])
		if len(bases) == 0 {
			return zero, ErrNoCommonAncestor
		}
		base, err := s.foldLocked(sortHashes(bases))
		if err != nil {
			return zero, err
		}
		start := time.Now()
		acc = s.impl.Merge(base, acc, right)
		s.metrics.mergeNs.Observe(time.Since(start).Nanoseconds())
		if step != nil {
			step(i, acc)
		}
	}
	return acc, nil
}

// maximalLocked returns the members of hs that no other member descends
// from, duplicates dropped, sorted by hash: the head set hs stands for.
// The walk paints the members' ancestry in generation order and stops
// once every member still queued has been reached from another, so it
// costs the region between the members' generations, not history.
func (s *Store[S, Op, Val]) maximalLocked(hs []Hash) []Hash {
	p := newPainter(s.commitAtLocked, flagP2)
	for _, h := range hs {
		p.add(h, flagP1)
	}
	var out []Hash
	steps := 0
	for p.active() {
		h, f := p.pop()
		steps++
		if f == flagP1 {
			out = append(out, h)
		}
		for _, par := range s.commitAtLocked(h).Parents {
			p.add(par, flagP2)
		}
	}
	s.metrics.lcaSteps.Add(int64(steps))
	return sortHashes(out)
}

// maximalCommonAncestors returns the common ancestors of the commit sets
// a and b, each standing for the union of its members' ancestries, that
// are not ancestors of another common ancestor. Commits count as their
// own ancestors, so a fast-forward situation (a an ancestor of b) yields
// a.
//
// This is Git's paint-down-to-common walk guided by generation numbers:
// commits are colored flagP1/flagP2 as the walk descends from the two
// tip sets in decreasing generation order, a commit reached by both
// colors is a common ancestor and poisons its own ancestry flagStale, and
// the walk stops once every queued commit is stale — it never descends
// past the merge base's generation band, so the cost is bounded by the
// divergence region rather than total history. Generation order makes
// flags final at pop time, so unlike Git (which orders by fallible commit
// dates) no post-pass over the candidates is needed: a dominated common
// ancestor is always painted stale before it is popped.
func (s *Store[S, Op, Val]) maximalCommonAncestors(a, b []Hash) []Hash {
	p := newPainter(s.commitAtLocked, flagStale)
	for _, h := range a {
		p.add(h, flagP1)
	}
	for _, h := range b {
		p.add(h, flagP2)
	}
	var maximal []Hash
	steps := 0
	for p.active() {
		h, f := p.pop()
		steps++
		if f&flagStale == 0 && f&(flagP1|flagP2) == flagP1|flagP2 {
			maximal = append(maximal, h)
			f |= flagStale
		}
		for _, par := range s.commitAtLocked(h).Parents {
			p.add(par, f)
		}
	}
	s.metrics.lcaSteps.Add(int64(steps))
	return maximal
}
