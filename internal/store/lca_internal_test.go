package store

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
)

// White-box tests of the merge-base machinery: the public API's soundness
// discipline makes some DAG shapes (criss-cross with merge commits on both
// sides) unreachable, so the recursive virtual-base path is exercised here
// by constructing commits directly.

// int64Codec is a minimal in-package codec (the wire package's codecs
// would import-cycle back into store).
type int64Codec struct{}

func (int64Codec) Encode(s int64) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(s))
}

func (int64Codec) Decode(b []byte) (int64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("int64 codec: %d bytes", len(b))
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

func newInternalCounterStore() *Store[int64, counter.Op, counter.Val] {
	return New[int64, counter.Op, counter.Val](counter.IncCounter{}, int64Codec{}, "main")
}

// nextTime distinguishes synthetic commits: the store is content
// addressed, so two chains built from the same parent with the same states
// would otherwise collapse into one.
var nextTime int64

// commitChain appends n operation commits on top of parent, returning the
// final hash. Each commit's state adds one.
func commitChain(s *Store[int64, counter.Op, counter.Val], parent Hash, n int) Hash {
	h := parent
	for i := 0; i < n; i++ {
		c := s.commits[h]
		cur, err := s.stateLocked(c.State)
		if err != nil {
			panic(err)
		}
		st := s.putState(cur+1, nil, c.State)
		nextTime++
		h = s.putCommit(Commit{Parents: []Hash{h}, State: st, Gen: c.Gen + 1, Time: core.Timestamp(nextTime)})
	}
	return h
}

func mergeCommit(s *Store[int64, counter.Op, counter.Val], a, b Hash, state int64) Hash {
	gen := s.commits[a].Gen
	if g := s.commits[b].Gen; g > gen {
		gen = g
	}
	st := s.putState(state, nil, s.commits[a].State)
	return s.putCommit(Commit{Parents: []Hash{a, b}, State: st, Gen: gen + 1})
}

// mainRoot is the one head of a fresh store's main branch.
func mainRoot(s *Store[int64, counter.Op, counter.Val]) Hash { return s.heads["main"][0] }

// mergeBase is the state a fold merges a and b over: the canonical
// merge of their maximal common ancestors.
func mergeBase(s *Store[int64, counter.Op, counter.Val], a, b Hash) (int64, error) {
	return s.foldLocked(sortHashes(s.maximalCommonAncestors([]Hash{a}, []Hash{b})))
}

// refMergeBase is mergeBase over the reference search (refFold).
func refMergeBase(s *Store[int64, counter.Op, counter.Val], a, b Hash) int64 {
	return refFold(s, sortHashes(s.refMaximalCommonAncestors([]Hash{a}, []Hash{b})))
}

// refFold is foldLocked with every merge base found by the reference
// search and nothing cached.
func refFold(s *Store[int64, counter.Op, counter.Val], hs []Hash) int64 {
	state := func(h Hash) int64 {
		st, err := s.stateLocked(s.commits[h].State)
		if err != nil {
			panic(err)
		}
		return st
	}
	last := len(hs) - 1
	if last == 0 {
		return state(hs[0])
	}
	base := refFold(s, sortHashes(s.refMaximalCommonAncestors(hs[:last], hs[last:])))
	return s.impl.Merge(base, refFold(s, hs[:last]), state(hs[last]))
}

func TestLCASimpleFork(t *testing.T) {
	s := newInternalCounterStore()
	base := commitChain(s, mainRoot(s), 2)
	a := commitChain(s, base, 3)
	b := commitChain(s, base, 1)
	if got := s.maximalCommonAncestors([]Hash{a}, []Hash{b}); len(got) != 1 || got[0] != base {
		t.Fatalf("lca = %v, want the fork point %v", got, base)
	}
}

func TestLCAAncestorCases(t *testing.T) {
	s := newInternalCounterStore()
	mid := commitChain(s, mainRoot(s), 2)
	tip := commitChain(s, mid, 2)
	if got := s.maximalCommonAncestors([]Hash{mid}, []Hash{tip}); len(got) != 1 || got[0] != mid {
		t.Fatal("lca(ancestor, descendant) must be the ancestor")
	}
	if got := s.maximalCommonAncestors([]Hash{tip}, []Hash{tip}); len(got) != 1 || got[0] != tip {
		t.Fatal("lca(x, x) must be x")
	}
}

func TestLCACrissCrossVirtualBase(t *testing.T) {
	// Classic criss-cross: fork at base into a1 and b1; create merge
	// commits ma = merge(a1, b1) and mb = merge(b1, a1); extend both.
	// a1 and b1 are then both maximal common ancestors, and the merge
	// base must be their recursive (virtual) merge — neither committed
	// nor kept, since no head set pins it.
	s := newInternalCounterStore()
	base := commitChain(s, mainRoot(s), 1) // state 1
	a1 := commitChain(s, base, 1)          // state 2
	b1 := commitChain(s, base, 2)          // state 3
	// Correct three-way merges by hand: a1+b1-base = 2+3-1 = 4.
	ma := mergeCommit(s, a1, b1, 4)
	mb := mergeCommit(s, b1, a1, 4)
	a2 := commitChain(s, ma, 1) // state 5
	b2 := commitChain(s, mb, 2) // state 6

	maximal := s.maximalCommonAncestors([]Hash{a2}, []Hash{b2})
	if len(maximal) != 2 {
		t.Fatalf("expected 2 maximal common ancestors, got %d", len(maximal))
	}
	commits := s.NumCommits()
	vbase, err := mergeBase(s, a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCommits() != commits {
		t.Fatal("the virtual base was committed")
	}
	if s.pins[HeadSetHash(sortHashes(maximal))] != nil {
		t.Fatal("the virtual base is held under its set's name, which no head set pins")
	}
	// The virtual base's state is merge(base, a1, b1) = 4, so a final
	// three-way merge yields 5 + 6 − 4 = 7 — each increment counted once.
	if vbase != 4 {
		t.Fatalf("virtual base state = %d, want 4", vbase)
	}
	merged, err := s.foldLocked(sortHashes([]Hash{a2, b2}))
	if err != nil {
		t.Fatal(err)
	}
	if merged != 7 {
		t.Fatalf("merge over virtual base = %d, want 7", merged)
	}
}

func TestMaximalCommonAncestorsDominated(t *testing.T) {
	// A chain: every common ancestor of two descendants is dominated by
	// the deepest one; only one maximal ancestor must be reported.
	s := newInternalCounterStore()
	deep := commitChain(s, mainRoot(s), 5)
	a := commitChain(s, deep, 1)
	b := commitChain(s, deep, 2)
	maximal := s.maximalCommonAncestors([]Hash{a}, []Hash{b})
	if len(maximal) != 1 || maximal[0] != deep {
		t.Fatalf("maximal = %v, want just the deepest fork point", maximal)
	}
}
