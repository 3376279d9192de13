package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
)

// Property tests pinning the generation-guided DAG walks (lca.go) to the
// retained full-ancestor-set reference implementations (reference.go) on
// randomized DAGs. Commits are constructed directly so the DAGs include
// shapes the public API's soundness discipline forbids — criss-cross
// merges on both sides, merges of concurrent merge commits, and nested
// criss-crosses that force the virtual-base recursion.

// randomDAG builds a DAG of roughly size commits over the store's root:
// mostly operation commits on random existing tips, with a merge mixed in
// about a third of the time. Returns every created hash (root included).
func randomDAG(s *Store[int64, counter.Op, counter.Val], r *rand.Rand, size int) []Hash {
	hashes := []Hash{mainRoot(s)}
	for len(hashes) < size {
		if r.Intn(3) == 0 && len(hashes) > 2 {
			a := hashes[r.Intn(len(hashes))]
			b := hashes[r.Intn(len(hashes))]
			if a == b {
				continue
			}
			hashes = append(hashes, mergeCommit(s, a, b, int64(r.Intn(512))))
		} else {
			hashes = append(hashes, commitChain(s, hashes[r.Intn(len(hashes))], 1))
		}
	}
	return hashes
}

func sortedHashes(hs []Hash) []Hash {
	out := append([]Hash(nil), hs...)
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

func sameHashSet(a, b []Hash) bool {
	a, b = sortedHashes(a), sortedHashes(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomSet picks one or two hashes, standing for the union of their
// ancestries.
func randomSet(r *rand.Rand, hashes []Hash) []Hash {
	set := []Hash{hashes[r.Intn(len(hashes))]}
	if r.Intn(2) == 0 {
		set = append(set, hashes[r.Intn(len(hashes))])
	}
	return set
}

func TestMaximalCommonAncestorsMatchReferenceOnRandomDAGs(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := newInternalCounterStore()
		hashes := randomDAG(s, r, 60)
		for k := 0; k < 50; k++ {
			a, b := randomSet(r, hashes), randomSet(r, hashes)
			fast := s.maximalCommonAncestors(a, b)
			ref := s.refMaximalCommonAncestors(a, b)
			if !sameHashSet(fast, ref) {
				t.Fatalf("seed %d: maximalCommonAncestors(%v, %v) = %v, reference says %v",
					seed, a, b, sortedHashes(fast), sortedHashes(ref))
			}
		}
	}
}

// TestMaximalMatchesReferenceOnRandomDAGs pins the head-set reduction:
// a member survives exactly when no other member has it as an ancestor.
func TestMaximalMatchesReferenceOnRandomDAGs(t *testing.T) {
	for seed := int64(400); seed <= 430; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := newInternalCounterStore()
		hashes := randomDAG(s, r, 60)
		for k := 0; k < 50; k++ {
			set := make([]Hash, 1+r.Intn(4))
			for i := range set {
				set[i] = hashes[r.Intn(len(hashes))]
			}
			var want []Hash
			for i, h := range set {
				kept := !slices.Contains(set[:i], h)
				for _, o := range set {
					if o != h && s.ancestors(o)[h] {
						kept = false
					}
				}
				if kept {
					want = append(want, h)
				}
			}
			if got := s.maximalLocked(set); !slices.Equal(got, sortedHashes(want)) {
				t.Fatalf("seed %d: maximalLocked(%v) = %v, want %v", seed, set, got, sortedHashes(want))
			}
		}
	}
}

func TestLCAMatchesReferenceOnRandomDAGs(t *testing.T) {
	for seed := int64(100); seed <= 125; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := newInternalCounterStore()
		hashes := randomDAG(s, r, 50)
		for k := 0; k < 30; k++ {
			a := hashes[r.Intn(len(hashes))]
			b := hashes[r.Intn(len(hashes))]
			// The fast fold must reproduce the reference fold's base
			// state, virtual bases and all.
			fastBase, err := mergeBase(s, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if refBase := refMergeBase(s, a, b); refBase != fastBase {
				t.Fatalf("seed %d: merge base of %v, %v = %d, reference says %d", seed, a, b, fastBase, refBase)
			}
		}
	}
}

// TestLCANestedCrissCrossMatchesReference builds deliberately nested
// criss-crosses — at every level two opposite merges of the previous
// level's tips — so the merge-base search keeps finding two maximal
// common ancestors and the fold recurses through virtual bases several
// levels deep. Fast and reference must agree at every level.
func TestLCANestedCrissCrossMatchesReference(t *testing.T) {
	s := newInternalCounterStore()
	x := commitChain(s, mainRoot(s), 1)
	y := commitChain(s, x, 1)
	x = commitChain(s, x, 2)
	for level := 0; level < 4; level++ {
		ma := mergeCommit(s, x, y, int64(10+level))
		mb := mergeCommit(s, y, x, int64(10+level))
		x = commitChain(s, ma, 1)
		y = commitChain(s, mb, 1)

		fastCands := s.maximalCommonAncestors([]Hash{x}, []Hash{y})
		refCands := s.refMaximalCommonAncestors([]Hash{x}, []Hash{y})
		if !sameHashSet(fastCands, refCands) {
			t.Fatalf("level %d: candidates diverge: fast %v ref %v", level, fastCands, refCands)
		}
		if len(fastCands) != 2 {
			t.Fatalf("level %d: expected a criss-cross (2 candidates), got %d", level, len(fastCands))
		}
		commits := s.NumCommits()
		fastBase, err := mergeBase(s, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if refBase := refMergeBase(s, x, y); refBase != fastBase {
			t.Fatalf("level %d: virtual base diverges: fast %d ref %d", level, fastBase, refBase)
		}
		if s.NumCommits() != commits {
			t.Fatalf("level %d: a virtual base was committed", level)
		}
	}
}

// opSet is a grow-only set of operation timestamps, kept sorted: a
// history's state is exactly its operations, so a merge base's state can
// be checked against the operations common to both sides.
type opSet struct{}

func (opSet) Init() []int64 { return nil }

func (opSet) Do(_ counter.Op, s []int64, t core.Timestamp) ([]int64, counter.Val) {
	return sortedUnion(s, []int64{int64(t)}), 0
}

func (opSet) Merge(_, a, b []int64) []int64 { return sortedUnion(a, b) }

func (opSet) Encode(s []int64) []byte {
	var out []byte
	for _, v := range s {
		out = binary.BigEndian.AppendUint64(out, uint64(v))
	}
	return out
}

func (opSet) Decode(b []byte) ([]int64, error) {
	var s []int64
	for ; len(b) >= 8; b = b[8:] {
		s = append(s, int64(binary.BigEndian.Uint64(b)))
	}
	return s, nil
}

func sortedUnion(a, b []int64) []int64 {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// TestMergeBaseCarriesExactCommonOps is the executable statement of
// Ψ_lca: on arbitrary DAGs — including criss-crosses whose base is a
// virtual fold — the base a fold merges over carries exactly the
// operations reachable from both sides, no more and no less. Every state
// here is its history's set of operation timestamps, so the check reads
// the cached base itself. Every fold step merges over such a base, which
// is what makes the three-way merges exact whatever order gossip built
// the history in.
func TestMergeBaseCarriesExactCommonOps(t *testing.T) {
	for seed := int64(200); seed <= 230; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := New[[]int64, counter.Op, counter.Val](opSet{}, opSet{}, "main")
		hashes := []Hash{s.heads["main"][0]}
		for len(hashes) < 50 {
			x := hashes[r.Intn(len(hashes))]
			if y := hashes[r.Intn(len(hashes))]; r.Intn(3) == 0 && len(hashes) > 2 && x != y {
				// A merge commit: its state is the fold of its parents.
				if len(s.maximalLocked([]Hash{x, y})) == 2 {
					m, _, err := s.mergeHeadsLocked(sortHashes([]Hash{x, y}))
					if err != nil {
						t.Fatal(err)
					}
					hashes = append(hashes, m)
				}
				continue
			}
			nextTime++
			c := s.commits[x]
			st, _ := s.stateLocked(c.State)
			next, _ := s.impl.Do(counter.Op{}, st, core.Timestamp(nextTime))
			hashes = append(hashes, s.putCommit(Commit{Parents: []Hash{x}, State: s.putState(next, nil, c.State), Gen: c.Gen + 1, Time: core.Timestamp(nextTime)}))
		}
		opsOf := func(h Hash) map[int64]bool {
			out := map[int64]bool{}
			for anc := range s.ancestors(h) {
				if c := s.commits[anc]; len(c.Parents) == 1 {
					out[int64(c.Time)] = true
				}
			}
			return out
		}
		for k := 0; k < 40; k++ {
			a := hashes[r.Intn(len(hashes))]
			b := hashes[r.Intn(len(hashes))]
			base, err := s.foldLocked(sortHashes(s.maximalCommonAncestors([]Hash{a}, []Hash{b})))
			if err != nil {
				t.Fatal(err)
			}
			aOps, bOps := opsOf(a), opsOf(b)
			var common []int64
			for op := range aOps {
				if bOps[op] {
					common = append(common, op)
				}
			}
			slices.Sort(common)
			if !slices.Equal(base, common) {
				t.Fatalf("seed %d: base of %v, %v carries ops %v, the common ops are %v", seed, a, b, base, common)
			}
		}
	}
}
