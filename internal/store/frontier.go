package store

import (
	"fmt"
	"slices"
)

// Frontier is a compact summary of a branch's history: the head set plus
// a sample of ancestor hashes — dense over the most recent commits,
// exponentially sparse further back (the spacing trick of Git's commit
// negotiation). Everything dominated by the frontier's hashes can be cut
// from an export (ExportSincePacked), so shipping to a store that holds
// the frontier costs the gap, not the history.
type Frontier struct {
	// Heads is the branch's current head set.
	Heads []Hash
	// Have samples ancestors of Heads (the heads excluded): every commit
	// within the dense generation window below the highest head, then
	// power-of-two distances.
	Have []Hash
}

// HaveSet returns the frontier's hashes — heads and sample — as the
// have-set understood by ExportSincePacked.
func (f Frontier) HaveSet() []Hash {
	return append(slices.Clone(f.Heads), f.Have...)
}

// Frontier sampling bounds: every ancestor within frontierDense
// generations of the head joins the sample, which holds at most
// frontierMaxHave hashes and is drawn from a walk of at most
// frontierWalkBudget commits (past it the sample is merely sparser).
const (
	frontierDense      = 16
	frontierMaxHave    = 128
	frontierWalkBudget = 4096
)

// Frontier summarizes branch b.
//
// The sample budget is split: a quarter of frontierMaxHave is reserved
// for the sparse power-of-two tail, the rest goes to the dense window.
// On wide DAGs (many merges close to the head) the dense window alone
// can hold more commits than the whole budget, and an unsplit budget
// would fill up before the walk ever reaches a sparse ancestor — losing
// exactly the old merge-cut points that let a long-diverged peer find a
// deep common commit.
func (s *Store[S, Op, Val]) Frontier(b string) (Frontier, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	heads, ok := s.heads[b]
	if !ok {
		return Frontier{}, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	headGen := 0
	seen := make(map[Hash]bool, len(heads))
	for _, h := range heads {
		headGen = max(headGen, s.commitAtLocked(h).Gen)
		seen[h] = true
	}
	const (
		sparseCap = frontierMaxHave / 4
		denseCap  = frontierMaxHave - sparseCap
	)
	var dense, sparse []Hash
	queue := slices.Clone(heads)
	for visited := 0; len(queue) > 0 && visited < frontierWalkBudget &&
		(len(dense) < denseCap || len(sparse) < sparseCap); visited++ {
		h := queue[0]
		queue = queue[1:]
		if !slices.Contains(heads, h) {
			switch d := headGen - s.commitAtLocked(h).Gen; {
			case d <= frontierDense:
				if len(dense) < denseCap {
					dense = append(dense, h)
				}
			case d&(d-1) == 0: // power of two
				if len(sparse) < sparseCap {
					sparse = append(sparse, h)
				}
			}
		}
		for _, p := range s.commitAtLocked(h).Parents {
			if !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	f := Frontier{Heads: heads, Have: append(dense, sparse...)}
	return f, nil
}
