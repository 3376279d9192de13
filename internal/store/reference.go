package store

import "maps"

// Reference implementation of the merge-base search, retained from before
// the generation-guided rewrite (lca.go, walk.go). It materializes full
// ancestor sets — O(history) per query — and serves as the executable
// specification: the randomized-DAG property tests
// (lca_property_test.go) require the fast walk to agree with it on every
// seed. GC keeps using ancestors() directly, where the full
// reachability set is the point of the computation.

// ancestors returns the set of commits reachable from h, including h.
func (s *Store[S, Op, Val]) ancestors(h Hash) map[Hash]bool {
	seen := map[Hash]bool{h: true}
	stack := []Hash{h}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range s.commitAtLocked(cur).Parents {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// refMaximalCommonAncestors is the full-ancestor-set merge-base search:
// intersect the ancestor sets of the two commit sets, then discard
// candidates dominated by a higher-generation candidate.
func (s *Store[S, Op, Val]) refMaximalCommonAncestors(a, b []Hash) []Hash {
	aAnc, bAnc := map[Hash]bool{}, map[Hash]bool{}
	for _, h := range a {
		maps.Copy(aAnc, s.ancestors(h))
	}
	for _, h := range b {
		maps.Copy(bAnc, s.ancestors(h))
	}
	var common []Hash
	for h := range aAnc {
		if bAnc[h] {
			common = append(common, h)
		}
	}
	// A common ancestor is maximal if no *other* common ancestor descends
	// from it. Sort candidates by generation descending and sweep: anything
	// reachable from an already-kept candidate is dominated.
	inCommon := make(map[Hash]bool, len(common))
	for _, h := range common {
		inCommon[h] = true
	}
	var maximal []Hash
	dominated := make(map[Hash]bool)
	// Process highest generation first.
	for len(common) > 1 {
		best := -1
		var bestH Hash
		for _, h := range common {
			if g := s.commitAtLocked(h).Gen; g > best {
				best, bestH = g, h
			}
		}
		next := common[:0]
		for _, h := range common {
			if h != bestH {
				next = append(next, h)
			}
		}
		common = next
		if dominated[bestH] {
			continue
		}
		maximal = append(maximal, bestH)
		for h := range s.ancestors(bestH) {
			if h != bestH && inCommon[h] {
				dominated[h] = true
			}
		}
	}
	for _, h := range common {
		if !dominated[h] {
			maximal = append(maximal, h)
		}
	}
	return maximal
}
