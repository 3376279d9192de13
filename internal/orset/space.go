package orset

import (
	"slices"

	"repro/internal/core"
)

// SpaceState is the space-efficient OR-set state (§2.1.2): at most one pair
// per element, sorted by element. Treat as immutable.
type SpaceState []Pair

// OrSetSpace is the space-efficient OR-set MRDT of Figure 2. Adding an
// element already in the set refreshes its timestamp in place, recording
// the effect of the duplicate add so a concurrent remove cannot erase it.
type OrSetSpace struct{}

var _ core.MRDT[SpaceState, Op, Val] = OrSetSpace{}

// Init returns the empty set.
func (OrSetSpace) Init() SpaceState { return nil }

func findElem(s SpaceState, e int64) (int, bool) {
	return slices.BinarySearchFunc(s, e, func(p Pair, e int64) int {
		switch {
		case p.E < e:
			return -1
		case p.E > e:
			return 1
		default:
			return 0
		}
	})
}

// Do applies op at state s with timestamp t.
func (OrSetSpace) Do(op Op, s SpaceState, t core.Timestamp) (SpaceState, Val) {
	switch op.Kind {
	case Read:
		elems := make([]int64, len(s))
		for i, p := range s {
			elems[i] = p.E
		}
		return s, Val{Elems: elems}
	case Lookup:
		_, ok := findElem(s, op.E)
		return s, Val{Found: ok}
	case Add:
		i, ok := findElem(s, op.E)
		next := make(SpaceState, 0, len(s)+1)
		next = append(next, s[:i]...)
		next = append(next, Pair{E: op.E, T: t})
		if ok {
			next = append(next, s[i+1:]...)
		} else {
			next = append(next, s[i:]...)
		}
		return next, Val{}
	case Remove:
		i, ok := findElem(s, op.E)
		if !ok {
			return s, Val{}
		}
		next := make(SpaceState, 0, len(s)-1)
		next = append(next, s[:i]...)
		next = append(next, s[i+1:]...)
		return next, Val{}
	default:
		return s, Val{}
	}
}

// Merge implements Figure 2, decided per element in one linear pass over
// the three element-sorted slices:
//
//   - the pair is unchanged everywhere (in lca ∩ a ∩ b): keep it;
//   - the element was added/refreshed on exactly one branch (the pair is in
//     that branch's diff and the element is absent from the other diff):
//     keep that branch's pair;
//   - the element was added/refreshed on both branches: keep the pair with
//     the larger timestamp;
//   - otherwise (unchanged on one side, removed on the other, or removed on
//     both): drop it.
//
// The pass visits elements in ascending order, so lca is read through a
// cursor that only moves forward (inLCA), not searched once per pair.
func (OrSetSpace) Merge(lca, a, b SpaceState) SpaceState {
	out := make(SpaceState, 0, max(len(a), len(b)))
	i, j, k := 0, 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].E < b[j].E):
			if !inLCA(lca, &k, a[i]) { // in a − lca, element absent from b
				out = append(out, a[i])
			}
			i++
		case i >= len(a) || b[j].E < a[i].E:
			if !inLCA(lca, &k, b[j]) {
				out = append(out, b[j])
			}
			j++
		default: // same element on both branches
			pa, pb := a[i], b[j]
			newA := !inLCA(lca, &k, pa)
			newB := !inLCA(lca, &k, pb)
			switch {
			case newA && newB:
				if pa.T >= pb.T {
					out = append(out, pa)
				} else {
					out = append(out, pb)
				}
			case newA:
				out = append(out, pa)
			case newB:
				out = append(out, pb)
			default: // pa == pb == lca's pair: in the triple intersection
				out = append(out, pa)
			}
			i++
			j++
		}
	}
	return out
}

// inLCA reports whether p is a pair of lca, moving the cursor *k past
// lca's smaller elements first. Calls must come in ascending element
// order, as Merge's pass makes them.
func inLCA(lca SpaceState, k *int, p Pair) bool {
	for *k < len(lca) && lca[*k].E < p.E {
		*k++
	}
	return *k < len(lca) && lca[*k] == p
}

// RsimSpace is the simulation relation of §4.2 (equation 4). On top of the
// unoptimized relation it pins each element's concrete timestamp to the
// *latest* unmatched add of that element, and requires every element with
// an unmatched add to be present exactly once.
func RsimSpace(abs *core.AbstractState[Op, Val], s SpaceState) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1].E >= s[i].E {
			return false
		}
	}
	want := latestUnmatchedAdds(abs)
	if len(want) != len(s) {
		return false
	}
	for _, p := range s {
		if want[p.E] != p.T {
			return false
		}
	}
	return true
}

// latestUnmatchedAdds maps each element with at least one unmatched add to
// the maximal timestamp among its unmatched adds.
func latestUnmatchedAdds(abs *core.AbstractState[Op, Val]) map[int64]core.Timestamp {
	evs := abs.Events()
	want := make(map[int64]core.Timestamp)
	for _, e := range evs {
		o := abs.Oper(e)
		if o.Kind != Add || !unmatchedAdd(abs, evs, e) {
			continue
		}
		if t, ok := want[o.E]; !ok || abs.Time(e) > t {
			want[o.E] = abs.Time(e)
		}
	}
	return want
}
