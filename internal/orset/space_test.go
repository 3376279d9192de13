package orset

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestOrSetSpaceNoDuplicates(t *testing.T) {
	var impl OrSetSpace
	s := impl.Init()
	s, _ = impl.Do(Op{Kind: Add, E: 1}, s, 1)
	s, _ = impl.Do(Op{Kind: Add, E: 1}, s, 2)
	if len(s) != 1 {
		t.Fatalf("duplicate add must refresh in place: %v", s)
	}
	if s[0].T != 2 {
		t.Fatalf("timestamp must be refreshed to 2: %v", s)
	}
}

func TestOrSetSpaceRefreshBeatsConcurrentRemove(t *testing.T) {
	var impl OrSetSpace
	lca := SpaceState{{E: 7, T: 1}}
	a, _ := impl.Do(Op{Kind: Add, E: 7}, lca, 5)    // refresh on a
	b, _ := impl.Do(Op{Kind: Remove, E: 7}, lca, 6) // remove on b
	m := impl.Merge(lca, a, b)
	if len(m) != 1 || m[0] != (Pair{E: 7, T: 5}) {
		t.Fatalf("merge = %v; the refreshed add must win", m)
	}
}

func TestOrSetSpaceRemoveBeatsObservedAdd(t *testing.T) {
	var impl OrSetSpace
	lca := SpaceState{{E: 7, T: 1}}
	b, _ := impl.Do(Op{Kind: Remove, E: 7}, lca, 6)
	if m := impl.Merge(lca, lca, b); len(m) != 0 {
		t.Fatalf("merge = %v; unrefreshed element must be removed", m)
	}
}

func TestOrSetSpaceConcurrentAddsKeepLatest(t *testing.T) {
	var impl OrSetSpace
	var lca SpaceState
	a, _ := impl.Do(Op{Kind: Add, E: 9}, lca, 3)
	b, _ := impl.Do(Op{Kind: Add, E: 9}, lca, 8)
	m := impl.Merge(lca, a, b)
	if len(m) != 1 || m[0] != (Pair{E: 9, T: 8}) {
		t.Fatalf("merge = %v; concurrent adds keep the larger timestamp", m)
	}
	if m2 := impl.Merge(lca, b, a); !slices.Equal(m, m2) {
		t.Fatal("merge must be symmetric")
	}
}

func TestOrSetSpaceMergeTripleIntersection(t *testing.T) {
	var impl OrSetSpace
	lca := SpaceState{{E: 1, T: 1}, {E: 2, T: 2}}
	if m := impl.Merge(lca, lca, lca); !slices.Equal(m, lca) {
		t.Fatalf("idle merge = %v", m)
	}
}

// randomSpaceExec drives an LCA plus two divergent branches with random
// adds/removes through the real Do, returning the three states.
func randomSpaceExec(r *rand.Rand) (lca, a, b SpaceState) {
	var impl OrSetSpace
	ts := core.Timestamp(1)
	step := func(s SpaceState) SpaceState {
		e := int64(r.Intn(6))
		var op Op
		if r.Intn(3) == 0 {
			op = Op{Kind: Remove, E: e}
		} else {
			op = Op{Kind: Add, E: e}
		}
		next, _ := impl.Do(op, s, ts)
		ts++
		return next
	}
	lca = impl.Init()
	for i, n := 0, r.Intn(6); i < n; i++ {
		lca = step(lca)
	}
	a, b = lca, lca
	for i, n := 0, r.Intn(8); i < n; i++ {
		if r.Intn(2) == 0 {
			a = step(a)
		} else {
			b = step(b)
		}
	}
	return lca, a, b
}

func TestOrSetSpaceMergePropertiesQuick(t *testing.T) {
	var impl OrSetSpace
	type tri struct{ l, a, b SpaceState }
	cfg := &quick.Config{
		MaxCount: 400,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			l, a, b := randomSpaceExec(r)
			vals[0] = reflect.ValueOf(tri{l, a, b})
		},
	}
	wellFormed := func(x tri) bool {
		m := impl.Merge(x.l, x.a, x.b)
		for i := 1; i < len(m); i++ {
			if m[i-1].E >= m[i].E {
				return false
			}
		}
		return true
	}
	if err := quick.Check(wellFormed, cfg); err != nil {
		t.Error(err)
	}
	symmetric := func(x tri) bool {
		return slices.Equal(impl.Merge(x.l, x.a, x.b), impl.Merge(x.l, x.b, x.a))
	}
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Error(err)
	}
	selfIsIdentity := func(x tri) bool {
		return slices.Equal(impl.Merge(x.a, x.a, x.a), x.a)
	}
	if err := quick.Check(selfIsIdentity, cfg); err != nil {
		t.Error(err)
	}
	// The space-efficient merge agrees with the plain OR-set merge up to
	// duplicate elimination: same element sets.
	agreesWithPlain := func(x tri) bool {
		var plain OrSet
		m := impl.Merge(x.l, x.a, x.b)
		p := plain.Merge(State(x.l), State(x.a), State(x.b))
		return slices.Equal(readElems(m), readElems(p))
	}
	if err := quick.Check(agreesWithPlain, cfg); err != nil {
		t.Error(err)
	}
}

func TestRsimSpace(t *testing.T) {
	h := core.NewHistory[Op, Val]()
	a1 := h.Append(Op{Kind: Add, E: 3}, Val{}, 1, nil)
	a2 := h.Append(Op{Kind: Add, E: 3}, Val{}, 2, []core.EventID{a1})
	abs := core.StateOf(h, []core.EventID{a1, a2})
	if !RsimSpace(abs, SpaceState{{E: 3, T: 2}}) {
		t.Fatal("RsimSpace must pin the latest unmatched add's timestamp")
	}
	if RsimSpace(abs, SpaceState{{E: 3, T: 1}}) {
		t.Fatal("RsimSpace must reject the stale timestamp")
	}
	if RsimSpace(abs, SpaceState{{E: 3, T: 1}, {E: 3, T: 2}}) {
		t.Fatal("RsimSpace must reject duplicates")
	}
	if RsimSpace(abs, nil) {
		t.Fatal("RsimSpace must reject a missing element")
	}
}

// mergeBySearch is OrSetSpace.Merge with lca searched once per pair
// (binary search) instead of read through a forward cursor: the
// reference the linear pass must agree with.
func mergeBySearch(lca, a, b SpaceState) SpaceState {
	in := func(p Pair) bool {
		i, ok := findElem(lca, p.E)
		return ok && lca[i] == p
	}
	out := make(SpaceState, 0, max(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].E < b[j].E):
			if !in(a[i]) {
				out = append(out, a[i])
			}
			i++
		case i >= len(a) || b[j].E < a[i].E:
			if !in(b[j]) {
				out = append(out, b[j])
			}
			j++
		default:
			pa, pb := a[i], b[j]
			newA, newB := !in(pa), !in(pb)
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
			default:
				out = append(out, pa)
			}
			i++
			j++
		}
	}
	return out
}

// TestOrSetSpaceMergeMatchesSearch: the linear merge returns exactly the
// binary-search form's output on random triples whose branches refresh
// and remove the ancestor's elements and add new ones, some of them on
// both branches.
func TestOrSetSpaceMergeMatchesSearch(t *testing.T) {
	var impl OrSetSpace
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		domain := int64(1 + r.Intn(64))
		ts := core.Timestamp(1)
		do := func(s SpaceState, kind OpKind, e int64) SpaceState {
			next, _ := impl.Do(Op{Kind: kind, E: e}, s, ts)
			ts++
			return next
		}
		lca := impl.Init()
		for i, n := 0, r.Intn(48); i < n; i++ {
			lca = do(lca, Add, r.Int63n(domain))
		}
		a, b := lca, lca
		for i, n := 0, r.Intn(32); i < n; i++ {
			e := r.Int63n(domain)
			switch r.Intn(4) {
			case 0: // a concurrent add of one element on both branches
				a, b = do(a, Add, e), do(b, Add, e)
			case 1:
				if r.Intn(2) == 0 {
					a = do(a, Remove, e)
				} else {
					b = do(b, Remove, e)
				}
			default: // an add: a refresh when e is in the branch
				if r.Intn(2) == 0 {
					a = do(a, Add, e)
				} else {
					b = do(b, Add, e)
				}
			}
		}
		got, want := impl.Merge(lca, a, b), mergeBySearch(lca, a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Merge(%v, %v, %v) = %v, want %v", trial, lca, a, b, got, want)
		}
	}
}
