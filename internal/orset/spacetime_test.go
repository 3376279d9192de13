package orset

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestTreeInsertLookupDelete(t *testing.T) {
	var impl OrSetSpaceTime
	s := impl.Init()
	for i, e := range []int64{5, 2, 8, 1, 9, 3} {
		s, _ = impl.Do(Op{Kind: Add, E: e}, s, core.Timestamp(i+1))
	}
	if !validAVL(s) {
		t.Fatal("tree must stay AVL-balanced under inserts")
	}
	_, v := impl.Do(Op{Kind: Read}, s, 100)
	if !slices.Equal(v.Elems, []int64{1, 2, 3, 5, 8, 9}) {
		t.Fatalf("read = %v", v.Elems)
	}
	_, v = impl.Do(Op{Kind: Lookup, E: 8}, s, 101)
	if !v.Found {
		t.Fatal("lookup 8")
	}
	s, _ = impl.Do(Op{Kind: Remove, E: 5}, s, 102)
	if !validAVL(s) {
		t.Fatal("tree must stay AVL-balanced under deletes")
	}
	_, v = impl.Do(Op{Kind: Lookup, E: 5}, s, 103)
	if v.Found {
		t.Fatal("removed element must be gone")
	}
}

func TestTreePersistence(t *testing.T) {
	var impl OrSetSpaceTime
	s1 := impl.Init()
	for i := int64(0); i < 20; i++ {
		s1, _ = impl.Do(Op{Kind: Add, E: i}, s1, core.Timestamp(i+1))
	}
	before := flatten(s1)
	s2, _ := impl.Do(Op{Kind: Remove, E: 10}, s1, 100)
	s3, _ := impl.Do(Op{Kind: Add, E: 99}, s1, 101)
	if !slices.Equal(flatten(s1), before) {
		t.Fatal("operations must not mutate ancestor trees")
	}
	if len(flatten(s2)) != 19 || len(flatten(s3)) != 21 {
		t.Fatal("derived states have wrong sizes")
	}
}

func TestTreeRefreshTimestamp(t *testing.T) {
	var impl OrSetSpaceTime
	s := impl.Init()
	s, _ = impl.Do(Op{Kind: Add, E: 4}, s, 1)
	s, _ = impl.Do(Op{Kind: Add, E: 4}, s, 9)
	fl := flatten(s)
	if len(fl) != 1 || fl[0] != (Pair{E: 4, T: 9}) {
		t.Fatalf("refresh: %v", fl)
	}
}

func TestTreeMergeBalancedResult(t *testing.T) {
	var impl OrSetSpaceTime
	var lca TreeState
	a, b := lca, lca
	ts := core.Timestamp(1)
	for i := int64(0); i < 50; i++ {
		a, _ = impl.Do(Op{Kind: Add, E: i}, a, ts)
		ts++
	}
	for i := int64(50); i < 100; i++ {
		b, _ = impl.Do(Op{Kind: Add, E: i}, b, ts)
		ts++
	}
	m := impl.Merge(lca, a, b)
	if !validAVL(m) {
		t.Fatal("merge must produce a height-balanced tree")
	}
	if got := flatten(m); len(got) != 100 {
		t.Fatalf("merged size = %d, want 100", len(got))
	}
	// A perfectly balanced tree of 100 nodes has height 7.
	if h := height(m); h > 7 {
		t.Fatalf("merged height = %d, want ≤ 7", h)
	}
}

func TestTreeMergeAgreesWithSpace(t *testing.T) {
	var tree OrSetSpaceTime
	var space OrSetSpace
	type tri struct{ l, a, b SpaceState }
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			l, a, b := randomSpaceExec(r)
			vals[0] = reflect.ValueOf(tri{l, a, b})
		},
	}
	prop := func(x tri) bool {
		tm := tree.Merge(buildBalanced(x.l), buildBalanced(x.a), buildBalanced(x.b))
		sm := space.Merge(x.l, x.a, x.b)
		return validAVL(tm) && slices.Equal(flatten(tm), sm)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestTreeAVLInvariantUnderRandomOps(t *testing.T) {
	var impl OrSetSpaceTime
	r := rand.New(rand.NewSource(42))
	s := impl.Init()
	for i := 0; i < 3000; i++ {
		e := int64(r.Intn(200))
		if r.Intn(3) == 0 {
			s, _ = impl.Do(Op{Kind: Remove, E: e}, s, core.Timestamp(i+1))
		} else {
			s, _ = impl.Do(Op{Kind: Add, E: e}, s, core.Timestamp(i+1))
		}
		if i%250 == 0 && !validAVL(s) {
			t.Fatalf("AVL invariant broken at step %d", i)
		}
	}
	if !validAVL(s) {
		t.Fatal("AVL invariant broken at the end")
	}
}

func TestRsimSpaceTimeRejectsUnbalanced(t *testing.T) {
	h := core.NewHistory[Op, Val]()
	var evs []core.EventID
	var prev []core.EventID
	for i := int64(1); i <= 4; i++ {
		id := h.Append(Op{Kind: Add, E: i}, Val{}, core.Timestamp(i), prev)
		prev = append(prev, id)
		evs = append(evs, id)
	}
	abs := core.StateOf(h, evs)
	// A degenerate right spine with correct contents.
	spine := mk(Pair{E: 1, T: 1},
		nil,
		mk(Pair{E: 2, T: 2}, nil, mk(Pair{E: 3, T: 3}, nil, mk(Pair{E: 4, T: 4}, nil, nil))))
	if RsimSpaceTime(abs, spine) {
		t.Fatal("RsimSpaceTime must reject an unbalanced tree")
	}
	balanced := buildBalanced(SpaceState{{E: 1, T: 1}, {E: 2, T: 2}, {E: 3, T: 3}, {E: 4, T: 4}})
	if !RsimSpaceTime(abs, balanced) {
		t.Fatal("RsimSpaceTime must accept the balanced faithful tree")
	}
}

func TestBuildBalancedProperties(t *testing.T) {
	f := func(n uint8) bool {
		s := make(SpaceState, n%60)
		for i := range s {
			s[i] = Pair{E: int64(i), T: core.Timestamp(i)}
		}
		tr := buildBalanced(s)
		return validAVL(tr) && slices.Equal(flatten(tr), s) && size(tr) == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestConvergenceModuloObservableBehaviour witnesses Definition 3.4/3.5's
// motivating example (§3): two replicas that applied the same events in
// different orders hold structurally different search trees, yet every
// operation returns the same values on both — the paper's justification
// for weakening convergence to observational equivalence.
func TestConvergenceModuloObservableBehaviour(t *testing.T) {
	var impl OrSetSpaceTime
	// Six elements: ascending and descending insertion orders rebalance to
	// mirrored (hence structurally different) AVL shapes. (Seven would
	// rebalance to the same perfect tree on both sides.)
	ops := []Op{
		{Kind: Add, E: 1}, {Kind: Add, E: 2}, {Kind: Add, E: 3},
		{Kind: Add, E: 4}, {Kind: Add, E: 5}, {Kind: Add, E: 6},
	}
	// Replica A inserts ascending; replica B descending. Same event set
	// (timestamps differ per event but contents coincide per element).
	a := impl.Init()
	for i, op := range ops {
		a, _ = impl.Do(op, a, core.Timestamp(i+1))
	}
	b := impl.Init()
	for i := len(ops) - 1; i >= 0; i-- {
		b, _ = impl.Do(ops[i], b, core.Timestamp(i+1))
	}
	if !slices.Equal(flatten(a), flatten(b)) {
		t.Fatal("same contents expected")
	}
	structurallyEqual := func(x, y *TreeNode) bool {
		var eq func(x, y *TreeNode) bool
		eq = func(x, y *TreeNode) bool {
			if x == nil || y == nil {
				return x == y
			}
			return x.Pair == y.Pair && eq(x.Left, y.Left) && eq(x.Right, y.Right)
		}
		return eq(x, y)
	}
	if structurallyEqual(a, b) {
		t.Fatal("the two insertion orders should produce different tree shapes for this to be a meaningful witness")
	}
	// Observational equivalence over the full probe alphabet.
	probes := []Op{{Kind: Read}}
	for e := int64(0); e <= 8; e++ {
		probes = append(probes, Op{Kind: Lookup, E: e})
	}
	if !core.ObsEquiv[TreeState, Op, Val](impl, probes, ValEq, a, b, 100) {
		t.Fatal("structurally different trees must be observationally equivalent")
	}
}

// TestEditFindsTheOnePair: after any one Do on a tree, Edit(prev, next)
// names the pair the operation added, refreshed or removed — its rank,
// and next's pair there — as comparing the two flattened sets does; an
// unchanged set, or the same pairs in a tree of another shape, reports
// no pair; and two trees that differ in two pairs are refused. Every
// tree keeps its subtree sizes right.
func TestEditFindsTheOnePair(t *testing.T) {
	var impl OrSetSpaceTime
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 10, 100, 2000} {
		var s TreeState
		for i := range n {
			s, _ = impl.Do(Op{Kind: Add, E: rng.Int63n(4 * int64(n+1))}, s, core.Timestamp(i+1))
		}
		for i := range 200 {
			flat := flatten(s)
			op := Op{Kind: Add, E: rng.Int63n(4*int64(n+1)) - 2}
			switch {
			case i%3 == 1 && len(flat) > 0:
				op = Op{Kind: Add, E: flat[rng.Intn(len(flat))].E}
			case i%3 == 2 && len(flat) > 0:
				op = Op{Kind: Remove, E: flat[rng.Intn(len(flat))].E}
			case i%3 == 2:
				op.Kind = Remove
			}
			next, _ := impl.Do(op, s, core.Timestamp(n+i+1))
			if !validAVL(next) {
				t.Fatal("a Do left a tree with wrong heights or sizes")
			}
			k, p, ok := Edit(s, next)
			after := flatten(next)
			wantK := 0
			for wantK < min(len(flat), len(after)) && flat[wantK] == after[wantK] {
				wantK++
			}
			var wantP Pair
			if len(after) >= len(flat) && wantK < len(after) {
				wantP = after[wantK]
			}
			if !ok || k != wantK || p != wantP {
				t.Fatalf("%d pairs, %v: Edit = %d, %v, %v; want %d, %v", len(flat), op, k, p, ok, wantK, wantP)
			}
			if k, _, ok := Edit(s, buildBalanced(flat)); !ok || k != len(flat) {
				t.Fatalf("%d pairs in another shape: Edit = %d, %v; want %d, true", len(flat), k, ok, len(flat))
			}
			s = next
		}
		if flat := flatten(s); len(flat) >= 4 {
			two := slices.Clone(flat)
			two[0].T++
			two[len(two)-1].T++
			if _, _, ok := Edit(s, buildBalanced(two)); ok {
				t.Fatalf("%d pairs: Edit accepts two changed pairs", len(flat))
			}
		}
	}
}
