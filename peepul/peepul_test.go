package peepul_test

import (
	"slices"
	"testing"

	"repro/peepul"
)

// TestRegistryShape: the built-in library registers every datatype of
// Table 3 (plus the disable-wins dual) exactly once, in table order.
func TestRegistryShape(t *testing.T) {
	names := peepul.Names()
	want := []string{
		"inc-counter", "pn-counter", "ew-flag", "dw-flag", "lww-register",
		"g-set", "g-map", "mergeable-log", "or-set", "or-set-space",
		"or-set-spacetime", "functional-queue", "alpha-map<pn-counter>",
		"alpha-map<or-set-space>", "irc-chat",
	}
	if !slices.Equal(names, want) {
		t.Fatalf("registry names = %v, want %v", names, want)
	}
	if len(peepul.All()) != len(want) {
		t.Fatalf("All() returned %d entries", len(peepul.All()))
	}
	for _, name := range want {
		r, ok := peepul.Lookup(name)
		if !ok || r.Name() != name {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if r.Config().RandomExecutions == 0 {
			t.Fatalf("%s has zero exploration bounds", name)
		}
	}
	if _, ok := peepul.Lookup("no-such-type"); ok {
		t.Fatal("Lookup of unknown name must fail")
	}
}

// TestMultiObjectTwoTypesOneConnection is the acceptance scenario of the
// redesign: two differently-typed named objects replicated between two
// nodes over a single connection, with per-object SyncStats showing zero
// commits shipped on re-sync.
func TestMultiObjectTwoTypesOneConnection(t *testing.T) {
	mkNode := func(name string, id int) *peepul.Node {
		n, err := peepul.NewNode(name, id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	a := mkNode("a", 1)
	b := mkNode("b", 2)

	aHits, err := peepul.Open(a, peepul.PNCounter, "hits")
	if err != nil {
		t.Fatal(err)
	}
	aFeed, err := peepul.Open(a, peepul.MLog, "feed")
	if err != nil {
		t.Fatal(err)
	}
	bHits, err := peepul.Open(b, peepul.PNCounter, "hits")
	if err != nil {
		t.Fatal(err)
	}
	bFeed, err := peepul.Open(b, peepul.MLog, "feed")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	aHits.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 7})
	bHits.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 5})
	aFeed.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: "from-a"})
	bFeed.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: "from-b"})

	// One SyncWith = one connection syncing both objects.
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	av, err := aHits.Do(peepul.CounterOp{Kind: peepul.CounterRead})
	if err != nil {
		t.Fatal(err)
	}
	bv, err := bHits.Do(peepul.CounterOp{Kind: peepul.CounterRead})
	if err != nil {
		t.Fatal(err)
	}
	if av != 12 || bv != 12 {
		t.Fatalf("hits: a=%d b=%d, want 12", av, bv)
	}
	afs, err := aFeed.State()
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := bFeed.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(afs) != 2 || len(bfs) != 2 {
		t.Fatalf("feed lengths: a=%d b=%d, want 2", len(afs), len(bfs))
	}

	// Converge the read-op commits, then measure a pure re-sync.
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	before := map[string][2]peepul.SyncStats{
		"hits": {a.ObjectStats("hits"), b.ObjectStats("hits")},
		"feed": {a.ObjectStats("feed"), b.ObjectStats("feed")},
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	for object, prev := range before {
		for i, n := range []*peepul.Node{a, b} {
			after := n.ObjectStats(object)
			moved := (after.CommitsSent - prev[i].CommitsSent) + (after.CommitsRecv - prev[i].CommitsRecv)
			if moved != 0 {
				t.Fatalf("re-sync of %q moved %d commits on %s, want 0", object, moved, n.Name())
			}
			if after.DeltaSyncs != prev[i].DeltaSyncs+1 {
				t.Fatalf("%q on %s: DeltaSyncs %d -> %d, want exactly one more (single session)",
					object, n.Name(), prev[i].DeltaSyncs, after.DeltaSyncs)
			}
		}
	}
	if st := a.Stats(); st.RedundantCommits != 0 || st.Misses != 0 {
		t.Fatalf("clean two-object sync must neither re-ship nor miss: %+v", st)
	}
	if got := a.Objects(); !slices.Equal(got, []string{"feed", "hits"}) {
		t.Fatalf("Objects = %v", got)
	}
	if hs := aHits.Stats(); hs.DeltaSyncs == 0 {
		t.Fatalf("handle stats must surface per-object counters: %+v", hs)
	}
}

// TestOpenIsGetOrCreateAndTypeChecked: re-opening returns the same
// object; opening the same name under a different datatype fails.
func TestOpenIsGetOrCreateAndTypeChecked(t *testing.T) {
	n, err := peepul.NewNode("solo", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h1, err := peepul.Open(n, peepul.PNCounter, "obj")
	if err != nil {
		t.Fatal(err)
	}
	h1.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 3})
	h2, err := peepul.Open(n, peepul.PNCounter, "obj")
	if err != nil {
		t.Fatal(err)
	}
	v, err := h2.Do(peepul.CounterOp{Kind: peepul.CounterRead})
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("re-opened handle sees %d, want 3", v)
	}
	if _, err := peepul.Open(n, peepul.MLog, "obj"); err == nil {
		t.Fatal("opening a counter object as a log must fail")
	}
	if _, err := peepul.Open(n, peepul.Datatype[int64, peepul.CounterOp, peepul.CounterVal]{}, "x"); err == nil {
		t.Fatal("opening with an incomplete descriptor must fail")
	}
}

// TestHandleBranchAndMerge drives the paper's branch-and-merge model
// through a handle: fork a local branch, diverge, and converge with the
// certified three-way merge.
func TestHandleBranchAndMerge(t *testing.T) {
	n, err := peepul.NewNode("main", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h, err := peepul.Open(n, peepul.PNCounter, "cart-total")
	if err != nil {
		t.Fatal(err)
	}
	if h.Branch() != "main" || h.Object() != "cart-total" || h.Node() != n {
		t.Fatal("handle accessors")
	}
	if err := h.Fork("replica"); err != nil {
		t.Fatal(err)
	}
	h.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 10})
	h.DoOn("replica", peepul.CounterOp{Kind: peepul.CounterInc, N: 5})
	h.DoOn("replica", peepul.CounterOp{Kind: peepul.CounterDec, N: 2})
	if err := h.Sync("main", "replica"); err != nil {
		t.Fatal(err)
	}
	ms, err := h.State()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := h.StateOf("replica")
	if err != nil {
		t.Fatal(err)
	}
	if got := ms.P - ms.N; got != 13 {
		t.Fatalf("main = %d, want 13", got)
	}
	if got := rs.P - rs.N; got != 13 {
		t.Fatalf("replica = %d, want 13", got)
	}
	// Pull is exposed too: a further one-way merge is a no-op here.
	if err := h.Pull("main", "replica"); err != nil {
		t.Fatal(err)
	}
	if h.Store() == nil {
		t.Fatal("Store accessor")
	}
}
