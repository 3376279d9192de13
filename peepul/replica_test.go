package peepul_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/counter"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/queue"
	"repro/internal/store"
	"repro/peepul"
)

// counterNode is a node hosting a single PN-counter object — the
// single-object shape most protocol tests use.
type counterNode struct {
	*peepul.Node
	obj *peepul.Handle[counter.PNState, counter.Op, counter.Val]
}

func newCounterNode(t *testing.T, name string, id int) *counterNode {
	t.Helper()
	n, err := peepul.NewNode(name, id)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := peepul.Open(n, peepul.PNCounter, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return &counterNode{Node: n, obj: obj}
}

// head names the node branch's head set.
func (n *counterNode) head() (store.Hash, error) {
	return n.obj.Store().HeadHash(n.obj.Branch())
}

func inc(t *testing.T, n *counterNode, amount int64) {
	t.Helper()
	if _, err := n.obj.Do(counter.Op{Kind: counter.Inc, N: amount}); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, n *counterNode) int64 {
	t.Helper()
	v, err := n.obj.Do(counter.Op{Kind: counter.Read})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestTwoNodesConverge(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	inc(t, a, 10)
	inc(t, b, 5)
	if _, err := b.obj.Do(counter.Op{Kind: counter.Dec, N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if av, bv := read(t, a), read(t, b); av != 13 || bv != 13 {
		t.Fatalf("a=%d b=%d, want 13", av, bv)
	}
}

func TestRepeatedRounds(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	total := int64(0)
	for round := 0; round < 5; round++ {
		inc(t, a, 1)
		inc(t, b, 2)
		total += 3
		if err := a.SyncWith(b.Addr()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if av := read(t, a); av != total {
			t.Fatalf("round %d: a=%d, want %d", round, av, total)
		}
		if bv := read(t, b); bv != total {
			t.Fatalf("round %d: b=%d, want %d", round, bv, total)
		}
	}
}

// TestRingGossipConverges is the test that motivated shipping commit DAGs
// instead of bare states: with per-pair merge bases, history arriving
// indirectly (eu's updates reaching eu again via us and ap) is
// double-counted; with the DAG, the store's LCA sees through third
// parties and the ring converges exactly.
func TestRingGossipConverges(t *testing.T) {
	eu := newCounterNode(t, "eu", 1)
	us := newCounterNode(t, "us", 2)
	ap := newCounterNode(t, "ap", 3)
	inc(t, eu, 1)
	inc(t, us, 10)
	inc(t, ap, 100)
	for round := 0; round < 3; round++ {
		if err := eu.SyncWith(us.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := us.SyncWith(ap.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := ap.SyncWith(eu.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []*counterNode{eu, us, ap} {
		if v := read(t, n); v != 111 {
			t.Fatalf("%s = %d, want 111 (no double counting around the ring)", n.Name(), v)
		}
	}
}

func TestORSetAddWinsOverTheWire(t *testing.T) {
	type orsetNode struct {
		*peepul.Node
		obj *peepul.Handle[orset.SpaceState, orset.Op, orset.Val]
	}
	mk := func(name string, id int) *orsetNode {
		n, err := peepul.NewNode(name, id)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := peepul.Open(n, peepul.OrSetSpace, "cart")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return &orsetNode{Node: n, obj: obj}
	}
	phone := mk("phone", 1)
	laptop := mk("laptop", 2)
	phone.obj.Do(orset.Op{Kind: orset.Add, E: 7})
	if err := phone.SyncWith(laptop.Addr()); err != nil {
		t.Fatal(err)
	}
	// Concurrent: laptop removes, phone re-adds.
	laptop.obj.Do(orset.Op{Kind: orset.Remove, E: 7})
	phone.obj.Do(orset.Op{Kind: orset.Add, E: 7})
	if err := phone.SyncWith(laptop.Addr()); err != nil {
		t.Fatal(err)
	}
	if v, _ := phone.obj.Do(orset.Op{Kind: orset.Lookup, E: 7}); !v.Found {
		t.Fatal("phone: add must win")
	}
	if v, _ := laptop.obj.Do(orset.Op{Kind: orset.Lookup, E: 7}); !v.Found {
		t.Fatal("laptop: add must win")
	}
}

func TestQueueWorkersOverTheWire(t *testing.T) {
	type queueNode struct {
		*peepul.Node
		obj *peepul.Handle[queue.State, queue.Op, queue.Val]
	}
	mk := func(name string, id int) *queueNode {
		n, err := peepul.NewNode(name, id)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := peepul.Open(n, peepul.Queue, "jobs")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return &queueNode{Node: n, obj: obj}
	}
	producer := mk("producer", 1)
	worker := mk("worker", 2)
	for i := int64(1); i <= 4; i++ {
		producer.obj.Do(queue.Op{Kind: queue.Enqueue, V: i})
	}
	if err := worker.SyncWith(producer.Addr()); err != nil {
		t.Fatal(err)
	}
	// Both consume the head concurrently: at-least-once.
	v1, _ := producer.obj.Do(queue.Op{Kind: queue.Dequeue})
	v2, _ := worker.obj.Do(queue.Op{Kind: queue.Dequeue})
	if !v1.OK || !v2.OK || v1.V != 1 || v2.V != 1 {
		t.Fatalf("heads: %+v %+v", v1, v2)
	}
	if err := worker.SyncWith(producer.Addr()); err != nil {
		t.Fatal(err)
	}
	st, err := worker.obj.State()
	if err != nil {
		t.Fatal(err)
	}
	var remaining []int64
	for _, p := range st.ToSlice() {
		remaining = append(remaining, p.V)
	}
	if !slices.Equal(remaining, []int64{2, 3, 4}) {
		t.Fatalf("remaining = %v, want [2 3 4]", remaining)
	}
}

func TestManyNodesStarTopology(t *testing.T) {
	const spokes = 4
	hub := newCounterNode(t, "hub", 100)
	var nodes []*counterNode
	for i := 0; i < spokes; i++ {
		nodes = append(nodes, newCounterNode(t, fmt.Sprintf("spoke%d", i), i+1))
	}
	var want int64
	for i, n := range nodes {
		inc(t, n, int64(i+1))
		want += int64(i + 1)
	}
	// Two gossip rounds through the hub spread everything everywhere.
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			if err := n.SyncWith(hub.Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hv := read(t, hub); hv != want {
		t.Fatalf("hub = %d, want %d", hv, want)
	}
	for i, n := range nodes {
		if v := read(t, n); v != want {
			t.Fatalf("spoke%d = %d, want %d", i, v, want)
		}
	}
}

func TestConcurrentOpsDuringGossip(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			inc(t, a, 1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			inc(t, b, 1)
		}
	}()
	for i := 0; i < 10; i++ {
		if err := a.SyncWith(b.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if v := read(t, a); v != 100 {
		t.Fatalf("converged = %d, want 100", v)
	}
	if v := read(t, b); v != 100 {
		t.Fatalf("converged = %d, want 100", v)
	}
}

// TestMultiObjectSession syncs two differently-typed named objects over a
// single connection and checks per-object frontier negotiation: a
// re-sync of the converged pair ships zero commits for each object.
func TestMultiObjectSession(t *testing.T) {
	mk := func(name string, id int) (*peepul.Node,
		*peepul.Handle[counter.PNState, counter.Op, counter.Val],
		*peepul.Handle[mlog.State, mlog.Op, mlog.Val]) {
		n, err := peepul.NewNode(name, id)
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := peepul.Open(n, peepul.PNCounter, "hits")
		if err != nil {
			t.Fatal(err)
		}
		feed, err := peepul.Open(n, peepul.MLog, "feed")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n, cnt, feed
	}
	a, aCnt, aFeed := mk("a", 1)
	b, bCnt, bFeed := mk("b", 2)

	aCnt.Do(counter.Op{Kind: counter.Inc, N: 7})
	bCnt.Do(counter.Op{Kind: counter.Inc, N: 5})
	aFeed.Do(mlog.Op{Kind: mlog.Append, Msg: "from-a"})
	bFeed.Do(mlog.Op{Kind: mlog.Append, Msg: "from-b"})

	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, cnt := range []*peepul.Handle[counter.PNState, counter.Op, counter.Val]{aCnt, bCnt} {
		s, err := cnt.State()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.P - s.N; got != 12 {
			t.Fatalf("counter = %d, want 12", got)
		}
	}
	for _, feed := range []*peepul.Handle[mlog.State, mlog.Op, mlog.Val]{aFeed, bFeed} {
		s, err := feed.State()
		if err != nil {
			t.Fatal(err)
		}
		if len(s) != 2 {
			t.Fatalf("feed has %d entries, want 2", len(s))
		}
	}

	// Converged: a re-sync ships zero commits per object, on both sides.
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
				t.Fatalf("%s re-sync moved %d commits on %s, want 0", object, moved, n.Name())
			}
			if after.DeltaSyncs != prev[i].DeltaSyncs+1 {
				t.Fatalf("%s on %s: delta syncs %d -> %d, want one more",
					object, n.Name(), prev[i].DeltaSyncs, after.DeltaSyncs)
			}
		}
	}
}

// TestPartialObjectOverlap syncs nodes whose object sets only partially
// overlap: shared objects converge, unshared ones are skipped and
// counted as misses, and the session survives the miss.
func TestPartialObjectOverlap(t *testing.T) {
	a, err := peepul.NewNode("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := peepul.NewNode("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	aCnt, _ := peepul.Open(a, peepul.PNCounter, "shared")
	if _, err := peepul.Open(a, peepul.MLog, "a-only"); err != nil {
		t.Fatal(err)
	}
	bCnt, _ := peepul.Open(b, peepul.PNCounter, "shared")
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	aCnt.Do(counter.Op{Kind: counter.Inc, N: 3})
	bCnt.Do(counter.Op{Kind: counter.Inc, N: 4})
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	s, _ := aCnt.State()
	if got := s.P - s.N; got != 7 {
		t.Fatalf("shared counter = %d, want 7", got)
	}
	if st := a.Stats(); st.Misses != 1 {
		t.Fatalf("client misses = %d, want 1", st.Misses)
	}
	if st := a.ObjectStats("a-only"); st.Misses != 1 || st.CommitsSent != 0 {
		t.Fatalf("a-only object stats: %+v", st)
	}
	if st := a.ObjectStats("shared"); st.DeltaSyncs != 1 {
		t.Fatalf("shared object stats: %+v", st)
	}
}

// TestDatatypeMismatchIsMiss: the same object name registered under
// different datatypes must not merge; the hello is answered with a miss.
func TestDatatypeMismatchIsMiss(t *testing.T) {
	a, _ := peepul.NewNode("a", 1)
	b, _ := peepul.NewNode("b", 2)
	t.Cleanup(func() { a.Close(); b.Close() })
	aObj, _ := peepul.Open(a, peepul.PNCounter, "thing")
	peepul.Open(b, peepul.MLog, "thing")
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	aObj.Do(counter.Op{Kind: counter.Inc, N: 1})
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Misses != 1 || st.DeltaSyncs != 0 {
		t.Fatalf("mismatched datatype must miss, got %+v", st)
	}
}

// TestEnsureRejectsMismatch: re-opening an object under another datatype
// or concrete type fails instead of corrupting the store.
func TestEnsureRejectsMismatch(t *testing.T) {
	n, _ := peepul.NewNode("x", 1)
	defer n.Close()
	if _, err := peepul.Open(n, peepul.PNCounter, "obj"); err != nil {
		t.Fatal(err)
	}
	// Same name and types: idempotent.
	if _, err := peepul.Open(n, peepul.PNCounter, "obj"); err != nil {
		t.Fatal(err)
	}
	// Same name, different datatype: refused.
	if _, err := peepul.Open(n, peepul.MLog, "obj"); err == nil {
		t.Fatal("mismatched Open must fail")
	}
}

func TestSyncWithUnreachablePeer(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	if err := a.SyncWith("127.0.0.1:1"); err == nil {
		t.Fatal("dial to unreachable peer must fail")
	}
}

func TestNewNodeValidatesID(t *testing.T) {
	if _, err := peepul.NewNode("x", -1); err == nil {
		t.Fatal("negative replica id accepted")
	}
	if _, err := peepul.NewNode("x", peepul.MaxReplicaID+1); err == nil {
		t.Fatal("oversized replica id accepted")
	}
}

func TestNodeAccessors(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	if a.Name() != "a" {
		t.Fatal("Name")
	}
	if a.Addr() == "" {
		t.Fatal("Addr must be set after Listen")
	}
	if a.obj.Store() == nil {
		t.Fatal("Store accessor")
	}
	if got := a.Objects(); !slices.Equal(got, []string{"counter"}) {
		t.Fatalf("Objects = %v", got)
	}
	if h, err := peepul.Open(a.Node, peepul.PNCounter, "counter"); err != nil || h != a.obj {
		t.Fatalf("Object lookup: %v, %v; want the open handle", h, err)
	}
	if a.ObjectStats("ghost") != (peepul.SyncStats{}) {
		t.Fatal("ghost object must not resolve")
	}
	n, _ := peepul.NewNode("x", 9)
	if n.Addr() != "" {
		t.Fatal("Addr before Listen must be empty")
	}
	n.Close()
}
