package peepul_test

import (
	"fmt"
	"testing"

	"repro/internal/mlog"
	"repro/internal/wire"
	"repro/peepul"
)

// commitsMoved sums the commits shipped in both directions between two
// stats snapshots of the same node.
func commitsMoved(before, after peepul.SyncStats) int64 {
	return (after.CommitsSent - before.CommitsSent) + (after.CommitsRecv - before.CommitsRecv)
}

func bytesMoved(before, after peepul.SyncStats) int64 {
	return (after.BytesSent - before.BytesSent) + (after.BytesRecv - before.BytesRecv)
}

// peek reads a counter node's value without committing an operation (Do
// with a Read op would append a commit and de-converge the fleet).
func peek(t *testing.T, n *counterNode) int64 {
	t.Helper()
	s, err := n.obj.State()
	if err != nil {
		t.Fatal(err)
	}
	return s.P - s.N
}

// TestDeltaResyncTransfersNothing: once a pair has converged, another
// sync ships zero commits and costs one span probe and its match,
// independent of how long the shared history is.
func TestDeltaResyncTransfersNothing(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	const history = 300
	for i := 0; i < history; i++ {
		if i%2 == 0 {
			inc(t, a, 1)
		} else {
			inc(t, b, 1)
		}
		if i%32 == 31 {
			if err := a.SyncWith(b.Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}

	before := a.Stats()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	after := a.Stats()
	if moved := commitsMoved(before, after); moved != 0 {
		t.Fatalf("re-sync of a converged pair moved %d commits, want 0", moved)
	}
	if probes := after.RangesSent - before.RangesSent; probes != 1 {
		t.Fatalf("re-sync of a converged pair sent %d probes, want the span probe alone", probes)
	}
	// Two frames of a few dozen bytes, however long the history: 300+
	// commits would be far larger (each carries a 32-byte parent hash
	// alone).
	if by := bytesMoved(before, after); by > 256 {
		t.Fatalf("re-sync cost %d bytes, want one span probe and its match", by)
	}
}

// TestDeltaCrissCrossConverges drives alternating-direction syncs with
// operations interleaved on both sides, producing criss-cross merge
// patterns in the DAG; the delta path must converge exactly like the
// full path, with the store's virtual merge bases doing their job.
func TestDeltaCrissCrossConverges(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	var want int64
	for round := 0; round < 6; round++ {
		inc(t, a, 1)
		inc(t, b, 10)
		want += 11
		var err error
		if round%2 == 0 {
			err = a.SyncWith(b.Addr())
		} else {
			err = b.SyncWith(a.Addr())
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if av, bv := read(t, a), read(t, b); av != want || bv != want {
			t.Fatalf("round %d: a=%d b=%d, want %d", round, av, bv, want)
		}
	}
	if st := a.Stats(); st.DeltaSyncs == 0 || st.RedundantCommits != 0 {
		t.Fatalf("criss-cross must sync exactly: %+v", st)
	}
}

// TestDeltaRingGossip replays the third-party-gossip scenario on the
// delta path: history reaches a node indirectly around the ring, the
// store's LCA sees through it, and once the ring has converged a further
// gossip round moves zero commits.
func TestDeltaRingGossip(t *testing.T) {
	eu := newCounterNode(t, "eu", 1)
	us := newCounterNode(t, "us", 2)
	ap := newCounterNode(t, "ap", 3)
	ring := []*counterNode{eu, us, ap}
	inc(t, eu, 1)
	inc(t, us, 10)
	inc(t, ap, 100)
	ringRound := func() {
		t.Helper()
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
	for round := 0; round < 3; round++ {
		ringRound()
	}
	for _, n := range ring {
		if v := peek(t, n); v != 111 {
			t.Fatalf("%s = %d, want 111 (no double counting around the ring)", n.Name(), v)
		}
	}
	// Converged ring: one more full round is span probes, no commits.
	var before [3]peepul.SyncStats
	for i, n := range ring {
		before[i] = n.Stats()
	}
	ringRound()
	var moved int64
	for i, n := range ring {
		moved += n.Stats().CommitsSent - before[i].CommitsSent
	}
	if moved != 0 {
		t.Fatalf("converged ring round shipped %d commits, want 0", moved)
	}
}

// TestDeltaMeshGossip interleaves operations with syncs across every pair
// of a four-node mesh, then checks convergence and that a final sweep
// over all pairs ships zero commits.
func TestDeltaMeshGossip(t *testing.T) {
	const nodes = 4
	var mesh []*counterNode
	var want int64
	for i := 0; i < nodes; i++ {
		mesh = append(mesh, newCounterNode(t, fmt.Sprintf("m%d", i), i+1))
	}
	sweep := func() {
		t.Helper()
		for i := range mesh {
			for j := range mesh {
				if i == j {
					continue
				}
				if err := mesh[i].SyncWith(mesh[j].Addr()); err != nil {
					t.Fatalf("sync m%d -> m%d: %v", i, j, err)
				}
			}
		}
	}
	for round := 0; round < 3; round++ {
		for i, n := range mesh {
			amt := int64(i + 1)
			inc(t, n, amt)
			want += amt
		}
		sweep()
	}
	for i, n := range mesh {
		if v := peek(t, n); v != want {
			t.Fatalf("m%d = %d, want %d", i, v, want)
		}
	}
	var before []peepul.SyncStats
	for _, n := range mesh {
		before = append(before, n.Stats())
	}
	sweep()
	var moved int64
	for i, n := range mesh {
		moved += n.Stats().CommitsSent - before[i].CommitsSent
	}
	if moved != 0 {
		t.Fatalf("converged mesh sweep shipped %d commits, want 0", moved)
	}
}

// TestDeltaShipsOnlyTheGap checks the proportionality claim directly: a
// node that falls k commits behind receives O(k) commits, not the whole
// history.
func TestDeltaShipsOnlyTheGap(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	for i := 0; i < 100; i++ {
		inc(t, a, 1)
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	const gap = 5
	for i := 0; i < gap; i++ {
		inc(t, a, 1)
	}
	before := a.Stats()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	after := a.Stats()
	// a ships its gap commits; b's reply adds at most a couple of merge
	// commits on top.
	if moved := commitsMoved(before, after); moved > gap+3 {
		t.Fatalf("gap of %d commits moved %d, want O(gap)", gap, moved)
	}
	if av, bv := read(t, a), read(t, b); av != bv {
		t.Fatalf("diverged: a=%d b=%d", av, bv)
	}
}

// logNode hosts a mergeable-log object — unlike the 16-byte PN-counter
// state, a growing log is where the pack layer's patches actually beat
// full encodings, so these are the nodes the packed-dialect tests use.
type logNode struct {
	*peepul.Node
	obj *peepul.Handle[mlog.State, mlog.Op, mlog.Val]
}

func newLogNode(t *testing.T, name string, id int) *logNode {
	t.Helper()
	n, err := peepul.NewNode(name, id)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := peepul.Open(
		n, peepul.Datatype[mlog.State, mlog.Op, mlog.Val]{Name: "mlog", Impl: mlog.Log{}, Codec: wire.MLog{}}, "log")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return &logNode{Node: n, obj: obj}
}

func appendLog(t *testing.T, n *logNode, count int, tag string) {
	t.Helper()
	for i := 0; i < count; i++ {
		if _, err := n.obj.Do(mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("%s %s entry %04d", n.Name(), tag, i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func logLen(t *testing.T, n *logNode) int {
	t.Helper()
	s, err := n.obj.State()
	if err != nil {
		t.Fatal(err)
	}
	return len(s)
}

// TestPackedSyncShipsPatches: most of a deep log history crosses the
// wire as binary patches, not full states.
func TestPackedSyncShipsPatches(t *testing.T) {
	a := newLogNode(t, "a", 1)
	b := newLogNode(t, "b", 2)
	appendLog(t, a, 80, "deep")
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if la, lb := logLen(t, a), logLen(t, b); la != 80 || lb != 80 {
		t.Fatalf("log lengths a=%d b=%d, want 80", la, lb)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.DeltaSyncs != 1 {
		t.Fatalf("client stats: %+v", sa)
	}
	// The bulk of 80+ shipped commits must have traveled as patches
	// (the root, and a state whose patch reached a quarter of it, ship
	// full).
	if sa.PatchesSent < int64(sa.CommitsSent)/2 || sa.PatchesSent == 0 {
		t.Fatalf("client shipped %d patches of %d commits", sa.PatchesSent, sa.CommitsSent)
	}
	if sb.PatchesRecv != sa.PatchesSent {
		t.Fatalf("server received %d patches, client sent %d", sb.PatchesRecv, sa.PatchesSent)
	}
	// And the packed transfer must be far smaller than the full states of
	// the same history, the yardstick: what its states pin unpacked.
	full := a.obj.Store().PackStats().FullBytes
	if packed := sa.BytesSent; packed*2 > full {
		t.Fatalf("packed deep sync sent %d bytes, the full states are %d — expected at least 2x win", packed, full)
	}
}
