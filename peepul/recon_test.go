package peepul_test

// Tests for range-fingerprint reconciliation: the O(1) converged re-sync
// it promises, the exactness of its diffs (zero redundant commits), the
// per-object counters it adds, and the first-contact rule for the span
// probe.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/counter"
	"repro/internal/faultnet"
	"repro/internal/recon"
	"repro/internal/wire"
	"repro/peepul"
)

// convergePair drives two syncs so both nodes hold equal sets and equal
// heads (the first sync merges, the second ships the merge back).
func convergePair(t *testing.T, a, b *counterNode) {
	t.Helper()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if av, bv := peek(t, a), peek(t, b); av != bv {
		t.Fatalf("pair failed to converge: a=%d b=%d", av, bv)
	}
}

// TestReconConvergedResyncO1 is the acceptance core of the dialect: a
// converged pair's re-sync costs O(1) frames and zero commits, and the
// cost is flat in history depth — the same bound at 10² and at 10⁴
// commits, where a sampled frontier would still ship its whole sample.
func TestReconConvergedResyncO1(t *testing.T) {
	checkConvergedResyncFlat(t, 2, 1)
}

// TestReconRingResyncO1 holds a 3-node ring, each node syncing its
// successor, to the same bound per session: its history reached every
// node through third parties, and a converged round still ships no
// commits and costs the same bytes at 10² and at 10⁴ commits.
func TestReconRingResyncO1(t *testing.T) {
	checkConvergedResyncFlat(t, 3, 3)
}

// checkConvergedResyncFlat builds converged fleets of nodes holding 10²
// and 10⁴ commits and requires one more round of sessions, node i
// syncing node i+1, to move zero commits with one probe per session and
// the same small number of bytes at both depths.
func checkConvergedResyncFlat(t *testing.T, nodes, sessions int) {
	t.Helper()
	at100 := convergedResyncBytes(t, nodes, sessions, 100, 1)
	at10k := convergedResyncBytes(t, nodes, sessions, 10_000, 1+nodes)
	// O(1): a hard small-constant ceiling per session at both depths
	// (two frames of ~50 bytes plus framing), and flat across two
	// orders of magnitude.
	ceiling := int64(512 * sessions)
	if at100 > ceiling || at10k > ceiling {
		t.Fatalf("%d nodes: converged re-sync cost %d bytes at 10², %d at 10⁴; want ≤ %d", nodes, at100, at10k, ceiling)
	}
	if at10k != at100 {
		t.Fatalf("%d nodes: converged re-sync cost must be flat in depth: %d bytes at 10², %d at 10⁴", nodes, at100, at10k)
	}
}

// convergedResyncBytes builds a converged fleet holding history commits
// and returns the client bytes of one more round of sessions, node i
// syncing node i+1.
func convergedResyncBytes(t *testing.T, nodes, sessions, history, idBase int) int64 {
	t.Helper()
	fleet := make([]*counterNode, nodes)
	for i := range fleet {
		fleet[i] = newCounterNode(t, fmt.Sprintf("n%d-%d-%d", nodes, history, i), idBase+i)
	}
	for i := 0; i < history; i++ {
		inc(t, fleet[i%nodes], 1)
	}
	round := func(check bool) int64 {
		var bytes int64
		for i := 0; i < sessions; i++ {
			client, server := fleet[i], fleet[(i+1)%nodes]
			before := client.Stats()
			if err := client.SyncWith(server.Addr()); err != nil {
				t.Fatal(err)
			}
			after := client.Stats()
			bytes += bytesMoved(before, after)
			if !check {
				continue
			}
			if moved := commitsMoved(before, after); moved != 0 {
				t.Fatalf("%d nodes, history %d: converged re-sync moved %d commits, want 0", nodes, history, moved)
			}
			if after.RedundantCommits != before.RedundantCommits {
				t.Fatalf("%d nodes, history %d: converged re-sync re-shipped %d commits",
					nodes, history, after.RedundantCommits-before.RedundantCommits)
			}
			// The whole re-sync is one span probe and one match frame.
			if probes := after.RangesSent - before.RangesSent; probes != 1 {
				t.Fatalf("%d nodes, history %d: converged re-sync sent %d probes, want exactly 1", nodes, history, probes)
			}
		}
		return bytes
	}
	// The first round merges, the second ships the merges on.
	round(false)
	round(false)
	for _, n := range fleet[1:] {
		if v, want := peek(t, n), peek(t, fleet[0]); v != want {
			t.Fatalf("%d nodes, history %d: fleet failed to converge: %d vs %d", nodes, history, v, want)
		}
	}
	return round(true)
}

// TestReconExactDiffNoRedundant pins the dialect's contract on deep
// divergence: after a long shared prefix, two sides that each diverge by
// d commits exchange exactly their diffs — no commit crosses the wire
// that the receiver already held.
func TestReconExactDiffNoRedundant(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	for i := 0; i < 200; i++ {
		inc(t, a, 1)
	}
	convergePair(t, a, b)
	const gap = 40
	for i := 0; i < gap; i++ {
		inc(t, a, 1)
		inc(t, b, 1)
	}
	before := a.Stats()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	after := a.Stats()
	sb := b.Stats()
	if after.RedundantCommits != before.RedundantCommits || sb.RedundantCommits != 0 {
		t.Fatalf("exact negotiation re-shipped commits: client %d, server %d",
			after.RedundantCommits-before.RedundantCommits, sb.RedundantCommits)
	}
	// Each side ships its gap; the merge adds a couple of minted commits.
	if moved := commitsMoved(before, after); moved > 2*gap+3 {
		t.Fatalf("diff of 2×%d commits moved %d, want the exact diff", gap, moved)
	}
	if av, bv := peek(t, a), read(t, b); av != bv {
		t.Fatalf("diverged after sync: a=%d b=%d", av, bv)
	}
}

// TestReconStatsPerObject pins the new SyncStats fields end to end: the
// probe counters tick on the right role and the right object, and both
// the node aggregate and the per-object snapshot carry them.
func TestReconStatsPerObject(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	for i := 0; i < 50; i++ {
		inc(t, a, 1)
		inc(t, b, 1)
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	ca, cb := a.ObjectStats("counter"), b.ObjectStats("counter")
	if ca.RangesSent == 0 {
		t.Fatalf("client object stats must count probes sent: %+v", ca)
	}
	if ca.RangesRecv != 0 {
		t.Fatalf("client answered no probes, counted %d", ca.RangesRecv)
	}
	if cb.RangesRecv != ca.RangesSent {
		t.Fatalf("server answered %d probes, client sent %d", cb.RangesRecv, ca.RangesSent)
	}
	if cb.RangesSent != 0 {
		t.Fatalf("server sent no probes, counted %d", cb.RangesSent)
	}
	if na := a.Stats(); na.RangesSent != ca.RangesSent {
		t.Fatalf("node aggregate %d probes, object %d", na.RangesSent, ca.RangesSent)
	}
	if ca.RedundantCommits != 0 || cb.RedundantCommits != 0 {
		t.Fatalf("redundant commits on an exact exchange: client %d, server %d",
			ca.RedundantCommits, cb.RedundantCommits)
	}
	if ca.DeltaSyncs != 1 || cb.DeltaSyncs != 1 {
		t.Fatalf("one recon exchange counts one delta sync per role: client %+v server %+v", ca, cb)
	}
}

// frameTap taps a faultnet and parses the frames each direction carried.
type frameTap struct {
	mu      sync.Mutex
	streams map[[2]string]*bytes.Buffer
}

func newFrameTap() *frameTap {
	return &frameTap{streams: make(map[[2]string]*bytes.Buffer)}
}

func (f *frameTap) tap(from, to string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := [2]string{from, to}
	if f.streams[key] == nil {
		f.streams[key] = &bytes.Buffer{}
	}
	f.streams[key].Write(data)
}

type tappedFrame struct {
	kind   wire.FrameKind
	fields [][]byte
}

// frames parses everything that flowed from → to so far, oldest first.
func (f *frameTap) frames(t *testing.T, from, to string) []tappedFrame {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	buf := f.streams[[2]string{from, to}]
	if buf == nil {
		t.Fatalf("nothing flowed %s → %s", from, to)
	}
	var out []tappedFrame
	r := bytes.NewReader(buf.Bytes())
	for r.Len() > 0 {
		kind, fields, err := wire.ReadMsg(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tappedFrame{kind, fields})
	}
	return out
}

// spanProbes counts the span probes among frames.
func spanProbes(frames []tappedFrame) int {
	n := 0
	for _, fr := range frames {
		if fr.kind == wire.FrameReconSpan {
			n++
		}
	}
	return n
}

// TestFirstContactSkipsSpan: the first session to an address opens
// straight with the hello — against a peer this node has never synced
// with, a span probe could only report a difference — and the hello
// carries the head alone, no have-list. Once the peer has acked a hello,
// the next session opens with exactly one span probe.
func TestFirstContactSkipsSpan(t *testing.T) {
	frames := newFrameTap()
	fn := faultnet.New(1, faultnet.WithTap(frames.tap))
	a := newObsCounterNode(t, "a", 1, peepul.WithTransport(fn.Transport("a")))
	b := newObsCounterNode(t, "b", 2, peepul.WithTransport(fn.Transport("b")))
	inc(t, a, 2)
	inc(t, b, 5)
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	first := frames.frames(t, "a", "b")
	if n := spanProbes(first); n != 0 {
		t.Fatalf("first contact sent %d span probes, want 0", n)
	}
	hello := first[0]
	if hello.kind != wire.FrameHello || len(hello.fields) != 2 {
		t.Fatalf("first contact opened with kind %d and %d fields, want a hello and its root probe", hello.kind, len(hello.fields))
	}
	h, err := wire.DecodeHello(hello.fields[0])
	if err != nil {
		t.Fatal(err)
	}
	if bare := wire.EncodeHello(wire.Hello{Node: h.Node, Object: h.Object, Datatype: h.Datatype}); len(hello.fields[0]) != len(bare) {
		t.Fatalf("hello payload of %d bytes, want %d: the names and the head, no have-list", len(hello.fields[0]), len(bare))
	}
	if rr, err := wire.DecodeReconRange(hello.fields[1]); err != nil || rr.X != (recon.Item{}) || rr.Y != (recon.Item{}) {
		t.Fatalf("second hello field is not the whole-keyspace probe: %+v, %v", rr, err)
	}

	inc(t, a, 1)
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if n := spanProbes(frames.frames(t, "a", "b")[len(first):]); n != 1 {
		t.Fatalf("second session sent %d span probes, want 1", n)
	}
	if av, bv := peek(t, a), peek(t, b); av != 8 || bv != 8 {
		t.Fatalf("a=%d b=%d, want 8", av, bv)
	}
}

// TestReconMultiObjectSpan: a converged multi-object pair re-syncs on a
// single span probe — one probe for the whole node, not one per object —
// and per-object counters still tick.
func TestReconMultiObjectSpan(t *testing.T) {
	a, err := peepul.NewNode("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := peepul.NewNode("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	var objs []*peepul.Handle[counter.PNState, counter.Op, counter.Val]
	for _, n := range []*peepul.Node{a, b} {
		for _, name := range []string{"x", "y", "z"} {
			o, err := peepul.Open(n, peepul.PNCounter, name)
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, o)
		}
	}
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[:3] { // a's objects
		if _, err := o.Do(counter.Op{Kind: counter.Inc, N: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	before := a.Stats()
	beforeX := a.ObjectStats("x")
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	after := a.Stats()
	if probes := after.RangesSent - before.RangesSent; probes != 1 {
		t.Fatalf("converged 3-object re-sync sent %d probes, want 1 span", probes)
	}
	if moved := commitsMoved(before, after); moved != 0 {
		t.Fatalf("converged re-sync moved %d commits", moved)
	}
	if ax := a.ObjectStats("x"); ax.DeltaSyncs != beforeX.DeltaSyncs+1 {
		t.Fatalf("span match must count one exchange per object: %d -> %d",
			beforeX.DeltaSyncs, ax.DeltaSyncs)
	}
}
