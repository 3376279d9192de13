package replica_test

// Tests for the range-fingerprint reconciliation dialect: the O(1)
// converged re-sync it promises, the exactness of its diffs (zero
// redundant commits), the per-object counters it adds, and every rung of
// the downgrade ladder down to the legacy one-shot protocol.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/counter"
	"repro/internal/faultnet"
	"repro/internal/recon"
	"repro/internal/replica"
	"repro/internal/wire"
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
	resyncBytes := func(history int, idBase int) int64 {
		a := newCounterNode(t, fmt.Sprintf("a%d", history), idBase)
		b := newCounterNode(t, fmt.Sprintf("b%d", history), idBase+1)
		for i := 0; i < history; i++ {
			if i%2 == 0 {
				inc(t, a, 1)
			} else {
				inc(t, b, 1)
			}
		}
		convergePair(t, a, b)
		before := a.Stats()
		if err := a.SyncWith(b.Addr()); err != nil {
			t.Fatal(err)
		}
		after := a.Stats()
		if moved := commitsMoved(before, after); moved != 0 {
			t.Fatalf("history %d: converged re-sync moved %d commits, want 0", history, moved)
		}
		if after.RedundantCommits != before.RedundantCommits {
			t.Fatalf("history %d: converged re-sync re-shipped %d commits",
				history, after.RedundantCommits-before.RedundantCommits)
		}
		// The whole re-sync is one span probe and one match frame.
		if probes := after.RangesSent - before.RangesSent; probes != 1 {
			t.Fatalf("history %d: converged re-sync sent %d probes, want exactly 1", history, probes)
		}
		return bytesMoved(before, after)
	}
	at100 := resyncBytes(100, 1)
	at10k := resyncBytes(10_000, 3)
	// O(1): a hard small-constant ceiling at both depths (two frames of
	// ~50 bytes plus framing), and flat across two orders of magnitude.
	const ceiling = 512
	if at100 > ceiling || at10k > ceiling {
		t.Fatalf("converged re-sync cost %d bytes at 10², %d at 10⁴; want ≤ %d", at100, at10k, ceiling)
	}
	if at10k != at100 {
		t.Fatalf("converged re-sync cost must be flat in depth: %d bytes at 10², %d at 10⁴", at100, at10k)
	}
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

// firstFrames taps a faultnet and parses the first frame each direction
// carried: what the dialing node sent, then what the other answered.
type firstFrames struct {
	mu      sync.Mutex
	streams map[[2]string]*bytes.Buffer
}

func (f *firstFrames) tap(from, to string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := [2]string{from, to}
	if f.streams[key] == nil {
		f.streams[key] = &bytes.Buffer{}
	}
	f.streams[key].Write(data)
}

func (f *firstFrames) first(t *testing.T, from, to string) (wire.FrameKind, [][]byte) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	buf := f.streams[[2]string{from, to}]
	if buf == nil {
		t.Fatalf("nothing flowed %s → %s", from, to)
	}
	kind, fields, err := wire.ReadMsg(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return kind, fields
}

// TestReconDisabledPeerDowngrade: a recon client meeting a server with
// the dialect switched off converges over the patch dialect on the same
// connection — the server ignores the root probe the hello carries, and
// the ack simply does not echo the capability.
func TestReconDisabledPeerDowngrade(t *testing.T) {
	frames := &firstFrames{streams: make(map[[2]string]*bytes.Buffer)}
	fn := faultnet.New(1, faultnet.WithTap(frames.tap))
	a := newObsCounterNode(t, "a", 1, replica.WithTransport(fn.Transport("a")))
	b := newObsCounterNode(t, "b", 2, replica.WithTransport(fn.Transport("b")))
	b.SetReconEnabled(false)
	inc(t, a, 2)
	inc(t, b, 5)
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if av, bv := peek(t, a), peek(t, b); av != 7 || bv != 7 {
		t.Fatalf("a=%d b=%d, want 7", av, bv)
	}
	kind, fields := frames.first(t, "a", "b")
	if kind != wire.FrameHello || len(fields) != 3 {
		t.Fatalf("client opened with kind %d and %d fields, want a hello carrying its root probe", kind, len(fields))
	}
	if rr, err := wire.DecodeReconRange(fields[2]); err != nil || rr.X != (recon.Item{}) || rr.Y != (recon.Item{}) {
		t.Fatalf("third hello field is not the whole-keyspace probe: %+v, %v", rr, err)
	}
	kind, fields = frames.first(t, "b", "a")
	if kind != wire.FrameHelloAck || len(fields) != 2 {
		t.Fatalf("recon-off server acked with kind %d and %d fields, want a two-field ack", kind, len(fields))
	}
	if caps, err := wire.DecodeCaps(fields[1]); err != nil || caps&wire.CapRecon != 0 {
		t.Fatalf("recon-off server echoed caps %b (%v)", caps, err)
	}
	sa := a.Stats()
	if sa.DeltaSyncs != 1 || sa.Fallbacks != 0 || sa.FullSyncs != 0 {
		t.Fatalf("downgrade must stay a delta sync: %+v", sa)
	}
	if sa.RangesSent != 0 {
		t.Fatalf("no probes may flow to a recon-disabled peer: %+v", sa)
	}
	// And the reverse: a recon-disabled client never advertises the
	// capability, so a recon-capable server stays on the patch dialect.
	c := newCounterNode(t, "c", 3)
	d := newCounterNode(t, "d", 4)
	c.SetReconEnabled(false)
	inc(t, c, 1)
	inc(t, d, 2)
	if err := c.SyncWith(d.Addr()); err != nil {
		t.Fatal(err)
	}
	if sd := d.Stats(); sd.RangesRecv != 0 {
		t.Fatalf("recon-disabled client still triggered %d probes", sd.RangesRecv)
	}
	if sc := c.Stats(); sc.DeltaSyncs != 1 || sc.Fallbacks != 0 {
		t.Fatalf("patch dialect must complete: %+v", sc)
	}
}

// TestReconStaleMemoSpanRefused: a peer that spoke recon once and was
// then switched off refuses the next round's span probe; the client
// clears its memo, retries the session without the span, and the pair
// still converges on the patch dialect.
func TestReconStaleMemoSpanRefused(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	inc(t, a, 1)
	inc(t, b, 2)
	if err := a.SyncWith(b.Addr()); err != nil { // memorizes b as recon-capable
		t.Fatal(err)
	}
	b.SetReconEnabled(false)
	inc(t, a, 4)
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if av, bv := peek(t, a), peek(t, b); av != 7 || bv != 7 {
		t.Fatalf("a=%d b=%d, want 7 after the stale-memo round", av, bv)
	}
	if sa := a.Stats(); sa.Fallbacks != 0 || sa.FullSyncs != 0 {
		t.Fatalf("span refusal must not cascade past the delta dialects: %+v", sa)
	}
	// The memo is gone: the following round opens without a span probe
	// and completes directly on the patch dialect.
	inc(t, a, 1)
	before := a.Stats()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if after := a.Stats(); after.RangesSent != before.RangesSent {
		t.Fatalf("cleared memo must suppress span probes: %d -> %d", before.RangesSent, after.RangesSent)
	}
}

// TestReconLadderToPlainV2 runs the recon client against the strict
// pre-capability v2 server: the capability hello is refused outright and
// the client lands on the plain delta dialect, not v1.
func TestReconLadderToPlainV2(t *testing.T) {
	addr, st := plainV2Server(t)
	if _, err := st.Apply("v2", counter.Op{Kind: counter.Inc, N: 5}); err != nil {
		t.Fatal(err)
	}
	a := newCounterNode(t, "a", 1)
	inc(t, a, 2)
	if err := a.SyncWith(addr); err != nil {
		t.Fatal(err)
	}
	sa := a.Stats()
	if sa.DeltaSyncs != 1 || sa.FullSyncs != 0 || sa.Fallbacks != 0 {
		t.Fatalf("plain-v2 downgrade stats: %+v", sa)
	}
	if sa.RangesSent != 0 || sa.PatchesSent != 0 {
		t.Fatalf("plain dialect carries neither probes nor patches: %+v", sa)
	}
	if v := read(t, a); v != 7 {
		t.Fatalf("a = %d, want 7", v)
	}
}

// TestReconLadderToLegacyV1 runs the recon client all the way down the
// ladder to the one-shot v1 protocol.
func TestReconLadderToLegacyV1(t *testing.T) {
	addr, legacy := legacyV1Server(t)
	if _, err := legacy.Apply("legacy", counter.Op{Kind: counter.Inc, N: 5}); err != nil {
		t.Fatal(err)
	}
	a := newCounterNode(t, "a", 1)
	inc(t, a, 2)
	if err := a.SyncWith(addr); err != nil {
		t.Fatal(err)
	}
	sa := a.Stats()
	if sa.Fallbacks != 1 || sa.FullSyncs != 1 || sa.DeltaSyncs != 0 {
		t.Fatalf("v1 fallback stats: %+v", sa)
	}
	if v := read(t, a); v != 7 {
		t.Fatalf("a = %d, want 7", v)
	}
}

// TestReconMultiObjectSpan: a converged multi-object pair re-syncs on a
// single span probe — one probe for the whole node, not one per object —
// and per-object counters still tick.
func TestReconMultiObjectSpan(t *testing.T) {
	a, err := replica.NewNode("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replica.NewNode("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	var objs []*replica.TypedObject[counter.PNState, counter.Op, counter.Val]
	for _, n := range []*replica.Node{a, b} {
		for _, name := range []string{"x", "y", "z"} {
			o, err := replica.Ensure[counter.PNState, counter.Op, counter.Val](
				n, name, "pn-counter", counter.PNCounter{}, wire.PNCounter{})
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
