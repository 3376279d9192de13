package peepul_test

// Link tests: the mesh daemon's long-lived outbound connections. Each
// commit crosses each directed link at most once (counted through a
// faultnet tap), a cut link reconnects and its connect session repairs
// the gap, an idle link outlives the idle deadline on heartbeats,
// RemovePeer closes the link for good, a batch that does not graft is a
// violation, and the stream skips objects the peer does not host.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/faultnet"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/peepul"
)

// quietMesh keeps anti-entropy rounds out of a test: only links carry
// news.
func quietMesh() peepul.NodeOption { return peepul.WithMeshInterval(time.Hour) }

// waitLinks polls until every node's link to each of its peers is up.
func waitLinks(t *testing.T, nodes ...*counterNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range nodes {
		for _, addr := range n.Peers() {
			for {
				st, ok := n.PeerMeshStats(addr)
				if ok && st.LinkUp {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: link to %s never came up: %+v", n.Name(), addr, st)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
}

// reset forgets everything tapped so far.
func (f *frameTap) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.streams = make(map[[2]string]*bytes.Buffer)
}

// linkCommits parses the stream of one directed link — link batches and
// heartbeats, nothing else — into the keys of the commits it carried,
// and the keys of the op commits among them. A key is the commit's
// object, parents, generation and timestamp: the inputs of its hash bar
// the state. Op timestamps are unique per object (Ψ_ts) and a merge's
// parents are distinct from any other merge's, so equal keys are the
// same commit.
func (f *frameTap) linkCommits(t *testing.T, from, to string) (keys, ops []string) {
	t.Helper()
	f.mu.Lock()
	var data []byte
	if buf := f.streams[[2]string{from, to}]; buf != nil {
		data = bytes.Clone(buf.Bytes())
	}
	f.mu.Unlock()
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		kind, fields, err := wire.ReadMsg(r)
		if err != nil {
			t.Fatalf("%s→%s: %v", from, to, err)
		}
		if kind != wire.FrameLinkBatch {
			t.Fatalf("%s→%s carried a frame of kind %d; only links may talk", from, to, kind)
		}
		if len(fields) == 0 {
			continue // heartbeat
		}
		hello, err := wire.DecodeHello(fields[0])
		if err != nil {
			t.Fatal(err)
		}
		commits, head, err := wire.ReadDelta(r)
		if err != nil || store.HeadSetHash(head) != hello.Head {
			t.Fatalf("%s→%s: batch delta: %v (head %v, hello head %v)", from, to, err, head, hello.Head)
		}
		for _, c := range commits {
			k := fmt.Sprintf("%s %x %d %d", hello.Object, c.Parents, c.Gen, c.Time)
			keys = append(keys, k)
			if len(c.Parents) == 1 {
				ops = append(ops, k)
			}
		}
	}
	return keys, ops
}

// TestLinkCarriesEachCommitOnce: with writers on every node and no
// rounds, every commit crosses each directed link at most once, the
// fleet reaches one head with clean packs, and on a line — where no op
// commit has two routes to a node — no op arrives twice. (A merge can:
// both ends of the line mint the same canonical merge when they write
// after seeing the same heads, and both stream it to the middle.)
func TestLinkCarriesEachCommitOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges [][2]int
	}{
		{"line", [][2]int{{0, 1}, {1, 2}}},
		{"triangle", [][2]int{{0, 1}, {1, 2}, {0, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tap := newFrameTap()
			fn := faultnet.New(7, faultnet.WithTap(tap.tap))
			fn.SetDefaultLink(faultnet.Link{Latency: time.Millisecond})
			names := []string{"a", "b", "c"}
			nodes := make([]*counterNode, len(names))
			for i, name := range names {
				nodes[i] = newMeshCounterNode(t, name, i+1, peepul.WithTransport(fn.Transport(name)), quietMesh())
			}
			for _, e := range tc.edges {
				nodes[e[0]].AddPeer(nodes[e[1]].Addr())
				nodes[e[1]].AddPeer(nodes[e[0]].Addr())
			}
			waitLinks(t, nodes...)
			tap.reset()

			const perNode = 20
			var wg sync.WaitGroup
			for _, n := range nodes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perNode; i++ {
						if _, err := n.obj.Do(counter.Op{Kind: counter.Inc, N: 1}); err != nil {
							t.Error(err)
							return
						}
						time.Sleep(time.Millisecond)
					}
				}()
			}
			wg.Wait()
			waitConverged(t, perNode*int64(len(nodes)), 10*time.Second, nodes...)
			for _, n := range nodes {
				if err := n.obj.Store().VerifyPack(); err != nil {
					t.Fatalf("%s: %v", n.Name(), err)
				}
			}

			opsAt := make(map[string]map[string]bool)
			for _, e := range tc.edges {
				for _, dir := range [][2]int{{e[0], e[1]}, {e[1], e[0]}} {
					from, to := names[dir[0]], names[dir[1]]
					seen := make(map[string]bool)
					keys, ops := tap.linkCommits(t, from, to)
					for _, k := range keys {
						if seen[k] {
							t.Fatalf("commit %s crossed %s→%s twice", k, from, to)
						}
						seen[k] = true
					}
					if opsAt[to] == nil {
						opsAt[to] = make(map[string]bool)
					}
					for _, k := range ops {
						if opsAt[to][k] && tc.name == "line" {
							t.Fatalf("%s received op %s twice", to, k)
						}
						opsAt[to][k] = true
					}
				}
			}
		})
	}
}

// TestLinkReconnectRepairs: a link cut mid-stream fails, reconnects once
// the path heals, and its connect session ships what the dead stream
// dropped and what was written while it was down — no acknowledged op
// is lost.
func TestLinkReconnectRepairs(t *testing.T) {
	fn := faultnet.New(3)
	a := newMeshCounterNode(t, "a", 1, peepul.WithTransport(fn.Transport("a")), quietMesh())
	b := newMeshCounterNode(t, "b", 2, peepul.WithTransport(fn.Transport("b")), quietMesh())
	a.AddPeer(b.Addr())
	waitLinks(t, a)

	var acked int64
	write := func(n int) {
		for i := 0; i < n; i++ {
			inc(t, a, 1)
			acked++
			time.Sleep(time.Millisecond)
		}
	}
	write(10)
	waitValue(t, acked, 5*time.Second, b)

	fn.Block("a", "b")
	write(10)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := a.PeerMeshStats(b.Addr())
		if !st.LinkUp && st.Failures > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the cut never took the link down: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	write(10)
	fn.Unblock("a", "b")

	waitValue(t, acked, 10*time.Second, a, b)
	waitLinks(t, a)
	if st, _ := a.PeerMeshStats(b.Addr()); st.ConsecutiveFailures != 0 || st.Rounds < 2 {
		t.Fatalf("link did not recover through a fresh connect session: %+v", st)
	}
}

// dialCounter is TCP that counts its dials.
type dialCounter struct {
	peepul.TCPTransport
	dials *atomic.Int64
}

func (d dialCounter) Dial(ctx context.Context, addr string) (net.Conn, error) {
	d.dials.Add(1)
	return d.TCPTransport.Dial(ctx, addr)
}

// TestIdleLinkOutlivesIdleTimeout: a link idle for several idle
// deadlines stays up on heartbeats, and the next commit streams over it
// with no new dial.
func TestIdleLinkOutlivesIdleTimeout(t *testing.T) {
	var dials atomic.Int64
	idle := peepul.WithSyncTimeout(200 * time.Millisecond)
	a := newMeshCounterNode(t, "a", 1, idle, quietMesh(), peepul.WithTransport(dialCounter{dials: &dials}))
	b := newMeshCounterNode(t, "b", 2, idle, quietMesh())
	a.AddPeer(b.Addr())
	waitLinks(t, a)
	before := dials.Load()

	time.Sleep(time.Second)
	inc(t, a, 3)
	waitValue(t, 3, 5*time.Second, b)
	if n := dials.Load() - before; n != 0 {
		t.Fatalf("an idle link cost %d new dials", n)
	}
	if st, _ := a.PeerMeshStats(b.Addr()); !st.LinkUp || st.Failures != 0 {
		t.Fatalf("idle link did not survive: %+v", st)
	}
}

// TestRemovePeerClosesLink: once RemovePeer returns the link is gone —
// the peer receives nothing more, and no goroutine on either side
// outlives it.
func TestRemovePeerClosesLink(t *testing.T) {
	a := newMeshCounterNode(t, "a", 1, quietMesh())
	b := newMeshCounterNode(t, "b", 2, quietMesh())
	baseline := runtime.NumGoroutine()
	a.AddPeer(b.Addr())
	waitLinks(t, a)
	inc(t, a, 1)
	waitValue(t, 1, 5*time.Second, b)

	a.RemovePeer(b.Addr())
	recv := b.Stats().BytesRecv
	inc(t, a, 5)
	time.Sleep(100 * time.Millisecond)
	if v := value(t, b); v != 1 {
		t.Fatalf("removed peer still received commits: counter %d", v)
	}
	if got := b.Stats().BytesRecv; got != recv {
		t.Fatalf("removed peer received %d more bytes", got-recv)
	}
	waitGoroutines(t, baseline)
}

// TestLinkBatchThatDoesNotGraftIsAViolation: a heartbeat is accepted in
// silence, but a batch whose commit names a parent the server lacks is
// refused, ends the connection, and counts one server violation.
func TestLinkBatchThatDoesNotGraftIsAViolation(t *testing.T) {
	srv := newObsCounterNode(t, "srv", 1, peepul.WithObservability())
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))

	head := store.Hash{9}
	dangling := store.ExportedCommit{Parents: []store.Hash{{7}}, State: []byte{0}, Gen: 2, Time: 5}
	var turn bytes.Buffer
	wire.WriteMsg(&turn, wire.FrameLinkBatch)
	wire.WriteMsg(&turn, wire.FrameLinkBatch, wire.EncodeHello(wire.Hello{Node: "raw", Object: "counter", Datatype: "pn-counter", Head: head}))
	wire.WriteDeltaPacked(&turn, []store.ExportedCommit{dangling}, []store.Hash{head})
	if _, err := c.Write(turn.Bytes()); err != nil {
		t.Fatal(err)
	}
	kind, fields, err := wire.ReadMsg(c)
	if err != nil || kind != wire.FrameErr || len(fields) != 1 || !strings.Contains(string(fields[0]), "unknown parent") {
		t.Fatalf("got kind %d %q (%v), want a refusal naming the unknown parent", kind, fields, err)
	}
	if _, _, err := wire.ReadMsg(c); err != io.EOF {
		t.Fatalf("after the refusal: %v, want the server to hang up", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := serverSessions(srv)
		if got["violation"] == 1 && got["ok"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server session outcomes %v, want one violation", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUninterestedObjectsSkipPushes: an object the connect session found
// the peer not hosting streams nothing, and commits to it do not
// disturb the link.
func TestUninterestedObjectsSkipPushes(t *testing.T) {
	a := newMeshCounterNode(t, "a", 1, quietMesh())
	x, err := peepul.Open(a.Node, peepul.PNCounter, "x")
	if err != nil {
		t.Fatal(err)
	}
	b := newMeshCounterNode(t, "b", 2, quietMesh())
	a.AddPeer(b.Addr())
	waitLinks(t, a)

	for i := 0; i < 5; i++ {
		if _, err := x.Do(counter.Op{Kind: counter.Inc, N: 1}); err != nil {
			t.Fatal(err)
		}
		inc(t, a, 1)
	}
	waitValue(t, 5, 5*time.Second, b)
	if s := a.ObjectStats("x"); s.CommitsSent != 0 {
		t.Fatalf("streamed %d commits of an object the peer does not host", s.CommitsSent)
	}
	if s := a.ObjectStats("counter"); s.CommitsSent == 0 {
		t.Fatal("the hosted object streamed nothing")
	}
	if st, _ := a.PeerMeshStats(b.Addr()); !st.LinkUp || st.Rounds != 1 {
		t.Fatalf("the link reconnected over an uninterested object: %+v", st)
	}
}

// TestMeshPeerStatsCountCommits: a daemon exchange that moves commits
// both ways shows them in the peer's mesh stats and in the client
// session's span.
func TestMeshPeerStatsCountCommits(t *testing.T) {
	a := newMeshCounterNode(t, "a", 1, peepul.WithObservability(), quietMesh())
	b := newMeshCounterNode(t, "b", 2)
	inc(t, a, 4)
	inc(t, b, 3)
	a.AddPeer(b.Addr())
	waitValue(t, 7, 5*time.Second, a, b)
	waitLinks(t, a)

	if st, _ := a.PeerMeshStats(b.Addr()); st.CommitsSent == 0 || st.CommitsRecv == 0 {
		t.Fatalf("peer stats count no commits: sent %d, received %d", st.CommitsSent, st.CommitsRecv)
	}
	for _, sp := range a.DebugSnapshot().Spans {
		if sp.Role == "client" && sp.CommitsSent > 0 && sp.CommitsRecv > 0 {
			return
		}
	}
	t.Fatalf("no client span counts the connect session's commits: %+v", a.DebugSnapshot().Spans)
}
