package peepul_test

// Daemon integration tests: real nodes, real TCP, the sync daemon
// driving the same sync path SyncWith uses. Cadences are tightened so
// convergence lands in tens of milliseconds; waits are generous so
// loaded CI machines do not flake.

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/recon"
	"repro/internal/store"
	"repro/peepul"
)

// meshOpts is the tight daemon cadence the integration tests run at.
func meshOpts() []peepul.NodeOption {
	return []peepul.NodeOption{
		peepul.WithMeshInterval(25 * time.Millisecond),
		peepul.WithMeshJitter(5 * time.Millisecond),
		peepul.WithMeshBackoff(10*time.Millisecond, 100*time.Millisecond),
	}
}

// newMeshCounterNode builds a listening counter node with daemon-tuned
// options (plus any extra), without configuring peers yet.
func newMeshCounterNode(t *testing.T, name string, id int, extra ...peepul.NodeOption) *counterNode {
	t.Helper()
	n, err := peepul.NewNode(name, id, append(meshOpts(), extra...)...)
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

// value reads the counter without committing (Do(Read) would commit and
// kick the daemon, perturbing what the test observes).
func value(t *testing.T, n *counterNode) int64 {
	t.Helper()
	s, err := n.obj.State()
	if err != nil {
		t.Fatal(err)
	}
	return s.P - s.N
}

// waitValue polls until every node's counter reads want.
func waitValue(t *testing.T, want int64, timeout time.Duration, nodes ...*counterNode) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, n := range nodes {
			if value(t, n) != want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range nodes {
		t.Logf("node %s: counter = %d, want %d", n.Name(), value(t, n), want)
	}
	t.Fatalf("nodes did not converge to %d within %v", want, timeout)
}

// TestDaemonConvergesWithoutSyncWith: two nodes peered through the
// daemon converge after commits on both sides, with zero application
// SyncWith calls.
func TestDaemonConvergesWithoutSyncWith(t *testing.T) {
	a := newMeshCounterNode(t, "a", 1)
	b := newMeshCounterNode(t, "b", 2)
	a.AddPeer(b.Addr())
	b.AddPeer(a.Addr())

	inc(t, a, 10)
	inc(t, b, 5)
	waitValue(t, 15, 10*time.Second, a, b)

	// The values can converge through b's sessions alone, a moment before
	// a's own supervisor finishes its first exchange with b: wait for it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, ok := a.PeerMeshStats(b.Addr())
		if !ok {
			t.Fatal("no mesh stats for b")
		}
		if st.Rounds+st.Pushes > 0 && !st.LastConverged.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a completed no converged exchange with b: %+v", st)
		}
	}
}

// TestDaemonRetriesUnreachablePeer: a peer that is down when configured
// is retried with backoff, and the pair converges once it comes up at
// the same address.
func TestDaemonRetriesUnreachablePeer(t *testing.T) {
	// Reserve an address, then free it: the daemon dials a dead port
	// until the peer is brought up on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	a := newMeshCounterNode(t, "a", 1)
	a.AddPeer(addr)
	inc(t, a, 7)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok := a.PeerMeshStats(addr)
		if ok && st.Failures >= 2 {
			if st.Backoff <= 0 {
				t.Fatalf("failing peer has no backoff: %+v", st)
			}
			if st.Score >= 1 {
				t.Fatalf("failing peer score not degraded: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recorded failures for the dead peer: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Bring the peer up on the reserved address; backoff retries find it.
	b, err := peepul.NewNode("b", 2, meshOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	bobj, err := peepul.Open(b, peepul.PNCounter, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	bn := &counterNode{Node: b, obj: bobj}

	waitValue(t, 7, 10*time.Second, bn)
	// b applies the pushed commits before a's round returns and records
	// its outcome, so the reset can trail the value by a moment.
	deadline = time.Now().Add(5 * time.Second)
	for {
		st, _ := a.PeerMeshStats(addr)
		if st.ConsecutiveFailures == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered peer still failing: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDownPeerNeverWedgesClose: a node whose only peer stays down
// closes promptly — the daemon's drain cancels any in-flight dial.
func TestDownPeerNeverWedgesClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	n, err := peepul.NewNode("a", 1, append(meshOpts(), peepul.WithPeers(addr))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peepul.Open(n, peepul.PNCounter, "counter"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the supervisor fail a round or two

	done := make(chan error, 1)
	go func() { done <- n.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a down peer")
	}
}

// TestManualSyncDuringDaemonRounds: concurrent SyncWith calls while the
// daemon runs its own rounds against the same peers are safe (the race
// detector guards this test) and everything still converges.
func TestManualSyncDuringDaemonRounds(t *testing.T) {
	a := newMeshCounterNode(t, "a", 1)
	b := newMeshCounterNode(t, "b", 2)
	a.AddPeer(b.Addr())
	b.AddPeer(a.Addr())

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				// Overlaps daemon rounds to the same address: the per-peer
				// lock serializes them, never errors.
				if err := a.SyncWith(b.Addr()); err != nil {
					t.Errorf("manual SyncWith during daemon rounds: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			inc(t, a, 1)
			inc(t, b, 1)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	waitValue(t, 40, 10*time.Second, a, b)
}

// TestMeshMintsNoDeadCommits: three counter nodes in a full mesh at the
// test daemon cadence do 40 incs each, 3 ms apart. Once every node reads
// 120, every commit each node holds — every item of its recon set, so
// every commit a sync ships — is reachable from its head set, and no
// merge is a virtual base: a pull mints nothing, so no node keeps a
// merge that convergence walked away from.
func TestMeshMintsNoDeadCommits(t *testing.T) {
	nodes := []*counterNode{newMeshCounterNode(t, "a", 1), newMeshCounterNode(t, "b", 2), newMeshCounterNode(t, "c", 3)}
	for _, n := range nodes {
		for _, p := range nodes {
			if p != n {
				n.AddPeer(p.Addr())
			}
		}
	}
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := n.obj.Do(counter.Op{Kind: counter.Inc, N: 1}); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(3 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	waitValue(t, 120, 20*time.Second, nodes...)
	for _, n := range nodes {
		st := n.obj.Store()
		reached := make(map[store.Hash]bool)
		stack := st.Heads(n.obj.Branch())
		for len(stack) > 0 {
			h := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reached[h] {
				continue
			}
			reached[h] = true
			c, _ := st.Commit(h)
			stack = append(stack, c.Parents...)
		}
		items := st.ReconItems(recon.Item{}, recon.Item{}, -1)
		merges := 0
		for _, it := range items {
			h := it.Addr()
			if !reached[h] {
				t.Errorf("%s: commit %v is reachable from no head", n.Name(), h)
			}
			if c, _ := st.Commit(h); len(c.Parents) == 2 {
				merges++
				p, _ := st.Commit(c.Parents[0])
				q, _ := st.Commit(c.Parents[1])
				if c.Time == 0 || c.Time != max(p.Time, q.Time) {
					t.Errorf("%s: merge %v is a virtual base or not canonical: %+v", n.Name(), h, c)
				}
			}
		}
		t.Logf("%s: %d commits for 120 ops, %d of them merges", n.Name(), len(items), merges)
	}
}
