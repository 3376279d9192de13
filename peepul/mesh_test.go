package peepul_test

// Always-on replication at the public API: a fleet configured with
// WithPeers converges with zero application SyncWith calls — the
// acceptance scenario for the mesh daemon.

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/peepul"
)

// TestMeshRingConvergence: ten nodes in a one-directional gossip ring,
// each supervising only its successor, converge after concurrent writes
// on every node — no SyncWith anywhere. Convergence is asserted on head
// hashes, not just values: every replica ends on the identical commit.
func TestMeshRingConvergence(t *testing.T) {
	const (
		nodes       = 10
		incsPerNode = 5
	)
	ns := make([]*peepul.Node, nodes)
	hs := make([]*peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal], nodes)
	for i := range ns {
		n, err := peepul.NewNode(fmt.Sprintf("m%d", i), i+1,
			peepul.WithMeshInterval(100*time.Millisecond),
			peepul.WithMeshJitter(20*time.Millisecond),
			peepul.WithMeshBackoff(20*time.Millisecond, 200*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		h, err := peepul.Open(n, peepul.PNCounter, "hits")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		ns[i], hs[i] = n, h
	}
	// Close the ring: i supervises i+1. The daemon's exchanges are
	// bidirectional (the reply delta flows back), so one direction of
	// supervision suffices for fleet-wide convergence.
	for i := range ns {
		ns[i].AddPeer(ns[(i+1)%nodes].Addr())
	}

	// Concurrent writes on every node while the daemons gossip.
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func(h *peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]) {
			defer wg.Done()
			for j := 0; j < incsPerNode; j++ {
				if _, err := h.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 1}); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(h)
	}
	wg.Wait()

	// Every node must reach the total and the identical head hash.
	const want = nodes * incsPerNode
	deadline := time.Now().Add(60 * time.Second)
	for {
		ref, err := hs[0].Store().HeadHash(hs[0].Branch())
		if err != nil {
			t.Fatal(err)
		}
		converged := true
		for _, h := range hs {
			s, err := h.State()
			if err != nil {
				t.Fatal(err)
			}
			head, err := h.Store().HeadHash(h.Branch())
			if err != nil {
				t.Fatal(err)
			}
			if s.P-s.N != want || head != ref {
				converged = false
				break
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			for i, h := range hs {
				s, _ := h.State()
				head, _ := h.Store().HeadHash(h.Branch())
				st, _ := ns[i].PeerMeshStats(ns[(i+1)%nodes].Addr())
				t.Logf("node m%d: value=%d head=%x rounds=%d pushes=%d fails=%d consec=%d lastErr=%q",
					i, s.P-s.N, head[:4], st.Rounds, st.Pushes, st.Failures, st.ConsecutiveFailures, st.LastError)
			}
			t.Fatalf("ring did not converge to %d with identical heads", want)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The daemon did the work: every node completed exchanges, and the
	// successor link reports healthy.
	for i, n := range ns {
		st, ok := n.PeerMeshStats(ns[(i+1)%nodes].Addr())
		if !ok {
			t.Fatalf("m%d has no stats for its successor", i)
		}
		if st.Rounds+st.Pushes == 0 {
			t.Fatalf("m%d converged with zero completed exchanges: %+v", i, st)
		}
	}
}

// meshGauge reads one of the daemon's gauges from the node's registry.
func meshGauge(n *peepul.Node, name string) int64 {
	for _, m := range n.Metrics() {
		if m.Name == name && m.Kind == "gauge" {
			return m.Value
		}
	}
	return 0
}

// TestCloseClearsMeshGauges: Close takes every peer's contribution out
// of the daemon's gauges. One peer has a live link; the other answers
// every session with a corrupt frame, so one violation quarantines it and
// it backs off for an hour. After Close the three gauges read 0.
func TestCloseClearsMeshGauges(t *testing.T) {
	corrupt, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer corrupt.Close()
	go func() {
		for {
			conn, err := corrupt.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				// A frame header claiming 2^32-1 fields: a framing violation.
				conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
				io.Copy(io.Discard, conn)
			}()
		}
	}()

	b := newMeshCounterNode(t, "b", 2)
	a := newMeshCounterNode(t, "a", 1,
		peepul.WithMeshBackoff(time.Hour, time.Hour),
		peepul.WithMeshQuarantine(1, time.Hour, time.Hour))
	a.AddPeer(b.Addr())
	a.AddPeer(corrupt.Addr().String())

	gauges := []string{"peepul_mesh_links_up", "peepul_mesh_peers_backing_off", "peepul_mesh_peers_quarantined"}
	deadline := time.Now().Add(10 * time.Second)
	for meshGauge(a.Node, gauges[0]) != 1 || meshGauge(a.Node, gauges[1]) != 1 || meshGauge(a.Node, gauges[2]) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("gauges never read 1 each: links_up %d, backing_off %d, quarantined %d",
				meshGauge(a.Node, gauges[0]), meshGauge(a.Node, gauges[1]), meshGauge(a.Node, gauges[2]))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, g := range gauges {
		if v := meshGauge(a.Node, g); v != 0 {
			t.Errorf("%s reads %d after Close, want 0", g, v)
		}
	}
}
