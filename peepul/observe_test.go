package peepul_test

// The node's counters at the public API: plain nodes keep a metrics
// registry, and Stats, ObjectStats and MeshStats are views over it.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/peepul"
)

// seriesSum adds the counters named name whose labels include every
// key/value pair of match.
func seriesSum(ms []peepul.Metric, name string, match ...string) int64 {
	var sum int64
next:
	for _, m := range ms {
		if m.Name != name || m.Kind != "counter" {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if v, ok := m.Labels[match[i]]; !ok || v != match[i+1] {
				continue next
			}
		}
		sum += m.Value
	}
	return sum
}

// syncStatsFrom is the SyncStats the series whose labels include match
// add up to.
func syncStatsFrom(ms []peepul.Metric, match ...string) peepul.SyncStats {
	sum := func(name string, kv ...string) int64 { return seriesSum(ms, name, append(kv, match...)...) }
	return peepul.SyncStats{
		BytesSent:        sum("peepul_replica_bytes_total", "dir", "sent"),
		BytesRecv:        sum("peepul_replica_bytes_total", "dir", "recv"),
		CommitsSent:      sum("peepul_replica_commits_total", "dir", "sent"),
		CommitsRecv:      sum("peepul_replica_commits_total", "dir", "recv"),
		DeltaSyncs:       sum("peepul_replica_exchanges_total"),
		Misses:           sum("peepul_replica_misses_total"),
		PatchesSent:      sum("peepul_replica_patches_total", "dir", "sent"),
		PatchesRecv:      sum("peepul_replica_patches_total", "dir", "recv"),
		RangesSent:       sum("peepul_recon_ranges_total", "role", "client"),
		RangesRecv:       sum("peepul_recon_ranges_total", "role", "server"),
		RedundantCommits: sum("peepul_replica_redundant_commits_total"),
		InboundShed:      sum("peepul_replica_inbound_shed_total"),
	}
}

// TestStatsAreRegistryViews: nodes built with no option keep a metrics
// registry, and after one SyncWith and one live link Stats, ObjectStats
// and the counters of PeerMeshStats each equal the sums of the registry
// series they view — node-wide, per object, and per dialled peer.
func TestStatsAreRegistryViews(t *testing.T) {
	open := func(name string, id int, objects ...string) (*peepul.Node, []*peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]) {
		n, err := peepul.NewNode(name, id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		var hs []*peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]
		for _, o := range objects {
			h, err := peepul.Open(n, peepul.PNCounter, o)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		if err := n.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		return n, hs
	}
	inc := func(h *peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal], k int) {
		for i := 0; i < k; i++ {
			if _, err := h.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	value := func(h *peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]) int64 {
		s, err := h.State()
		if err != nil {
			t.Fatal(err)
		}
		return s.P - s.N
	}
	// b does not host "solo": a's hellos for it are misses on both sides.
	a, ha := open("a", 1, "hits", "solo")
	b, hb := open("b", 2, "hits")
	inc(ha[0], 3)
	inc(ha[1], 1)
	inc(hb[0], 2)
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	a.AddPeer(b.Addr())
	deadline := time.Now().Add(5 * time.Second)
	for st, _ := a.PeerMeshStats(b.Addr()); !st.LinkUp; st, _ = a.PeerMeshStats(b.Addr()) {
		if time.Now().After(deadline) {
			t.Fatal("the link never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	inc(ha[0], 2) // rides the link
	for value(hb[0]) != 7 {
		if time.Now().After(deadline) {
			t.Fatalf("b holds %d, want 7", value(hb[0]))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A view and the series it sums are read at different instants; a
	// server session finishing or a daemon round between them moves the
	// series, so compare only between two equal registry snapshots.
	check := func(n *peepul.Node) error {
		ms := n.Metrics()
		if len(ms) == 0 {
			t.Fatalf("%s: a node with no options has an empty registry", n.Name())
		}
		st, hits, solo := n.Stats(), n.ObjectStats("hits"), n.ObjectStats("solo")
		ps, _ := n.PeerMeshStats(b.Addr())
		if !reflect.DeepEqual(ms, n.Metrics()) {
			return fmt.Errorf("%s: registry moved", n.Name())
		}
		if want := syncStatsFrom(ms); st != want {
			t.Fatalf("%s: Stats %+v, series sum %+v", n.Name(), st, want)
		}
		if want := syncStatsFrom(ms, "object", "hits"); hits != want {
			t.Fatalf("%s: ObjectStats(hits) %+v, series sum %+v", n.Name(), hits, want)
		}
		if want := syncStatsFrom(ms, "object", "solo"); solo != want {
			t.Fatalf("%s: ObjectStats(solo) %+v, series sum %+v", n.Name(), solo, want)
		}
		if st.BytesSent == 0 || st.BytesRecv == 0 || hits.DeltaSyncs == 0 || st.Misses == 0 {
			t.Fatalf("%s: counted no traffic: %+v", n.Name(), st)
		}
		if n != a {
			return nil
		}
		if solo.Misses == 0 {
			t.Fatalf("a: the miss on solo is not in its object stats: %+v", solo)
		}
		peer := func(name string, kv ...string) int64 {
			return seriesSum(ms, name, append(kv, "peer", b.Addr())...)
		}
		violations := peer("peepul_mesh_rounds_total", "outcome", "violation")
		want := []int64{
			peer("peepul_replica_bytes_total", "dir", "sent"),
			peer("peepul_replica_bytes_total", "dir", "recv"),
			peer("peepul_replica_commits_total", "dir", "sent"),
			peer("peepul_replica_commits_total", "dir", "recv"),
			peer("peepul_mesh_rounds_total", "outcome", "ok"),
			peer("peepul_mesh_pushes_total"),
			peer("peepul_mesh_rounds_total", "outcome", "transient") + violations,
			violations,
			peer("peepul_mesh_quarantine_transitions_total", "change", "enter"),
		}
		got := []int64{ps.BytesSent, ps.BytesRecv, ps.CommitsSent, ps.CommitsRecv,
			ps.Rounds, ps.Pushes, ps.Failures, ps.Violations, ps.Quarantines}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a: PeerMeshStats counters %v, series sums %v", got, want)
		}
		if ps.CommitsSent == 0 || ps.Pushes == 0 || ps.Rounds == 0 {
			t.Fatalf("a: the link counted nothing: %+v", ps)
		}
		// Per-object and per-peer series are splits of the node's: the
		// object-less ones (span probes, misses on unhosted objects) and
		// the inbound ones make up the rest.
		if hits.BytesSent+solo.BytesSent > st.BytesSent || ps.BytesSent > st.BytesSent {
			t.Fatalf("a: a split exceeds the node total: node %+v, hits %+v, solo %+v, peer %+v", st, hits, solo, ps)
		}
		return nil
	}
	deadline = time.Now().Add(5 * time.Second)
	for _, n := range []*peepul.Node{a, b} {
		for err := check(n); err != nil; err = check(n) {
			if time.Now().After(deadline) {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
