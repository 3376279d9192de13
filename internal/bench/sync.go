package bench

import (
	"math/rand"
	"time"

	"repro/internal/counter"
	"repro/internal/replica"
	"repro/internal/wire"
)

// Sync-cost benchmark: wire bytes and wall time of a replica sync as a
// function of history length, over pair and ring topologies. A sync
// pays one span probe once a pair has converged and O(gap) when it has
// not — never O(history), which is what this table shows.

// SyncCostRow is one measured sync exchange (or ring round).
type SyncCostRow struct {
	// History is the number of operations committed before measuring.
	History int
	// Topology is "pair" (one exchange) or "ring" (a 3-node round).
	Topology string
	// Phase is "resync" (already converged) or "fresh-op" (one operation
	// behind).
	Phase string
	// Bytes counts wire traffic in both directions, client side.
	Bytes int64
	// Commits counts commits shipped in either direction.
	Commits int64
	// Elapsed is the wall time of the exchange.
	Elapsed time.Duration
}

// SyncNs is the history-length sweep of the sync-cost benchmark.
var SyncNs = []int{64, 256, 1024}

// syncNode is a replica node hosting a single PN-counter object.
type syncNode struct {
	*replica.Node
	obj *replica.TypedObject[counter.PNState, counter.Op, counter.Val]
}

func newSyncNode(name string, id int) *syncNode {
	n, err := replica.NewNode(name, id)
	if err != nil {
		panic(err)
	}
	obj, err := replica.Ensure[counter.PNState, counter.Op, counter.Val](
		n, "counter", "pn-counter", counter.PNCounter{}, wire.PNCounter{})
	if err != nil {
		panic(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	return &syncNode{Node: n, obj: obj}
}

func syncInc(n *syncNode) {
	if _, err := n.obj.Do(counter.Op{Kind: counter.Inc, N: 1}); err != nil {
		panic(err)
	}
}

// measureSync runs one client→server exchange and returns its wire cost
// from the stats deltas of both nodes.
func measureSync(client, server *syncNode) (int64, int64, time.Duration) {
	cb, sb := client.Stats(), server.Stats()
	start := time.Now()
	if err := client.SyncWith(server.Addr()); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	ca, sa := client.Stats(), server.Stats()
	bytes := (ca.BytesSent - cb.BytesSent) + (ca.BytesRecv - cb.BytesRecv)
	commits := (ca.CommitsSent - cb.CommitsSent) + (sa.CommitsSent - sb.CommitsSent)
	return bytes, commits, elapsed
}

// SyncCost measures sync cost across the history sweep. Histories are
// built with seeded random op placement and periodic syncs, then fully
// converged before measuring.
func SyncCost(ns []int, seed int64) []SyncCostRow {
	var rows []SyncCostRow
	for _, n := range ns {
		rows = append(rows, pairSyncCost(n, seed)...)
		rows = append(rows, ringSyncCost(n, seed)...)
	}
	return rows
}

func pairSyncCost(history int, seed int64) []SyncCostRow {
	a := newSyncNode("a", 1)
	defer a.Close()
	b := newSyncNode("b", 2)
	defer b.Close()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < history; i++ {
		if r.Intn(2) == 0 {
			syncInc(a)
		} else {
			syncInc(b)
		}
		if i%16 == 15 {
			measureSync(a, b)
		}
	}
	measureSync(a, b)
	measureSync(a, b) // fully converged

	by, cm, el := measureSync(a, b)
	resync := SyncCostRow{History: history, Topology: "pair", Phase: "resync",
		Bytes: by, Commits: cm, Elapsed: el}
	syncInc(a)
	by, cm, el = measureSync(a, b)
	freshOp := SyncCostRow{History: history, Topology: "pair", Phase: "fresh-op",
		Bytes: by, Commits: cm, Elapsed: el}
	return []SyncCostRow{resync, freshOp}
}

func ringSyncCost(history int, seed int64) []SyncCostRow {
	nodes := []*syncNode{newSyncNode("eu", 4), newSyncNode("us", 5), newSyncNode("ap", 6)}
	for _, n := range nodes {
		defer n.Close()
	}
	ringRound := func() (int64, int64, time.Duration) {
		var bytes, commits int64
		var elapsed time.Duration
		for i := range nodes {
			by, cm, el := measureSync(nodes[i], nodes[(i+1)%len(nodes)])
			bytes += by
			commits += cm
			elapsed += el
		}
		return bytes, commits, elapsed
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < history; i++ {
		syncInc(nodes[r.Intn(len(nodes))])
		if i%24 == 23 {
			ringRound()
		}
	}
	ringRound()
	ringRound() // fully converged

	by, cm, el := ringRound()
	return []SyncCostRow{{History: history, Topology: "ring", Phase: "resync",
		Bytes: by, Commits: cm, Elapsed: el}}
}
