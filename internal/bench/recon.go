package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/counter"
	"repro/internal/replica"
	"repro/internal/wire"
)

// Recon benchmark (`peepul-bench -fig recon`): the wire cost of
// range-fingerprint set reconciliation. Two sweeps over history depth:
//
//   - converged: a fully converged pair re-syncs. Recon resolves this
//     with a single span probe and its match — O(1) frames, zero
//     commits, cost flat in depth;
//   - diverged: after a shared prefix of n commits the sides diverge by
//     a fixed d operations each. Recon negotiates the exact symmetric
//     difference (redundant re-ships must be zero), so its wire cost
//     tracks d, never n.
//
// A multi-object row pins the node-span optimization: one probe settles
// a whole converged node, not one per object.

// ReconRow is one measured exchange.
type ReconRow struct {
	// Scenario is "converged", "diverged" or "multi-object".
	Scenario string `json:"scenario"`
	// History is the shared-prefix depth in commits.
	History int `json:"history"`
	// Divergence is the per-side operation gap at measurement time
	// (zero for converged scenarios).
	Divergence int `json:"divergence"`
	// Objects is the number of objects on the pair (1 except multi-object).
	Objects int `json:"objects"`
	// Bytes counts wire traffic in both directions, client side.
	Bytes int64 `json:"bytes"`
	// Commits counts commits shipped in either direction.
	Commits int64 `json:"commits"`
	// RangesSent counts fingerprint probes the client issued.
	RangesSent int64 `json:"ranges_sent"`
	// RedundantCommits counts received commits already held; exactness
	// means zero.
	RedundantCommits int64 `json:"redundant_commits"`
	// ElapsedNs is the wall time of the exchange.
	ElapsedNs int64 `json:"elapsed_ns"`
}

// ReconNs is the history-depth sweep of the recon benchmark.
var ReconNs = []int{100, 1000, 10000}

// ReconQuickNs keeps the deepest point so the converged gate still
// checks the 10⁴ acceptance bound under -quick.
var ReconQuickNs = []int{100, 10000}

// reconDivergence is the fixed per-side gap of the diverged scenario.
const reconDivergence = 512

// Recon measures every scenario across the sweep.
func Recon(ns []int, seed int64) []ReconRow {
	var rows []ReconRow
	for _, n := range ns {
		rows = append(rows, reconConverged(n), reconDiverged(n, seed))
	}
	return append(rows, reconMultiObject(500, 4))
}

// reconMeasure runs one client→server exchange and charges the client's
// stat deltas (plus the server's redundant installs) to a row.
func reconMeasure(client, server *syncNode) (ReconRow, error) {
	cb, sb := client.Stats(), server.Stats()
	start := time.Now()
	if err := client.SyncWith(server.Addr()); err != nil {
		return ReconRow{}, err
	}
	elapsed := time.Since(start)
	ca, sa := client.Stats(), server.Stats()
	return ReconRow{
		Bytes:      (ca.BytesSent - cb.BytesSent) + (ca.BytesRecv - cb.BytesRecv),
		Commits:    (ca.CommitsSent - cb.CommitsSent) + (sa.CommitsSent - sb.CommitsSent),
		RangesSent: ca.RangesSent - cb.RangesSent,
		RedundantCommits: (ca.RedundantCommits - cb.RedundantCommits) +
			(sa.RedundantCommits - sb.RedundantCommits),
		ElapsedNs: elapsed.Nanoseconds(),
	}, nil
}

// reconPair builds a converged two-node pair with history commits split
// between the sides.
func reconPair(history int) (*syncNode, *syncNode) {
	a, b := newSyncNode("a", 1), newSyncNode("b", 2)
	for i := 0; i < history; i++ {
		if i%2 == 0 {
			syncInc(a)
		} else {
			syncInc(b)
		}
	}
	for i := 0; i < 2; i++ {
		if err := a.SyncWith(b.Addr()); err != nil {
			panic(err)
		}
	}
	return a, b
}

func reconConverged(history int) ReconRow {
	a, b := reconPair(history)
	defer a.Close()
	defer b.Close()
	row, err := reconMeasure(a, b)
	if err != nil {
		panic(err)
	}
	row.Scenario, row.History, row.Objects = "converged", history, 1
	return row
}

func reconDiverged(history int, seed int64) ReconRow {
	a, b := reconPair(history)
	defer a.Close()
	defer b.Close()
	for i := 0; i < reconDivergence; i++ {
		syncInc(a)
		syncInc(b)
	}
	row, err := reconMeasure(a, b)
	if err != nil {
		panic(err)
	}
	row.Scenario, row.History, row.Divergence, row.Objects =
		"diverged", history, reconDivergence, 1
	return row
}

// reconMultiObject builds a converged pair hosting several objects and
// measures the re-sync: one node-span probe settles all of them.
func reconMultiObject(history, objects int) ReconRow {
	a, b := newMultiNode("a", 1, objects), newMultiNode("b", 2, objects)
	defer a.Close()
	defer b.Close()
	for i := 0; i < history; i++ {
		a.inc(i % objects)
	}
	for i := 0; i < 2; i++ {
		if err := a.SyncWith(b.Addr()); err != nil {
			panic(err)
		}
	}
	row, err := reconMeasure(&a.syncNode, &b.syncNode)
	if err != nil {
		panic(err)
	}
	row.Scenario, row.History, row.Objects = "multi-object", history, objects
	return row
}

// multiNode is a syncNode hosting extra counter objects beside "counter".
type multiNode struct {
	syncNode
	objs []*replica.TypedObject[counter.PNState, counter.Op, counter.Val]
}

func newMultiNode(name string, id, objects int) *multiNode {
	n := newSyncNode(name, id)
	m := &multiNode{syncNode: *n, objs: []*replica.TypedObject[counter.PNState, counter.Op, counter.Val]{n.obj}}
	for i := 1; i < objects; i++ {
		o, err := replica.Ensure[counter.PNState, counter.Op, counter.Val](
			n.Node, fmt.Sprintf("counter-%d", i), "pn-counter", counter.PNCounter{}, wire.PNCounter{})
		if err != nil {
			panic(err)
		}
		m.objs = append(m.objs, o)
	}
	return m
}

func (m *multiNode) inc(i int) {
	if _, err := m.objs[i].Do(counter.Op{Kind: counter.Inc, N: 1}); err != nil {
		panic(err)
	}
}

// ReconGateErr validates the converged acceptance bound on a finished
// run: at the deepest swept history the recon re-sync must ship zero
// commits, zero redundant commits, and stay under a small constant byte
// ceiling that a depth-proportional negotiation could not meet.
func ReconGateErr(rows []ReconRow) error {
	const ceiling = 1024
	deepest := ReconRow{History: -1}
	for _, r := range rows {
		if r.Scenario == "converged" && r.History > deepest.History {
			deepest = r
		}
	}
	if deepest.History < 0 {
		return fmt.Errorf("no converged recon row to gate on")
	}
	if deepest.Commits != 0 || deepest.RedundantCommits != 0 {
		return fmt.Errorf("converged re-sync at history %d shipped %d commits (%d redundant), want 0",
			deepest.History, deepest.Commits, deepest.RedundantCommits)
	}
	if deepest.Bytes > ceiling {
		return fmt.Errorf("converged re-sync at history %d cost %d bytes, ceiling %d",
			deepest.History, deepest.Bytes, ceiling)
	}
	return nil
}

// PrintRecon renders the recon table: wire cost of one exchange per
// scenario and depth. Healthy output shows the converged rows flat and
// tiny down the depth sweep, and zero redundant commits everywhere.
func PrintRecon(w io.Writer, rows []ReconRow) {
	fmt.Fprintln(w, "Recon: range-fingerprint negotiation, wire cost per exchange")
	fmt.Fprintf(w, "%-14s %10s %6s %5s %10s %9s %10s %10s\n",
		"scenario", "#history", "gap", "objs", "bytes", "commits", "redundant", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10d %6d %5d %10s %9d %10d %10s\n",
			r.Scenario, r.History, r.Divergence, r.Objects,
			fmtBytes(r.Bytes), r.Commits, r.RedundantCommits,
			fmtDur(time.Duration(r.ElapsedNs)))
	}
}

// WriteReconJSON renders rows as the BENCH_recon.json document.
func WriteReconJSON(w io.Writer, seed int64, rows []ReconRow) error {
	doc := struct {
		Bench string     `json:"bench"`
		Seed  int64      `json:"seed"`
		Rows  []ReconRow `json:"rows"`
	}{Bench: "recon", Seed: seed, Rows: rows}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
