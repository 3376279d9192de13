package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/counter"
	"repro/internal/store"
	"repro/internal/wire"
)

// DAG-scaling benchmark (`peepul-bench -fig dag`): wall time of store
// merges as a function of history length. With the generation-guided
// reachability layer every scenario's measured cost tracks the size of
// the divergence (which the sweep holds constant), not the depth of the
// history (which grows 10²–10⁵) — the flat trajectory recorded in
// BENCH_dag.json is the regression signal CI watches. Only the merge
// calls (Pull/Sync) are inside the timers: shipping is excluded in the
// replicated scenarios because its frontier sampling walks a capped but
// large number of commits — constant, but a constant large enough to
// drown the merge signal being measured.

// DagRow is one measured merge at one history length.
type DagRow struct {
	// Scenario names the DAG shape: "deep-pull" (constant diamond on a
	// deep linear history), "resync" (converged pair, one fresh op),
	// "crisscross" (concurrent cross-merges resolved through a virtual
	// base, replicated via Export/Import), "mesh" (ring gossip over
	// several branches).
	Scenario string `json:"scenario"`
	// History is the number of operations applied before measuring.
	History int `json:"history"`
	// Branches is the number of replicas/branches involved.
	Branches int `json:"branches"`
	// Commits is the DAG size at measurement time (largest store).
	Commits int `json:"commits"`
	// ElapsedNs is the wall time of the measured merges (Pull/Sync calls
	// only; delta shipping stays outside the timer).
	ElapsedNs int64 `json:"elapsed_ns"`
}

// Elapsed returns the measured wall time.
func (r DagRow) Elapsed() time.Duration { return time.Duration(r.ElapsedNs) }

// DagNs is the history sweep of the single-store scenarios.
var DagNs = []int{100, 1000, 10000, 100000}

// DagMeshNs is the history sweep of the multi-replica scenarios, capped
// lower because building the mesh applies the whole sweep per replica.
var DagMeshNs = []int{100, 1000, 10000}

func newDagStore() *store.Store[int64, counter.Op, counter.Val] {
	return store.New[int64, counter.Op, counter.Val](counter.IncCounter{}, wire.IncCounter{}, "main")
}

func dagApply(s *store.Store[int64, counter.Op, counter.Val], b string) {
	if _, err := s.Apply(b, counter.Op{Kind: counter.Inc, N: 1}); err != nil {
		panic(err)
	}
}

// Dag runs every scenario over its sweep.
func Dag(ns, meshNs []int) []DagRow {
	var rows []DagRow
	for _, n := range ns {
		rows = append(rows, dagDeepPull(n), dagResync(n))
	}
	for _, n := range meshNs {
		rows = append(rows, dagCrissCross(n), dagMesh(n, 6))
	}
	return rows
}

// dagDeepPull: n shared operations, then a constant 8-op divergence on
// each side of a fork, then one Sync — the diamond whose cost must not
// depend on n.
func dagDeepPull(history int) DagRow {
	s := newDagStore()
	for i := 0; i < history; i++ {
		dagApply(s, "main")
	}
	if err := s.Fork("main", "dev"); err != nil {
		panic(err)
	}
	const divergence = 8
	for i := 0; i < divergence; i++ {
		dagApply(s, "main")
		dagApply(s, "dev")
	}
	start := time.Now()
	if err := s.Sync("main", "dev"); err != nil {
		panic(err)
	}
	return DagRow{
		Scenario: "deep-pull", History: history, Branches: 2,
		Commits: s.NumCommits(), ElapsedNs: time.Since(start).Nanoseconds(),
	}
}

// dagResync: a converged pair with one fresh operation — the LCA query
// degenerates to an ancestor check plus a fast-forward.
func dagResync(history int) DagRow {
	s := newDagStore()
	for i := 0; i < history; i++ {
		dagApply(s, "main")
	}
	if err := s.Fork("main", "dev"); err != nil {
		panic(err)
	}
	dagApply(s, "main")
	start := time.Now()
	if err := s.Sync("main", "dev"); err != nil {
		panic(err)
	}
	return DagRow{
		Scenario: "resync", History: history, Branches: 2,
		Commits: s.NumCommits(), ElapsedNs: time.Since(start).Nanoseconds(),
	}
}

// dagPeer is a replica simulated as its own store, exchanging histories
// through Export/Import like the wire protocol does — which is what lets
// two peers merge each other *concurrently* and produce the criss-cross
// DAGs a single store's locking discipline forbids.
type dagPeer struct {
	s    *store.Store[int64, counter.Op, counter.Val]
	name string
}

func newDagPeer(name string, id int) *dagPeer {
	return &dagPeer{
		s: store.NewAt[int64, counter.Op, counter.Val](
			counter.IncCounter{}, wire.IncCounter{}, "main", id*8),
		name: name,
	}
}

// ship transfers q's current head into p's tracking branch for q,
// cutting the export at p's sampled frontier (delta shipping).
func (p *dagPeer) ship(q *dagPeer) {
	track := "from/" + q.name
	var have []store.Hash
	if f, err := p.s.Frontier(track); err == nil {
		have = f.HaveSet()
	}
	delta, head, err := q.s.ExportSincePacked("main", have)
	if err != nil {
		panic(err)
	}
	if err := p.s.Import(track, delta, head); err != nil {
		panic(err)
	}
}

// pull merges the tracked branch of q into p's main. A non-nil timer
// accumulates just the merge's wall time, keeping shipping out of the
// measurement.
func (p *dagPeer) pull(q *dagPeer, timer *time.Duration) {
	var start time.Time
	if timer != nil {
		start = time.Now()
	}
	if err := p.s.Pull("main", "from/"+q.name); err != nil {
		panic(err)
	}
	if timer != nil {
		*timer += time.Since(start)
	}
}

// crossRound is one criss-cross round for a pair: an operation each,
// concurrent cross-merges (both ship first, then both merge — two merge
// commits of the same two tips), then a resolving exchange whose LCA is
// the two merges' *virtual base*, then a fast-forward to converge.
func crossRound(a, b *dagPeer, timer *time.Duration) {
	dagApply(a.s, "main")
	dagApply(b.s, "main")
	a.ship(b)
	b.ship(a)
	a.pull(b, timer)
	b.pull(a, timer)
	// Resolve the criss-cross: a merges b's merge commit over the
	// recursive virtual base, b fast-forwards to the resolution.
	a.ship(b)
	a.pull(b, timer)
	b.ship(a)
	b.pull(a, timer)
}

// dagCrissCross: history/2 criss-cross rounds, then one more measured —
// every round exercises the paint-down walk finding *two* maximal common
// ancestors and the virtual-base recursion, on top of ever-deeper
// history.
func dagCrissCross(history int) DagRow {
	a, b := newDagPeer("a", 1), newDagPeer("b", 2)
	for ops := 0; ops < history; ops += 2 {
		crossRound(a, b, nil)
	}
	var merge time.Duration
	crossRound(a, b, &merge)
	return DagRow{
		Scenario: "crisscross", History: history, Branches: 2,
		Commits:   max(a.s.NumCommits(), b.s.NumCommits()),
		ElapsedNs: merge.Nanoseconds(),
	}
}

// meshRound: every peer applies one operation, then the ring edges run
// sequential two-way exchanges (ship, merge, ship back, fast-forward) —
// twice. The first pass accumulates every operation into the last edge's
// merge; the second pass fast-forwards the lagging peers to it, so each
// round starts from full convergence and the rows measure steady-state
// exchange cost rather than a growing backlog.
func meshRound(peers []*dagPeer, timer *time.Duration) {
	for _, p := range peers {
		dagApply(p.s, "main")
	}
	for pass := 0; pass < 2; pass++ {
		for i := range peers {
			p, q := peers[i], peers[(i+1)%len(peers)]
			p.ship(q)
			p.pull(q, timer)
			q.ship(p)
			q.pull(p, timer)
		}
	}
}

// dagMesh: m replicas gossiping along a ring — a wide, merge-heavy DAG
// whose width grows with the replica count and whose depth grows with
// history. The measured round's cost must track the round's divergence
// (m operations), not the accumulated history.
func dagMesh(history, m int) DagRow {
	peers := make([]*dagPeer, m)
	for i := range peers {
		peers[i] = newDagPeer(fmt.Sprintf("p%d", i), i+1)
	}
	for ops := 0; ops < history; ops += m {
		meshRound(peers, nil)
	}
	var merge time.Duration
	meshRound(peers, &merge)
	maxCommits := 0
	for _, p := range peers {
		maxCommits = max(maxCommits, p.s.NumCommits())
	}
	return DagRow{
		Scenario: "mesh", History: history, Branches: m,
		Commits: maxCommits, ElapsedNs: merge.Nanoseconds(),
	}
}

// WriteDagJSON renders rows as the BENCH_dag.json document: one object
// with the sweep parameters and the measured rows, stable field order,
// trailing newline.
func WriteDagJSON(w io.Writer, seed int64, rows []DagRow) error {
	doc := struct {
		Bench string   `json:"bench"`
		Seed  int64    `json:"seed"`
		Rows  []DagRow `json:"rows"`
	}{Bench: "dag", Seed: seed, Rows: rows}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
