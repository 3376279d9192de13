package store

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/counter"
)

// node is one store of a simulated fleet and the branch it writes on.
type node struct {
	s    *counterStoreT
	name string
}

// deliver ships what to lacks of from's commits the way a client session
// does: a capture of from's branch, the ship set exported as of it, and
// one Integrate on to.
func deliver(t *testing.T, from, to node) {
	t.Helper()
	c, err := from.s.Snapshot(from.name)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	held := commitSet(to.s)
	ship := make(map[Hash]bool)
	for h := range commitSet(from.s) {
		if !held[h] {
			ship[h] = true
		}
	}
	batch, heads, err := from.s.ExportSet(c, ship, AsOf, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := to.s.Integrate(to.name, "remote/"+from.name, batch, heads); err != nil {
		t.Fatal(err)
	}
}

// opCommits is the oracle of a store's contents: its operation commits.
func opCommits(s *counterStoreT) map[Hash]bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Hash]bool)
	for h, c := range s.commits {
		if len(c.Parents) == 1 {
			out[h] = true
		}
	}
	return out
}

// checkHeadSets asserts the first three properties of
// TestOneHeadPerOpSet on one store and returns its commit, merge and op
// counts.
func checkHeadSets(t *testing.T, s *counterStoreT) (commits, merges, ops int) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	reached := make(map[Hash]bool)
	for _, hs := range s.heads {
		for _, h := range hs {
			for a := range s.ancestors(h) {
				reached[a] = true
			}
		}
	}
	belowOps := make(map[Hash]bool)
	for _, c := range s.commits {
		if len(c.Parents) == 1 {
			for a := range s.ancestors(c.Parents[0]) {
				belowOps[a] = true
			}
		}
	}
	for h, c := range s.commits {
		if !reached[h] {
			t.Fatalf("commit %v is reachable from no head set", h)
		}
		switch len(c.Parents) {
		case 1:
			ops++
		case 2:
			merges++
			p, q := s.commits[c.Parents[0]], s.commits[c.Parents[1]]
			if c.Time == 0 || c.Time != max(p.Time, q.Time) || slices.Compare(c.Parents[0][:], c.Parents[1][:]) >= 0 {
				t.Fatalf("merge %v is not canonical: %+v", h, c)
			}
			if !belowOps[h] {
				t.Fatalf("merge %v is the ancestor of no op", h)
			}
		}
	}
	return len(s.commits), merges, ops
}

// TestOneHeadPerOpSet: three stores do 40 ops each and exchange through
// Snapshot → ExportSet → Integrate in seeded random delivery orders. A
// pull mints nothing and an op first commits its branch's canonical
// merge, so on every store, at every step: every commit is reachable
// from a head set; no commit is a virtual merge base; every merge is an
// ancestor of an op; and stores holding the same op commits hold the
// same head set and HeadHash. Ψ_ts holds over the op commits.
func TestOneHeadPerOpSet(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		fleet := make([]node, 3)
		left := make([]int, 3)
		for i := range fleet {
			name := fmt.Sprintf("n%d", i)
			fleet[i] = node{s: newCounterStoreAt(name, 64*i), name: name}
			left[i] = 40
		}
		sameOpsSameHeads := func() {
			t.Helper()
			for i := range fleet {
				for j := i + 1; j < len(fleet); j++ {
					a, b := fleet[i], fleet[j]
					if !maps.Equal(opCommits(a.s), opCommits(b.s)) {
						continue
					}
					ha, _ := a.s.HeadHash(a.name)
					hb, _ := b.s.HeadHash(b.name)
					if !slices.Equal(a.s.Heads(a.name), b.s.Heads(b.name)) || ha != hb {
						t.Fatalf("seed %d: %s and %s hold the same ops under heads %v and %v", seed, a.name, b.name, a.s.Heads(a.name), b.s.Heads(b.name))
					}
				}
			}
		}
		for slices.Max(left) > 0 {
			i := r.Intn(len(fleet))
			if j := r.Intn(len(fleet)); r.Intn(3) == 0 && i != j {
				deliver(t, fleet[i], fleet[j])
			} else if left[i] > 0 {
				mustApply(t, fleet[i].s, fleet[i].name)
				left[i]--
			}
			sameOpsSameHeads()
		}
		for round := 0; round < 2; round++ {
			for _, i := range r.Perm(len(fleet)) {
				for _, j := range r.Perm(len(fleet)) {
					if i != j {
						deliver(t, fleet[i], fleet[j])
						sameOpsSameHeads()
					}
				}
			}
		}
		var commits, merges, ops int
		for _, n := range fleet {
			commits, merges, ops = checkHeadSets(t, n.s)
			if ops != 120 {
				t.Fatalf("seed %d: %s holds %d ops, want 120", seed, n.name, ops)
			}
			if v, _ := n.s.Head(n.name); v != 120 {
				t.Fatalf("seed %d: %s reads %d, want 120", seed, n.name, v)
			}
		}
		if merges > ops {
			t.Fatalf("seed %d: %d merges for %d ops", seed, merges, ops)
		}
		if !core.PsiTS(opHistory(fleet[0].s)) {
			t.Fatalf("seed %d: Ψ_ts fails over the op commits", seed)
		}
		t.Logf("seed %d: %d commits = root + %d ops + %d merges", seed, commits, ops, merges)
	}
}

// opHistory is the abstract execution of s's op commits: one event per
// op commit, visible to every op commit above it.
func opHistory(s *counterStoreT) *core.AbstractState[counter.Op, counter.Val] {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var order []Hash
	for h, c := range s.commits {
		if len(c.Parents) == 1 {
			order = append(order, h)
		}
	}
	slices.SortFunc(order, func(a, b Hash) int { return s.commits[a].Gen - s.commits[b].Gen })
	hist := core.NewHistory[counter.Op, counter.Val]()
	ids := make(map[Hash]core.EventID, len(order))
	var all []core.EventID
	for _, h := range order {
		var preds []core.EventID
		for a := range s.ancestors(h) {
			if id, ok := ids[a]; ok {
				preds = append(preds, id)
			}
		}
		ids[h] = hist.Append(counter.Op{}, 0, s.commits[h].Time, preds)
		all = append(all, ids[h])
	}
	return core.StateOf(hist, all)
}

// TestTrackingBranchesTakeNoReplicaID: a store with replica block 64
// integrates batches from 70 peers. Integrate creates no branch, so the
// store keeps one branch and one clock, the replica-id allocator never
// moves past the node branch's id, and every timestamp the node branch
// mints carries it. A branch Import creates mirrors heads and takes no
// operations, so it persists with no clock.
func TestTrackingBranchesTakeNoReplicaID(t *testing.T) {
	s := newCounterStoreAt("node", 64)
	src := newCounterStoreAt("src", 0)
	for i := 0; i < 70; i++ {
		mustApply(t, src, "src")
		commits, heads, err := src.Export("src")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s.Integrate("node", fmt.Sprintf("remote/p%d", i), commits, heads); err != nil {
			t.Fatal(err)
		}
		mustApply(t, s, "node")
		h, _ := s.HeadHash("node")
		c, _ := s.Commit(h)
		if _, id := clock.Unpack(c.Time); id != 64 {
			t.Fatalf("after %d landings the node minted a timestamp of replica %d, want 64", i+1, id)
		}
	}
	if b := s.Branches(); len(b) != 1 {
		t.Fatalf("branches %v after 70 landings, want the node's alone", b)
	}
	if s.nextID != 65 || len(s.clocks) != 1 {
		t.Fatalf("replica-id allocator at %d with %d clocks, want 65 and the node's alone", s.nextID, len(s.clocks))
	}
	commits, heads, err := src.Export("src")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Import("remote/src", commits, heads); err != nil {
		t.Fatal(err)
	}
	if rec := s.branchRecordLocked("remote/src"); rec.Replica != NoClock || rec.Clock != 0 {
		t.Fatalf("imported branch persists as %+v, want no clock", rec)
	}
	if s.nextID != 65 || len(s.clocks) != 1 {
		t.Fatalf("Import moved the allocator to %d with %d clocks", s.nextID, len(s.clocks))
	}
}
