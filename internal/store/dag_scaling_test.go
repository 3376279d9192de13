package store_test

import (
	"testing"

	"repro/internal/counter"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// DAG-scaling gate: the merge engine's LCA walks are generation-guided,
// so the commits they pop depend on the shape of the divergence, never
// on the depth of the history below it. Each shape below holds its
// divergence fixed while history grows 10²–10⁴ and counts the change of
// peepul_store_lca_steps_total across the measured merges — a count, not
// a wall time, so the gate is exact and immune to machine noise.

type incStore = store.Store[int64, counter.Op, counter.Val]

func applyInc(t *testing.T, s *incStore, branch string) {
	t.Helper()
	if _, err := s.Apply(branch, counter.Op{Kind: counter.Inc, N: 1}); err != nil {
		t.Fatal(err)
	}
}

// lcaSteps reads the registry's LCA walk counter.
func lcaSteps(reg *obs.Registry) int64 {
	return reg.Counter("peepul_store_lca_steps_total").Value()
}

// dagShape builds one history of the given depth on stores reporting to
// reg, and returns the stores plus a function running the measured
// merges.
type dagShape func(t *testing.T, reg *obs.Registry, history int) ([]*incStore, func())

// deepPullShape: history shared operations, a fork, 8 operations per
// side, then one Sync — a constant diamond on a deep linear history.
func deepPullShape(t *testing.T, reg *obs.Registry, history int) ([]*incStore, func()) {
	s := store.New[int64, counter.Op, counter.Val](counter.IncCounter{}, wire.IncCounter{}, "main", store.WithObs(reg))
	for i := 0; i < history; i++ {
		applyInc(t, s, "main")
	}
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		applyInc(t, s, "main")
		applyInc(t, s, "dev")
	}
	return []*incStore{s}, func() {
		if err := s.Sync("main", "dev"); err != nil {
			t.Fatal(err)
		}
	}
}

// resyncShape: a converged pair of branches, one fresh operation, then
// Sync — the merge degenerates to an ancestor check and fast-forward.
func resyncShape(t *testing.T, reg *obs.Registry, history int) ([]*incStore, func()) {
	s := store.New[int64, counter.Op, counter.Val](counter.IncCounter{}, wire.IncCounter{}, "main", store.WithObs(reg))
	for i := 0; i < history; i++ {
		applyInc(t, s, "main")
	}
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	applyInc(t, s, "main")
	return []*incStore{s}, func() {
		if err := s.Sync("main", "dev"); err != nil {
			t.Fatal(err)
		}
	}
}

// dagPeer is a replica simulated as its own store, exchanging histories
// through Export/Import the way the wire protocol does. Two peers can
// then merge each other concurrently — the criss-cross a single store's
// locking discipline never produces.
type dagPeer struct {
	s    *incStore
	name string
}

// ship installs q's main into p's tracking branch for q. The export is
// cut at p's heads and their parents: in a criss-cross round every path
// from q's head into shared history crosses one of them, so only the
// round's few new commits ship, whatever the depth.
func (p *dagPeer) ship(t *testing.T, q *dagPeer) {
	t.Helper()
	track := "from/" + q.name
	var have []store.Hash
	for _, b := range []string{"main", track} {
		h, err := p.s.HeadHash(b)
		if err != nil {
			continue
		}
		c, _ := p.s.Commit(h)
		have = append(append(have, h), c.Parents...)
	}
	delta, head, err := q.s.ExportSincePacked("main", have)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.s.Import(track, delta, head); err != nil {
		t.Fatal(err)
	}
}

func (p *dagPeer) pull(t *testing.T, q *dagPeer) {
	t.Helper()
	if err := p.s.Pull("main", "from/"+q.name); err != nil {
		t.Fatal(err)
	}
}

// crossMerge is the merging part of a criss-cross round: an operation
// each, on a branch holding both peers' previous tips, so each Apply
// first commits the canonical merge of that pair — the same commit on
// both sides — over the fold's LCA walk; then both ship and pull, which
// unions the two new tips into one head set on each side and mints
// nothing, and a's second ship and pull finds nothing new.
func crossMerge(t *testing.T, a, b *dagPeer) {
	applyInc(t, a.s, "main")
	applyInc(t, b.s, "main")
	a.ship(t, b)
	b.ship(t, a)
	a.pull(t, b)
	b.pull(t, a)
	a.ship(t, b)
	a.pull(t, b)
}

// crossRound is crossMerge plus b shipping and pulling a's heads once
// more. A pull mints nothing, so both peers already hold the same two
// heads and this re-sync lands no commit; every round adds the shared
// canonical merge and one operation per peer, whatever the depth.
func crossRound(t *testing.T, a, b *dagPeer) {
	crossMerge(t, a, b)
	b.ship(t, a)
	b.pull(t, a)
}

// crissCrossShape: history/2 criss-cross rounds, then one more
// crossMerge measured — on top of a history made of such rounds.
func crissCrossShape(t *testing.T, reg *obs.Registry, history int) ([]*incStore, func()) {
	a := &dagPeer{name: "a", s: store.NewAt[int64, counter.Op, counter.Val](
		counter.IncCounter{}, wire.IncCounter{}, "main", 8, store.WithObs(reg))}
	b := &dagPeer{name: "b", s: store.NewAt[int64, counter.Op, counter.Val](
		counter.IncCounter{}, wire.IncCounter{}, "main", 16, store.WithObs(reg))}
	for ops := 0; ops < history; ops += 2 {
		crossRound(t, a, b)
	}
	return []*incStore{a.s, b.s}, func() { crossMerge(t, a, b) }
}

// TestLCAStepsFlatInHistory is the DAG-scaling gate: for every shape,
// the LCA steps of the measured merges are identical at 10², 10³ and 10⁴
// commits of history, and every store ends VerifyPack-clean.
func TestLCAStepsFlatInHistory(t *testing.T) {
	shapes := []struct {
		name  string
		build dagShape
	}{
		{"deep-pull", deepPullShape},
		{"resync", resyncShape},
		{"crisscross", crissCrossShape},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var steps []int64
			for _, history := range []int{100, 1_000, 10_000} {
				reg := obs.NewRegistry()
				stores, merge := sh.build(t, reg, history)
				before := lcaSteps(reg)
				merge()
				steps = append(steps, lcaSteps(reg)-before)
				for _, s := range stores {
					if err := s.VerifyPack(); err != nil {
						t.Fatalf("history %d: %v", history, err)
					}
				}
			}
			t.Logf("LCA steps at 10², 10³, 10⁴: %v", steps)
			for _, n := range steps[1:] {
				if n != steps[0] {
					t.Fatalf("LCA steps grow with history: %v at 10², 10³, 10⁴", steps)
				}
			}
		})
	}
}
