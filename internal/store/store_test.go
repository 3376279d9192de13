package store_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/orset"
	"repro/internal/store"
	"repro/internal/wire"
)

func counterStore() *store.Store[int64, counter.Op, counter.Val] {
	return store.New[int64, counter.Op, counter.Val](counter.IncCounter{}, wire.IncCounter{}, "main")
}

func orsetStore() *store.Store[orset.SpaceState, orset.Op, orset.Val] {
	return store.New[orset.SpaceState, orset.Op, orset.Val](orset.OrSetSpace{}, wire.OrSetSpace{}, "main")
}

func inc(t *testing.T, s *store.Store[int64, counter.Op, counter.Val], b string, n int64) {
	t.Helper()
	if _, err := s.Apply(b, counter.Op{Kind: counter.Inc, N: n}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreApplyAndHead(t *testing.T) {
	s := counterStore()
	inc(t, s, "main", 5)
	inc(t, s, "main", 2)
	v, err := s.Head("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("head = %d, want 7", v)
	}
}

func TestStoreForkAndDiverge(t *testing.T) {
	s := counterStore()
	inc(t, s, "main", 1)
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	inc(t, s, "main", 10)
	inc(t, s, "dev", 100)
	m, _ := s.Head("main")
	d, _ := s.Head("dev")
	if m != 11 || d != 101 {
		t.Fatalf("main=%d dev=%d", m, d)
	}
}

func TestStorePullThreeWay(t *testing.T) {
	s := counterStore()
	inc(t, s, "main", 1)
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	inc(t, s, "main", 10)
	inc(t, s, "dev", 100)
	if err := s.Pull("main", "dev"); err != nil {
		t.Fatal(err)
	}
	m, _ := s.Head("main")
	if m != 111 { // 11 + 101 - 1
		t.Fatalf("merged = %d, want 111", m)
	}
}

func TestStoreSyncConverges(t *testing.T) {
	s := counterStore()
	s.Fork("main", "dev")
	inc(t, s, "main", 3)
	inc(t, s, "dev", 4)
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	m, _ := s.Head("main")
	d, _ := s.Head("dev")
	if m != d || m != 7 {
		t.Fatalf("after sync main=%d dev=%d, want 7", m, d)
	}
}

func TestStoreRepeatedSyncRounds(t *testing.T) {
	// Diverge, sync, rediverge, sync: the second round's pulls use the
	// first round's sync point as the base (the back-pull of each Sync is
	// a fast-forward that adopts the merge commit), so every three-way
	// merge is a clean diamond and a+b−lca counts each increment once.
	s := counterStore()
	inc(t, s, "main", 1) // shared prefix: 1
	s.Fork("main", "dev")
	inc(t, s, "main", 2) // main: 3
	inc(t, s, "dev", 4)  // dev: 5
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err) // both: 7
	}
	inc(t, s, "main", 8) // main: 15
	inc(t, s, "dev", 16) // dev: 23
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	m, _ := s.Head("main")
	d, _ := s.Head("dev")
	if m != 31 || d != 31 { // 1+2+4+8+16
		t.Fatalf("after two sync rounds main=%d dev=%d, want 31", m, d)
	}
}

func TestStorePullCompletesAsymmetricPingPong(t *testing.T) {
	// Asymmetric ping-pong with an interleaved local operation: main pulls
	// dev, then dev — which performed an operation concurrently with
	// main's — pulls main back. The merge base of that back-pull (dev's
	// pre-op head) does not causally dominate main's exclusive operation,
	// but it still carries exactly the common operations, so the merge
	// counts everything once and the pair converges.
	s := counterStore()
	inc(t, s, "main", 1)
	s.Fork("main", "dev")
	inc(t, s, "main", 2)
	inc(t, s, "dev", 4)
	if err := s.Pull("main", "dev"); err != nil {
		t.Fatal(err) // plain diamond
	}
	inc(t, s, "dev", 8) // interleaved local op on dev
	if err := s.Pull("dev", "main"); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Head("dev")
	if d != 15 { // 1+2+4+8, each counted once
		t.Fatalf("dev = %d, want 15", d)
	}
	// The reverse direction brings main no new operations; it converges by
	// semantic fast-forward onto dev's completed head.
	if err := s.Pull("main", "dev"); err != nil {
		t.Fatal(err)
	}
	hm, _ := s.HeadHash("main")
	hd, _ := s.HeadHash("dev")
	m, _ := s.Head("main")
	if m != 15 || hm != hd {
		t.Fatalf("main = %d head %v, want 15 at dev's head %v", m, hm, hd)
	}
}

func TestStoreGossipOrderCompletion(t *testing.T) {
	// Ring gossip applied in "backwards" edge order with one interleaved
	// operation: b2 syncs b1 before b1 has absorbed main's chain, then
	// commits locally, then syncs b1 again — so main's root-forked chain
	// arrives behind a merge that does not dominate it. The pulls merge
	// over the exact common base and the ring converges to identical
	// heads.
	s := counterStore()
	s.Fork("main", "b1")
	s.Fork("main", "b2")
	for i, b := range []string{"main", "b1", "b2"} {
		for j := 0; j < 3; j++ {
			inc(t, s, b, int64(i+1))
		}
	}
	if err := s.Sync("b2", "b1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync("b1", "main"); err != nil {
		t.Fatal(err)
	}
	inc(t, s, "b2", 1)
	if err := s.Sync("b2", "b1"); err != nil {
		t.Fatal(err)
	}
	v2, _ := s.Head("b2")
	v1, _ := s.Head("b1")
	h2, _ := s.HeadHash("b2")
	h1, _ := s.HeadHash("b1")
	if v2 != 19 || v1 != 19 || h1 != h2 { // 3·1 + 3·2 + 3·3 + 1
		t.Fatalf("b2=%d b1=%d heads equal=%v, want 19/19/true", v2, v1, h1 == h2)
	}
}

func TestStoreEntangledTimestampsMergeExactly(t *testing.T) {
	// Deliberately interleaved Lamport timestamps: main commits an
	// operation just after merging aux's pumped-clock chain, so old's
	// long offline chain carries timestamps both below and above main's
	// operation; srv merges old's chain behind main's back and commits on
	// top. The merge bases here are nowhere near timestamp-contiguous
	// with the regions above them — exactly the shape that breaks
	// positional suffix diffs — and the pulls must still count every
	// operation exactly once.
	s := counterStore()
	if err := s.Fork("main", "aux"); err != nil {
		t.Fatal(err)
	}
	if err := s.Fork("main", "old"); err != nil {
		t.Fatal(err)
	}
	inc(t, s, "main", 1)
	for i := 0; i < 10; i++ {
		inc(t, s, "aux", 1) // pump aux's clock to ~10
	}
	if err := s.Pull("main", "aux"); err != nil {
		t.Fatal(err)
	}
	if err := s.Fork("main", "srv"); err != nil {
		t.Fatal(err)
	}
	inc(t, s, "main", 1) // main's interleaved op, timestamp ~12
	for i := 0; i < 15; i++ {
		inc(t, s, "old", 1) // offline chain, timestamps 1..15
	}
	if err := s.Pull("srv", "old"); err != nil {
		t.Fatal(err)
	}
	inc(t, s, "srv", 1) // srv's op atop the entangled merge
	if err := s.Sync("main", "srv"); err != nil {
		t.Fatal(err)
	}
	m, _ := s.Head("main")
	v, _ := s.Head("srv")
	hm, _ := s.HeadHash("main")
	hv, _ := s.HeadHash("srv")
	if m != 28 || v != 28 || hm != hv { // 1 + 10 + 1 + 15 + 1, each once
		t.Fatalf("main=%d srv=%d heads equal=%v, want 28/28/true", m, v, hm == hv)
	}
}

func TestStoreSyncDiscipline(t *testing.T) {
	// The ping-pong workload converging with atomic Sync at each
	// exchange: both legs of every exchange happen with no interleaved
	// operation, so each is one plain diamond merge.
	s := counterStore()
	inc(t, s, "main", 1)
	s.Fork("main", "dev")
	inc(t, s, "main", 2)
	inc(t, s, "dev", 4)
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	inc(t, s, "dev", 8)
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	m, _ := s.Head("main")
	d, _ := s.Head("dev")
	if m != 15 || d != 15 {
		t.Fatalf("converged main=%d dev=%d, want 15", m, d)
	}
}

func TestStoreFastForwardAdoptsCommit(t *testing.T) {
	// A fast-forward pull must adopt the source's head commit rather than
	// create a new one, keeping the DAG transparent for later LCAs.
	s := counterStore()
	s.Fork("main", "dev")
	inc(t, s, "main", 3)
	if err := s.Pull("dev", "main"); err != nil {
		t.Fatal(err)
	}
	hm, _ := s.HeadHash("main")
	hd, _ := s.HeadHash("dev")
	if hm != hd {
		t.Fatal("fast-forward must adopt the source head commit")
	}
}

func TestStoreFastForwardLCA(t *testing.T) {
	// dev is strictly behind main: LCA is dev's own head, and pulling from
	// an identical or ancestor branch must not change anything incorrectly.
	s := counterStore()
	inc(t, s, "main", 1)
	s.Fork("main", "dev")
	inc(t, s, "main", 2)
	if err := s.Pull("dev", "main"); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Head("dev")
	if d != 3 {
		t.Fatalf("fast-forward pull = %d, want 3", d)
	}
	// Pull with no divergence is a no-op.
	before, _ := s.HeadHash("main")
	if err := s.Pull("main", "main"); err == nil {
		// merging a branch into itself: heads equal, no-op
		after, _ := s.HeadHash("main")
		if before != after {
			t.Fatal("self-pull must be a no-op")
		}
	}
}

func TestStoreErrors(t *testing.T) {
	s := counterStore()
	if _, err := s.Apply("ghost", counter.Op{Kind: counter.Inc, N: 1}); !errors.Is(err, store.ErrNoBranch) {
		t.Fatalf("Apply: %v", err)
	}
	if err := s.Fork("ghost", "x"); !errors.Is(err, store.ErrNoBranch) {
		t.Fatalf("Fork src: %v", err)
	}
	if err := s.Fork("main", "main"); !errors.Is(err, store.ErrBranchExists) {
		t.Fatalf("Fork dup: %v", err)
	}
	if _, err := s.Head("ghost"); !errors.Is(err, store.ErrNoBranch) {
		t.Fatalf("Head: %v", err)
	}
	if err := s.Pull("main", "ghost"); !errors.Is(err, store.ErrNoBranch) {
		t.Fatalf("Pull: %v", err)
	}
	if _, err := s.Size("ghost"); !errors.Is(err, store.ErrNoBranch) {
		t.Fatalf("Size: %v", err)
	}
	if _, err := s.HeadHash("ghost"); !errors.Is(err, store.ErrNoBranch) {
		t.Fatalf("HeadHash: %v", err)
	}
}

func TestStoreBranchesSorted(t *testing.T) {
	s := counterStore()
	s.Fork("main", "zeta")
	s.Fork("main", "alpha")
	got := s.Branches()
	if len(got) != 3 || got[0] != "alpha" || got[1] != "main" || got[2] != "zeta" {
		t.Fatalf("Branches = %v", got)
	}
}

func TestStoreORSetAddWinsAcrossBranches(t *testing.T) {
	s := orsetStore()
	if _, err := s.Apply("main", orset.Op{Kind: orset.Add, E: 7}); err != nil {
		t.Fatal(err)
	}
	s.Fork("main", "dev")
	// main re-adds 7 (refreshing its timestamp); dev removes it.
	s.Apply("main", orset.Op{Kind: orset.Add, E: 7})
	s.Apply("dev", orset.Op{Kind: orset.Remove, E: 7})
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	v, err := s.Apply("main", orset.Op{Kind: orset.Lookup, E: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Found {
		t.Fatal("concurrent add must win against remove")
	}
	d, _ := s.Apply("dev", orset.Op{Kind: orset.Lookup, E: 7})
	if !d.Found {
		t.Fatal("both replicas must converge to the add-wins outcome")
	}
}

func TestStoreTimestampsRespectMergeOrder(t *testing.T) {
	// After a pull, new operations on the destination must carry larger
	// timestamps than everything merged in (Ψ_ts across replicas).
	s := orsetStore()
	s.Fork("main", "dev")
	for i := 0; i < 20; i++ {
		s.Apply("dev", orset.Op{Kind: orset.Add, E: int64(i)})
	}
	if err := s.Pull("main", "dev"); err != nil {
		t.Fatal(err)
	}
	s.Apply("main", orset.Op{Kind: orset.Add, E: 99})
	head, _ := s.Head("main")
	var tsOf99, maxOther core.Timestamp
	for _, p := range head {
		if p.E == 99 {
			tsOf99 = p.T
		} else if p.T > maxOther {
			maxOther = p.T
		}
	}
	if tsOf99 <= maxOther {
		t.Fatalf("post-merge op timestamp %d must exceed merged-in max %d", tsOf99, maxOther)
	}
}

func TestStoreConcurrentApplies(t *testing.T) {
	s := counterStore()
	s.Fork("main", "dev")
	var wg sync.WaitGroup
	for _, b := range []string{"main", "dev"} {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := s.Apply(b, counter.Op{Kind: counter.Inc, N: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	m, _ := s.Head("main")
	if m != 400 {
		t.Fatalf("converged counter = %d, want 400", m)
	}
}

func TestStoreCommitDAGShape(t *testing.T) {
	s := counterStore()
	inc(t, s, "main", 1)
	h, _ := s.HeadHash("main")
	c, ok := s.Commit(h)
	if !ok {
		t.Fatal("head commit missing")
	}
	if len(c.Parents) != 1 || c.Gen != 2 {
		t.Fatalf("op commit shape: %+v", c)
	}
	s.Fork("main", "dev")
	inc(t, s, "main", 1)
	inc(t, s, "dev", 1)
	s.Pull("main", "dev")
	// A pull commits nothing: main holds both heads until its next op
	// commits their merge, parents sorted, with the later parent's time.
	heads := s.Heads("main")
	if len(heads) != 2 || bytes.Compare(heads[0][:], heads[1][:]) >= 0 {
		t.Fatalf("main after the pull holds heads %v, want both, sorted", heads)
	}
	inc(t, s, "main", 1)
	h, _ = s.HeadHash("main")
	c, _ = s.Commit(h)
	m, _ := s.Commit(c.Parents[0])
	if len(m.Parents) != 2 || m.Parents[0] != heads[0] || m.Parents[1] != heads[1] {
		t.Fatalf("merge commit must have the two heads as parents: %+v", m)
	}
	p0, _ := s.Commit(heads[0])
	p1, _ := s.Commit(heads[1])
	if m.Time != max(p0.Time, p1.Time) || c.Time <= m.Time {
		t.Fatalf("merge time %v, parents %v and %v, op %v", m.Time, p0.Time, p1.Time, c.Time)
	}
	if _, ok := s.Commit(store.Hash{}); ok {
		t.Fatal("zero hash must not resolve")
	}
}
