package store_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/counter"
	"repro/internal/obs"
	"repro/internal/orset"
	"repro/internal/store"
	"repro/internal/wire"
)

type setStore = store.Store[orset.SpaceState, orset.Op, orset.Val]

// TestDecodedStatesFollowHeads: a store holds a decoded state only while
// a head set pins it — a member's state, or the fold of a multi-head set
// — and never the merge bases, superseded peer heads and moved folds a
// catch-up reads once. Two or-set stores share 3 000 adds and run 20
// rounds of 64 adds a side, a packed export each way landed with
// Integrate, a read of b's two-head set and an Apply on a, which commits
// the merge. A passive third store integrates a fourth's linear chain and
// reads its head after each batch. After every round each store holds at
// most what a scan of its head sets pins, at most 3, and
// peepul_store_resident_state_bytes counts a's one held state at its
// encoded size.
func TestDecodedStatesFollowHeads(t *testing.T) {
	const shared, rounds, adds = 3000, 20, 64
	r := rand.New(rand.NewSource(58))
	open := func(base int) (*setStore, *obs.Registry) {
		reg := obs.NewRegistry()
		return store.NewAt(orset.OrSetSpace{}, wire.OrSetSpace{}, "main", base, store.WithObs(reg)), reg
	}
	a, regA := open(100)
	b, _ := open(200)
	c, _ := open(300)
	d, _ := open(400)
	add := func(s *setStore) {
		t.Helper()
		if _, err := s.Apply("main", orset.Op{Kind: orset.Add, E: r.Int63()}); err != nil {
			t.Fatal(err)
		}
	}
	export := func(s *setStore, have []store.Hash) ([]store.ExportedCommit, []store.Hash) {
		t.Helper()
		batch, heads, err := s.ExportSincePacked("main", have)
		if err != nil {
			t.Fatal(err)
		}
		return batch, heads
	}
	integrate := func(s *setStore, batch []store.ExportedCommit, heads []store.Hash) {
		t.Helper()
		if _, _, _, err := s.Integrate("main", "peer", batch, heads); err != nil {
			t.Fatal(err)
		}
	}
	head := func(s *setStore) {
		t.Helper()
		if _, err := s.Head("main"); err != nil {
			t.Fatal(err)
		}
	}

	for range shared {
		add(a)
	}
	batch, heads := export(a, b.Heads("main"))
	integrate(b, batch, heads)
	common := a.Heads("main")
	for round := range rounds {
		for range adds {
			add(a)
			add(b)
			add(d)
		}
		batchA, headsA := export(a, common)
		batchB, headsB := export(b, common)
		integrate(b, batchA, headsA)
		integrate(a, batchB, headsB)
		head(b)
		common = a.Heads("main")
		add(a)
		batch, heads := export(d, c.Heads("main"))
		integrate(c, batch, heads)
		head(c)

		for name, s := range map[string]*setStore{"a": a, "b": b, "c": c} {
			held, pinned := store.HeldStates(s)
			if held > pinned || pinned > 3 {
				t.Fatalf("round %d: %s holds %d decoded states; its head sets pin %d, at most 3", round, name, held, pinned)
			}
		}
		if held, _ := store.HeldStates(b); held != 3 {
			t.Fatalf("round %d: b holds %d decoded states, want its two heads' and their fold", round, held)
		}
		size, err := a.Size("main")
		if err != nil {
			t.Fatal(err)
		}
		if got := regA.Gauge("peepul_store_resident_state_bytes").Value(); got != int64(size) {
			t.Fatalf("round %d: a's resident state bytes %d, want its head's %d", round, got, size)
		}
	}
}

// TestFoldWorkFlatWithoutHeldStates guards the cost of keeping no merge
// base decoded. After k ∈ {4, 16, 64} criss-cross rounds and every
// decoded state dropped, as a reopen leaves them, one Head read and one
// Apply run as many merges (peepul_store_merge_ns observations) and
// decode as many states (peepul_store_state_cache_total misses) whatever
// k: each fold's base is the last round's canonical merge commit, never
// a fold of earlier rounds. And an Apply on a k-member head set folds it
// in exactly k − 1 merges, one per merge commit.
func TestFoldWorkFlatWithoutHeldStates(t *testing.T) {
	ks := []int{4, 16, 64}
	work := func(reg *obs.Registry) (merges, misses int64) {
		return reg.Histogram("peepul_store_merge_ns", obs.LatencyBuckets).Count(),
			reg.Counter("peepul_store_state_cache_total", "result", "miss").Value()
	}
	t.Run("crisscross", func(t *testing.T) {
		var got []string
		for _, k := range ks {
			reg := obs.NewRegistry()
			a := &dagPeer{name: "a", s: store.NewAt[int64, counter.Op, counter.Val](
				counter.IncCounter{}, wire.IncCounter{}, "main", 8, store.WithObs(reg))}
			b := &dagPeer{name: "b", s: store.NewAt[int64, counter.Op, counter.Val](
				counter.IncCounter{}, wire.IncCounter{}, "main", 16, store.WithObs(reg))}
			for range k {
				crossRound(t, a, b)
			}
			if n := len(a.s.Heads("main")); n != 2 {
				t.Fatalf("k=%d: a holds %d heads, want 2", k, n)
			}
			store.DropDecodedStates(a.s)
			merges, misses := work(reg)
			if _, err := a.s.Head("main"); err != nil {
				t.Fatal(err)
			}
			applyInc(t, a.s, "main")
			m, d := work(reg)
			got = append(got, fmt.Sprintf("%d merges, %d decodes", m-merges, d-misses))
		}
		t.Logf("a cold Head and Apply after %v criss-cross rounds: %q", ks, got)
		for _, g := range got[1:] {
			if g != got[0] {
				t.Fatalf("fold work grows with the rounds: %q after %v rounds", got, ks)
			}
		}
	})
	t.Run("k-heads", func(t *testing.T) {
		for _, k := range ks {
			reg := obs.NewRegistry()
			s := store.New[int64, counter.Op, counter.Val](counter.IncCounter{}, wire.IncCounter{}, "main", store.WithObs(reg))
			for i := range k {
				b := fmt.Sprint("b", i)
				if err := s.Fork("main", b); err != nil {
					t.Fatal(err)
				}
				applyInc(t, s, b)
			}
			for i := range k {
				if err := s.Pull("main", fmt.Sprint("b", i)); err != nil {
					t.Fatal(err)
				}
			}
			if n := len(s.Heads("main")); n != k {
				t.Fatalf("main holds %d heads, want %d", n, k)
			}
			merges, _ := work(reg)
			applyInc(t, s, "main")
			if m, _ := work(reg); m-merges != int64(k-1) {
				t.Fatalf("an Apply on %d heads ran %d merges, want %d", k, m-merges, k-1)
			}
		}
	})
}

// TestConcurrentReadsFillOnce: readers racing under the read lock for a
// head state nobody has decoded, and for the fold of a two-head set,
// decode the state once and merge the fold once between them.
func TestConcurrentReadsFillOnce(t *testing.T) {
	reg := obs.NewRegistry()
	s := store.New[int64, counter.Op, counter.Val](counter.IncCounter{}, wire.IncCounter{}, "main", store.WithObs(reg))
	applyInc(t, s, "main")
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	applyInc(t, s, "main")
	applyInc(t, s, "dev")
	applyInc(t, s, "dev")
	if err := s.Pull("dev", "main"); err != nil {
		t.Fatal(err)
	}
	merges := reg.Histogram("peepul_store_merge_ns", obs.LatencyBuckets)
	misses := reg.Counter("peepul_store_state_cache_total", "result", "miss")
	for _, b := range []string{"main", "dev"} {
		store.DropDecodedStates(s)
		m0, d0 := merges.Count(), misses.Value()
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Head(b); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		// dev's fold decodes its two members and their base, the commit
		// dev forked from.
		want := map[string][2]int64{"main": {0, 1}, "dev": {1, 3}}[b]
		if got := [2]int64{merges.Count() - m0, misses.Value() - d0}; got != want {
			t.Fatalf("8 concurrent reads of %s: %d merges, %d decodes; want %d, %d", b, got[0], got[1], want[0], want[1])
		}
	}
}
