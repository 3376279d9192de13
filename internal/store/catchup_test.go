package store_test

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/orset"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestCatchUpShipsOnlyEdits: two or-set replicas share a history of 3000
// adds and diverge by 64 adds each, and the sender's 64 commits cross a
// chain-full boundary at the default SnapshotEvery. The batch ships every
// commit as a patch on its parent's state, none as a whole state — a
// chain-full composition or a snapshot ships as the patch the sender kept
// beside it — and the receiver's Integrate diffs nothing
// (peepul_store_delta_compared_bytes_total stays put) and hashes at most
// 16 KiB per commit (peepul_store_state_hash_bytes_total), against the
// 48 KB a whole state's address costs.
func TestCatchUpShipsOnlyEdits(t *testing.T) {
	const shared, diverged, hashBound = 3000, 64, 16 << 10
	r := rand.New(rand.NewSource(1))
	add := func(s *store.Store[orset.SpaceState, orset.Op, orset.Val]) {
		t.Helper()
		if _, err := s.Apply("main", orset.Op{Kind: orset.Add, E: r.Int63()}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	src := store.NewAt(orset.OrSetSpace{}, wire.OrSetSpace{}, "main", 100)
	dst := store.New(orset.OrSetSpace{}, wire.OrSetSpace{}, "main", store.WithObs(reg))
	for range shared {
		add(src)
	}
	batch, heads, err := src.ExportSincePacked("main", dst.Heads("main"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := dst.Integrate("main", "src", batch, heads); err != nil {
		t.Fatal(err)
	}
	fork := heads[0]
	for range diverged {
		add(src)
		add(dst)
	}

	batch, heads, err = src.ExportSincePacked("main", []store.Hash{fork})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != diverged {
		t.Fatalf("the batch holds %d commits, want %d", len(batch), diverged)
	}
	objects := store.ResidentObjects(src)
	whole, crossed := 0, 0
	for _, ec := range batch {
		if ec.State != nil {
			whole++
		}
	}
	for h := heads[0]; h != fork; {
		c, _ := src.Commit(h)
		parent, _ := src.Commit(c.Parents[0])
		if o := objects[c.State]; !o.Delta || o.Base != parent.State {
			crossed++
		}
		h = c.Parents[0]
	}
	if crossed == 0 {
		t.Fatal("no commit of the batch is a chain-full composition or a snapshot")
	}
	if whole != 0 {
		t.Fatalf("%d of %d commits shipped whole", whole, len(batch))
	}

	compared := reg.Counter("peepul_store_delta_compared_bytes_total")
	hashed := reg.Counter("peepul_store_state_hash_bytes_total")
	c0, h0 := compared.Value(), hashed.Value()
	if _, _, _, err := dst.Integrate("main", "src", batch, heads); err != nil {
		t.Fatal(err)
	}
	read, perCommit := compared.Value()-c0, (hashed.Value()-h0)/diverged
	t.Logf("%d commits, %d of them chain-full compositions or snapshots: 0 shipped whole, the diff read %d B, %d B hashed per commit", len(batch), crossed, read, perCommit)
	if read != 0 {
		t.Errorf("the receiver's Integrate diffed %d B, want 0", read)
	}
	if perCommit > hashBound {
		t.Errorf("the receiver hashed %d B per commit, want at most %d", perCommit, hashBound)
	}
}
