package store_test

import (
	"fmt"
	"testing"

	"repro/internal/counter"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestFrontierShape(t *testing.T) {
	s := counterStore()
	for i := 0; i < 40; i++ {
		inc(t, s, "main", 1)
	}
	f, err := s.Frontier("main")
	if err != nil {
		t.Fatal(err)
	}
	head, _ := s.HeadHash("main")
	if len(f.Heads) != 1 || f.Heads[0] != head {
		t.Fatal("frontier head must be the branch head")
	}
	headCommit, _ := s.Commit(head)
	headGen := headCommit.Gen
	if headGen != 41 { // root + 40 ops
		t.Fatalf("head gen = %d, want 41", headGen)
	}
	// The sample must be dense near the head and include power-of-two
	// distances further back, without ever containing the head itself.
	dists := make(map[int]bool)
	for _, h := range f.Have {
		if h == head {
			t.Fatal("Have must not contain the head")
		}
		c, ok := s.Commit(h)
		if !ok {
			t.Fatal("Have contains an unknown commit")
		}
		dists[headGen-c.Gen] = true
	}
	for d := 1; d <= 16; d++ {
		if !dists[d] {
			t.Fatalf("dense window misses distance %d", d)
		}
	}
	if !dists[32] {
		t.Fatal("sparse sample misses distance 32")
	}
	if dists[33] {
		t.Fatal("distance 33 is neither dense nor a power of two")
	}
}

// TestFrontierSparseTailReserved pins the budget split on a wide DAG:
// when the dense window alone holds more commits than the whole sample
// cap, part of the budget must still be spent on sparse power-of-two
// ancestors, so deep cut points survive in the sample.
func TestFrontierSparseTailReserved(t *testing.T) {
	s := counterStore()
	// A linear prefix deep enough for power-of-two ancestors beyond the
	// dense window...
	for i := 0; i < 200; i++ {
		inc(t, s, "main", 1)
	}
	// ...under a wide top: 128 branches commit once each off the prefix
	// head, and pairwise pulls fold them back into main in seven levels,
	// each pull followed by an op that commits its merge. All 382 commits
	// of the top lie within 16 generations of the head — three times the
	// default sample cap of 128 on their own.
	branches := []string{"main"}
	for i := 1; i < 128; i++ {
		name := fmt.Sprintf("b%d", i)
		if err := s.Fork("main", name); err != nil {
			t.Fatal(err)
		}
		branches = append(branches, name)
	}
	for _, b := range branches {
		inc(t, s, b, 1)
	}
	for len(branches) > 1 {
		var next []string
		for i := 0; i < len(branches); i += 2 {
			if err := s.Pull(branches[i], branches[i+1]); err != nil {
				t.Fatal(err)
			}
			inc(t, s, branches[i], 1)
			next = append(next, branches[i])
		}
		branches = next
	}

	f, err := s.Frontier("main")
	if err != nil {
		t.Fatal(err)
	}
	head, _ := s.HeadHash("main")
	headCommit, _ := s.Commit(head)
	dists := make(map[int]bool)
	dense := 0
	for _, h := range f.Have {
		c, ok := s.Commit(h)
		if !ok {
			t.Fatal("Have contains an unknown commit")
		}
		d := headCommit.Gen - c.Gen
		dists[d] = true
		if d <= 16 {
			dense++
		}
	}
	if len(f.Have) > 128 {
		t.Fatalf("sample size %d exceeds the cap of 128", len(f.Have))
	}
	// The dense candidates fill their three quarters of the cap; the
	// reserved quarter still surfaces every sparse ancestor there is.
	if dense != 96 {
		t.Fatalf("dense window took %d slots, want 96", dense)
	}
	for _, d := range []int{32, 64, 128} {
		if !dists[d] {
			t.Fatalf("sparse tail misses distance %d; sampled distances %v", d, dists)
		}
	}
	if !dists[1] {
		t.Fatal("dense window must still cover the head's immediate ancestry")
	}
}

func TestFrontierUnknownBranch(t *testing.T) {
	s := counterStore()
	if _, err := s.Frontier("nope"); err == nil {
		t.Fatal("unknown branch must fail")
	}
	if _, _, err := s.ExportSincePacked("nope", nil); err == nil {
		t.Fatal("unknown branch must fail")
	}
}

func TestExportSinceConvergedIsEmpty(t *testing.T) {
	s := counterStore()
	for i := 0; i < 10; i++ {
		inc(t, s, "main", 1)
	}
	head, _ := s.HeadHash("main")
	commits, h, err := s.ExportSincePacked("main", []store.Hash{head})
	if err != nil {
		t.Fatal(err)
	}
	if len(commits) != 0 || len(h) != 1 || h[0] != head {
		t.Fatalf("cut at head must be empty, got %d commits", len(commits))
	}
}

func TestExportSinceSuffixOnly(t *testing.T) {
	s := counterStore()
	for i := 0; i < 5; i++ {
		inc(t, s, "main", 1)
	}
	mid, _ := s.HeadHash("main")
	for i := 0; i < 3; i++ {
		inc(t, s, "main", 1)
	}
	commits, _, err := s.ExportSincePacked("main", []store.Hash{mid})
	if err != nil {
		t.Fatal(err)
	}
	if len(commits) != 3 {
		t.Fatalf("delta above mid = %d commits, want 3", len(commits))
	}
	// Unknown have hashes cut nothing and break nothing.
	commits, _, err = s.ExportSincePacked("main", []store.Hash{{0xde, 0xad}})
	if err != nil {
		t.Fatal(err)
	}
	if len(commits) != 9 { // root + 8 ops: degenerate full export
		t.Fatalf("unknown haves must degenerate to full export, got %d", len(commits))
	}
}

// TestExportSinceGrafts is the store-level core of delta sync: ship a
// prefix, then ship only the suffix, and have Import graft it onto the
// already-present commits.
func TestExportSinceGrafts(t *testing.T) {
	src := counterStore()
	for i := 0; i < 6; i++ {
		inc(t, src, "main", 1)
	}
	dst := store.NewAt[int64, counter.Op, counter.Val](
		counter.IncCounter{}, wire.IncCounter{}, "local", 64)

	commits, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Import("remote/main", commits, head); err != nil {
		t.Fatal(err)
	}

	// src advances; dst advertises its frontier; only the gap ships.
	for i := 0; i < 4; i++ {
		inc(t, src, "main", 1)
	}
	f, err := dst.Frontier("remote/main")
	if err != nil {
		t.Fatal(err)
	}
	delta, newHead, err := src.ExportSincePacked("main", f.HaveSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 4 {
		t.Fatalf("delta = %d commits, want 4", len(delta))
	}
	if err := dst.Import("remote/main", delta, newHead); err != nil {
		t.Fatal(err)
	}
	v, err := dst.Head("remote/main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Fatalf("grafted head = %d, want 10", v)
	}
	if err := dst.Pull("local", "remote/main"); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.Head("local"); v != 10 {
		t.Fatalf("local after pull = %d, want 10", v)
	}
}

func TestImportEmptyDeltaMovesBranch(t *testing.T) {
	src := counterStore()
	inc(t, src, "main", 7)
	commits, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	dst := store.NewAt[int64, counter.Op, counter.Val](
		counter.IncCounter{}, wire.IncCounter{}, "local", 64)
	if err := dst.Import("remote/main", commits, head); err != nil {
		t.Fatal(err)
	}
	// An empty delta whose head is already known is a no-op re-point.
	if err := dst.Import("remote/main", nil, head); err != nil {
		t.Fatal(err)
	}
	// An empty delta with an unknown head still fails.
	if err := dst.Import("remote/main", nil, []store.Hash{{1}}); err == nil {
		t.Fatal("unknown head must fail the import")
	}
}

func TestImportDanglingParentFails(t *testing.T) {
	src := counterStore()
	for i := 0; i < 5; i++ {
		inc(t, src, "main", 1)
	}
	mid, _ := src.HeadHash("main")
	inc(t, src, "main", 1)
	delta, head, err := src.ExportSincePacked("main", []store.Hash{mid})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh store lacks the cut-point commit, so the graft must fail
	// instead of installing a dangling DAG.
	dst := store.NewAt[int64, counter.Op, counter.Val](
		counter.IncCounter{}, wire.IncCounter{}, "local", 64)
	if err := dst.Import("remote/main", delta, head); err == nil {
		t.Fatal("delta onto a store missing the cut point must fail")
	}
}
