package store_test

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/mlog"
	"repro/internal/store"
	"repro/internal/wire"
)

// openDiskLogStore opens (or creates) a log store over the durable log in
// dir, verifying the whole pack at open.
func openDiskLogStore(t *testing.T, dir string, opts ...store.Option) (*store.Store[mlog.State, mlog.Op, mlog.Val], *disk.Log) {
	t.Helper()
	l, rec, err := disk.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]store.Option{store.WithPersister(l), store.WithVerifyOnOpen(true)}, opts...)
	s, err := store.OpenRecovered[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "main", 0, &rec.State, opts...)
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	return s, l
}

// composedObjects counts the objects of the durable log in dir that are
// composed onto their chain's snapshot: depth-1 patches based elsewhere
// than the state of a commit's first parent. Each must be under a quarter
// of its state's full encoding.
func composedObjects(t *testing.T, dir string) int {
	t.Helper()
	l, rec, err := disk.Open(dir, disk.WithFullReplay())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := 0
	for _, c := range rec.State.Commits {
		if len(c.Parents) == 0 {
			continue
		}
		parent, ok := rec.State.Commits[c.Parents[0]]
		if !ok {
			t.Fatalf("commit with state %v has no recorded parent", c.State)
		}
		if o := rec.State.Objects[c.State]; o.Delta && o.Depth == 1 && o.Base != parent.State {
			if 4*len(o.Data) >= o.Size {
				t.Fatalf("composed object of %d bytes for a %d-byte state", len(o.Data), o.Size)
			}
			n++
		}
	}
	return n
}

// TestChainFullStatesCompose: at spacing 4 a chain-full state is stored
// as one patch composed onto its chain's snapshot, so reads still walk at
// most three patches while snapshots stay rare, and the pack verifies
// after GC, across a disk reopen, and after more writes that compose
// through the reopened, lazily loaded objects.
func TestChainFullStatesCompose(t *testing.T) {
	const spacing = 4
	dir := t.TempDir()
	s, l := openDiskLogStore(t, dir, store.WithSnapshotEvery(spacing))
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		b := "main"
		if i%5 == 4 {
			b = "dev"
		}
		if _, err := s.Apply(b, mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("append %04d of 24 bytes", i)}); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			if err := s.Sync("main", "dev"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Fork("main", "scratch"); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "scratch", 20, "scratch")
	if err := s.DeleteBranch("scratch"); err != nil {
		t.Fatal(err)
	}
	check := func(when string) store.PackStats {
		t.Helper()
		ps := s.PackStats()
		if ps.MaxDepth > spacing-1 {
			t.Fatalf("%s: MaxDepth %d, want ≤ %d", when, ps.MaxDepth, spacing-1)
		}
		if err := s.VerifyPack(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		return ps
	}
	before := check("before GC")
	if s.GC() == 0 {
		t.Fatal("GC collected nothing: the deleted branch's commits survived")
	}
	check("after GC")
	want, err := s.Head("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	n := composedObjects(t, dir)
	if n == 0 {
		t.Fatalf("no composed object among %d packed states (%d snapshots)", before.Objects, before.Snapshots)
	}
	t.Logf("%d objects: %d snapshots, %d composed", before.Objects, before.Snapshots, n)
	if before.Snapshots*spacing > before.Objects {
		t.Fatalf("%d snapshots of %d objects: chain-full states are not composing", before.Snapshots, before.Objects)
	}

	s, l = openDiskLogStore(t, dir, store.WithSnapshotEvery(spacing))
	defer l.Close()
	check("after reopen")
	got, err := s.Head("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened main holds %d entries, want %d", len(got), len(want))
	}
	appendN(t, s, "main", 40, "reopened")
	check("after writes on the reopened store")
	if err := s.FlushStorage(); err != nil {
		t.Fatal(err)
	}
}
