package store_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/mlog"
	"repro/internal/store"
	"repro/internal/wire"
)

// openDiskStore opens (or creates) a store of impl over the durable log
// in dir.
func openDiskStore[S, Op, Val any](t *testing.T, dir string, impl core.MRDT[S, Op, Val], codec store.Codec[S]) (*store.Store[S, Op, Val], *disk.Log) {
	t.Helper()
	l, rec, err := disk.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.OpenRecovered(impl, codec, "main", 0, &rec.State, store.WithPersister(l))
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	return s, l
}

// openDiskLogStore opens (or creates) a log store over the durable log in
// dir and verifies the whole pack before handing it out.
func openDiskLogStore(t *testing.T, dir string) (*store.Store[mlog.State, mlog.Op, mlog.Val], *disk.Log) {
	t.Helper()
	s, l := openDiskStore(t, dir, mlog.Log{}, wire.MLog{})
	if err := s.VerifyPack(); err != nil {
		l.Close()
		t.Fatal(err)
	}
	return s, l
}

// composedObjects counts the objects of the durable log in dir that are
// composed: patches based elsewhere than the state of their commit's
// first parent. Each must be under a quarter of its state's full
// encoding.
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
		if o := rec.State.Objects[c.State]; o.Delta && o.Base != parent.State {
			if 4*len(o.Data) >= o.Size {
				t.Fatalf("composed object of %d bytes for a %d-byte state", len(o.Data), o.Size)
			}
			n++
		}
	}
	return n
}

// TestChainFullStatesCompose: a chain-full state is stored as one patch
// composed onto a level base or its chain's snapshot, so reads walk at
// most ChainBound−1 patches while snapshots stay rare, and the pack
// verifies across a disk reopen and after more writes that compose
// through the reopened, lazily loaded objects. Two branches that sync
// every 50 appends take enough appends to stack level bases.
func TestChainFullStatesCompose(t *testing.T) {
	dir := t.TempDir()
	s, l := openDiskLogStore(t, dir)
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
	check := func(when string) store.PackStats {
		t.Helper()
		ps := s.PackStats()
		if ps.MaxDepth >= store.ChainBound {
			t.Fatalf("%s: MaxDepth %d, want < %d", when, ps.MaxDepth, store.ChainBound)
		}
		if err := s.VerifyPack(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		return ps
	}
	before := check("before the reopen")
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
	stacked := stackedCompositions(t, dir)
	t.Logf("%d objects: %d snapshots, %d composed, %d of them onto a composed base", before.Objects, before.Snapshots, n, stacked)
	if stacked == 0 {
		t.Fatal("no composed object is based on a composed object: no level base formed")
	}
	if before.Snapshots*store.ChainBound > before.Objects {
		t.Fatalf("%d snapshots of %d objects: chain-full states are not composing", before.Snapshots, before.Objects)
	}

	s, l = openDiskLogStore(t, dir)
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
