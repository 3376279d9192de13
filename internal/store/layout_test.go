package store_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestPackLayoutHolds: the pack layout's bounds hold for every object a
// store holds — on a log of 10⁴ appends and an or-set of 3·10³ adds,
// before a disk reopen, after it, and after more writes on the reopened
// store. No object is ChainBound or more patches above its snapshot, and
// its chain walks down to that snapshot in exactly its recorded depth;
// no chain holds more than MaxBases compositions (level bases: patches
// based elsewhere than the state of their commit's first parent); and
// every composition is under a quarter of its state, its chain — it and
// every patch below it — under half.
func TestPackLayoutHolds(t *testing.T) {
	t.Run("mlog", func(t *testing.T) {
		checkLayoutHolds(t, mlog.Log{}, wire.MLog{}, 10000, func(i int) mlog.Op {
			return mlog.Op{Kind: mlog.Append, Msg: appendMsg("op", i)}
		})
	})
	t.Run("or-set-space", func(t *testing.T) {
		checkLayoutHolds(t, orset.OrSetSpace{}, wire.OrSetSpace{}, 3000, func(i int) orset.Op {
			return orset.Op{Kind: orset.Add, E: int64(i)}
		})
	})
}

// checkLayoutHolds applies n ops to a store over a durable log, reopens
// it and applies n/10 more, checking the layout (checkLayout) after each
// step.
func checkLayoutHolds[S, Op, Val any](t *testing.T, impl core.MRDT[S, Op, Val], codec store.Codec[S], n int, op func(i int) Op) {
	dir := t.TempDir()
	s, l := openDiskStore(t, dir, impl, codec)
	apply := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := s.Apply("main", op(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(0, n)
	checkLayout(t, "before the reopen", s)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s, l = openDiskStore(t, dir, impl, codec)
	defer l.Close()
	checkLayout(t, "after the reopen", s)
	apply(n, n+n/10)
	checkLayout(t, "after writes on the reopened store", s)
}

// checkLayout checks every pack object s holds against the layout's
// bounds (TestPackLayoutHolds), and that some state is composed.
func checkLayout[S, Op, Val any](t *testing.T, when string, s *store.Store[S, Op, Val]) {
	t.Helper()
	objects := store.PackLayout(s)
	// parentState maps each state main reaches to the state of its
	// commit's first parent.
	parentState := make(map[store.Hash]store.Hash)
	seen := make(map[store.Hash]bool)
	for stack := s.Heads("main"); len(stack) > 0; {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[h] {
			continue
		}
		seen[h] = true
		c, ok := s.Commit(h)
		if !ok {
			t.Fatalf("%s: commit %v missing", when, h)
		}
		if len(c.Parents) > 0 {
			p, _ := s.Commit(c.Parents[0])
			parentState[c.State] = p.State
		}
		stack = append(stack, c.Parents...)
	}
	composed := func(h store.Hash) bool {
		o := objects[h]
		return o.Delta && o.Base != parentState[h]
	}
	compositions, mostBases, deepest := 0, 0, 0
	for h, o := range objects {
		if o.Depth >= store.ChainBound {
			t.Fatalf("%s: object %v at depth %d, want < %d", when, h, o.Depth, store.ChainBound)
		}
		// Walk the chain down to its snapshot, counting its patches, its
		// compositions and its stored bytes.
		depth, bases, chain := 0, 0, 0
		for cur := h; objects[cur].Delta; cur = objects[cur].Base {
			if depth++; depth > o.Depth {
				t.Fatalf("%s: object %v at recorded depth %d chains deeper", when, h, o.Depth)
			}
			if composed(cur) {
				bases++
			}
			chain += objects[cur].Stored
			if _, ok := objects[objects[cur].Base]; !ok {
				t.Fatalf("%s: object %v chains onto a missing object", when, h)
			}
		}
		if depth != o.Depth {
			t.Fatalf("%s: object %v at recorded depth %d reaches its snapshot in %d patches", when, h, o.Depth, depth)
		}
		if bases > store.MaxBases {
			t.Fatalf("%s: the chain of object %v holds %d compositions, want ≤ %d", when, h, bases, store.MaxBases)
		}
		mostBases, deepest = max(mostBases, bases), max(deepest, depth)
		if !composed(h) {
			continue
		}
		compositions++
		if 4*o.Stored >= o.Size {
			t.Fatalf("%s: composition %v of %d bytes for a %d-byte state, want under a quarter", when, h, o.Stored, o.Size)
		}
		if 2*chain >= o.Size {
			t.Fatalf("%s: composition %v's chain stores %d bytes for a %d-byte state, want under half", when, h, chain, o.Size)
		}
	}
	t.Logf("%s: %d objects, %d compositions, chains %d patches deep with up to %d compositions", when, len(objects), compositions, deepest, mostBases)
	if compositions == 0 {
		t.Fatalf("%s: no state is composed", when)
	}
}
