package store_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mlog"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestApplyAllocatesNoEncoding: an append to a log of 10³ or 10⁴ entries
// allocates the new []Entry the log's Do builds and at most 8 KiB more,
// on average over 256 appends. The codec encodes each state into the
// buffer the store recycled, copying the old entries from the parent's
// encoding, where a fresh encoding would cost 36 KB or 360 KB a commit.
func TestApplyAllocatesNoEncoding(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const appends, bound = 256, 8 << 10
	op := func(i int) mlog.Op {
		return mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("message %06d of 24 bytes", i)}
	}
	for _, n := range []int{1000, 10000} {
		s := store.New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "main")
		for i := range n {
			if _, err := s.Apply("main", op(i)); err != nil {
				t.Fatal(err)
			}
		}
		cur, err := s.Head("main")
		if err != nil {
			t.Fatal(err)
		}
		// What Do alone allocates for the same appends: the new logs.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range appends {
			cur, _ = mlog.Log{}.Do(op(n+i), cur, 0)
		}
		runtime.ReadMemStats(&after)
		entries := after.TotalAlloc - before.TotalAlloc

		runtime.ReadMemStats(&before)
		for i := range appends {
			if _, err := s.Apply("main", op(n+i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		applied := after.TotalAlloc - before.TotalAlloc
		size, _ := s.Size("main")
		extra := (int64(applied) - int64(entries)) / appends
		t.Logf("%d entries (%d B): an append allocates %d B, %d B beyond its new []Entry", n, size, applied/appends, extra)
		if extra > bound {
			t.Errorf("%d entries: an append allocates %d B beyond its new []Entry, want at most %d", n, extra, bound)
		}
	}
}

// TestSmallStateAddrAllocatesTwice: a state under one chunk, as every
// commit of a counter or a small set is, is addressed with two
// allocations — its chunk tree, whose one chunk and one group it holds
// inline, and one SHA-256 digest — not one per level of the tree. The
// three SHA-256 calls, chunk, group and root, are the address.
func TestSmallStateAddrAllocatesTwice(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	for _, n := range []int{0, 16, 300, 1024} {
		enc := make([]byte, n)
		for i := range enc {
			enc[i] = byte(i * 7)
		}
		if allocs := testing.AllocsPerRun(50, func() { store.StateAddr(enc) }); allocs > 2 {
			t.Errorf("addressing a %d-byte state makes %.0f allocations, want at most 2", n, allocs)
		}
	}
}
