package store_test

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/mlog"
	"repro/internal/obs"
	"repro/internal/orset"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestApplyAllocatesNoEncoding: an append to a log of 10³ or 10⁴ entries
// allocates at most 8 KiB in all, on average over 256 appends: no new
// encoding, and no []Entry of the log's length. The log's Do writes the
// entry into its parent's block, the codec encodes the state into the
// buffer the store recycled, copying the old entries from the parent's
// encoding, and the diff and the address start from that copied run.
// Each state is the store's alone: nothing but Apply appends to it, and
// every new head shares its parent's memory but where a block fills.
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range appends {
			if _, err := s.Apply("main", op(n+i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / appends
		size, _ := s.Size("main")
		t.Logf("%d entries (%d B): an append allocates %d B", n, size, perOp)
		if perOp > bound {
			t.Errorf("%d entries: an append allocates %d B, want at most %d", n, perOp, bound)
		}
		// The same appends again, each new head checked against the old:
		// it is the old one's memory with an entry in front, except where
		// a block fills and the log is copied, once in n/4 appends.
		copies := 0
		prev, _ := s.Head("main")
		for i := range appends {
			if _, err := s.Apply("main", op(n+appends+i)); err != nil {
				t.Fatal(err)
			}
			cur, _ := s.Head("main")
			if unsafe.SliceData(cur[1:]) != unsafe.SliceData(prev) {
				copies++
			}
			prev = cur
		}
		if copies > 1 {
			t.Errorf("%d entries: %d of %d appends copied the log, want at most 1", n, copies, appends)
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

// TestAppendDiffsOnlyTheEdit: the store's work counters show where an
// append's bytes go. At 10³ and 10⁴ entries, each log append's encoding
// copies exactly its parent's entry section from the parent's encoding
// (peepul_store_encode_copied_bytes_total), and the diff against the
// parent reads only the edit — the count, the new entry and the bytes
// around them, the same at either size — not the copied run
// (peepul_store_delta_compared_bytes_total). An add to an or-set of 10³
// or 10⁴ elements, space-efficient or tree-backed, likewise copies every
// pair of its parent's encoding and only writes the count and its own
// pair, wherever that lands, and its diff reads as little.
func TestAppendDiffsOnlyTheEdit(t *testing.T) {
	const bound = 128
	for _, n := range []int{1000, 10000} {
		msg := func(i int) mlog.Op {
			return mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("message %06d of 24 bytes", i)}
		}
		diffsOnlyTheEdit(t, "log", mlog.Log{}, wire.MLog{}, n, msg, bound)
		add := func(i int) orset.Op { return orset.Op{Kind: orset.Add, E: int64(uint32(i) * 2654435761)} }
		diffsOnlyTheEdit(t, "or-set", orset.OrSetSpace{}, wire.OrSetSpace{}, n, add, bound)
		diffsOnlyTheEdit(t, "or-set-spacetime", orset.OrSetSpaceTime{}, wire.OrSetSpaceTime{}, n, add, bound)
	}
}

// diffsOnlyTheEdit applies n operations op(0), …, op(n-1), then 64 more,
// each of which must grow the encoding and copy all of its parent's but
// the 4-byte count, and read at most bound bytes in its diff.
func diffsOnlyTheEdit[S, Op, Val any](t *testing.T, name string, impl core.MRDT[S, Op, Val], codec store.Codec[S], n int, op func(int) Op, bound int64) {
	t.Helper()
	const appends = 64
	reg := obs.NewRegistry()
	s := store.New[S, Op, Val](impl, codec, "main", store.WithObs(reg))
	for i := range n {
		if _, err := s.Apply("main", op(i)); err != nil {
			t.Fatal(err)
		}
	}
	encoded := reg.Counter("peepul_store_encoded_bytes_total")
	copied := reg.Counter("peepul_store_encode_copied_bytes_total")
	read := reg.Counter("peepul_store_delta_compared_bytes_total")
	most := int64(0)
	for i := range appends {
		size, _ := s.Size("main")
		e, c, r := encoded.Value(), copied.Value(), read.Value()
		if _, err := s.Apply("main", op(n+i)); err != nil {
			t.Fatal(err)
		}
		next, _ := s.Size("main")
		if e, c := encoded.Value()-e, copied.Value()-c; e != int64(next) || next <= size || c != int64(size-4) {
			t.Fatalf("%s of %d: an op encoded %d B and copied %d B of it, want %d > %d and the parent's %d bytes past its count", name, n, e, c, next, size, size-4)
		}
		most = max(most, read.Value()-r)
	}
	t.Logf("%s of %d: an op's diff reads at most %d B", name, n, most)
	if most > bound {
		t.Errorf("%s of %d: an op's diff read %d B, want at most %d", name, n, most, bound)
	}
}
