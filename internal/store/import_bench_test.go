package store_test

import (
	"runtime"
	"testing"

	"repro/internal/counter"
	"repro/internal/orset"
	"repro/internal/store"
	"repro/internal/wire"
)

// catchUp is the import layer of a deep catch-up sync, without the
// network: a sender and a receiver sharing a 3 000-element or-set
// history, and batches of the sender's next 64 packed commits, which add
// the newest element and remove the oldest in turn, so the state stays
// at 3 000.
type catchUp struct {
	src, dst     *store.Store[orset.SpaceState, orset.Op, orset.Val]
	head         []store.Hash // the sender's heads the receiver holds
	oldest, next int64
}

const catchUpShared, catchUpBatch = 3000, 64

func newCatchUp(tb testing.TB) *catchUp {
	f := &catchUp{src: orsetStore()}
	for ; f.next < catchUpShared; f.next++ {
		f.apply(tb, orset.Op{Kind: orset.Add, E: f.next})
	}
	history, head, err := f.src.ExportSincePacked("main", nil)
	if err != nil {
		tb.Fatal(err)
	}
	f.dst = store.NewAt[orset.SpaceState, orset.Op, orset.Val](orset.OrSetSpace{}, wire.OrSetSpace{}, "main", 64)
	if _, _, _, err := f.dst.Integrate("main", "remote/src", history, head); err != nil {
		tb.Fatal(err)
	}
	f.head = head
	return f
}

func (f *catchUp) apply(tb testing.TB, op orset.Op) {
	if _, err := f.src.Apply("main", op); err != nil {
		tb.Fatal(err)
	}
}

// batch commits the sender's next 64 operations and exports them packed
// against the heads the receiver holds.
func (f *catchUp) batch(tb testing.TB) ([]store.ExportedCommit, []store.Hash) {
	for j := 0; j < catchUpBatch; j += 2 {
		f.apply(tb, orset.Op{Kind: orset.Add, E: f.next})
		f.apply(tb, orset.Op{Kind: orset.Remove, E: f.oldest})
		f.next++
		f.oldest++
	}
	commits, tip, err := f.src.ExportSincePacked("main", f.head)
	if err != nil {
		tb.Fatal(err)
	}
	if len(commits) != catchUpBatch {
		tb.Fatalf("batch of %d commits, want %d", len(commits), catchUpBatch)
	}
	return commits, tip
}

// land integrates a batch and records its tip as held.
func (f *catchUp) land(tb testing.TB, commits []store.ExportedCommit, tip []store.Hash) {
	if _, _, _, err := f.dst.Integrate("main", "remote/src", commits, tip); err != nil {
		tb.Fatal(err)
	}
	f.head = tip
}

// stateBytes sums the encoded states the receiver's last n commits along
// tip's first-parent chain pin.
func (f *catchUp) stateBytes(tb testing.TB, tip store.Hash, n int) int {
	total := 0
	for h := tip; n > 0; n-- {
		c, ok := f.dst.Commit(h)
		if !ok {
			tb.Fatalf("commit %v missing", h)
		}
		enc, err := f.dst.EncodedState(c.State)
		if err != nil {
			tb.Fatal(err)
		}
		total += len(enc)
		h = c.Parents[0]
	}
	return total
}

// BenchmarkIntegrateBatch measures landing one 64-commit batch in two
// shapes: an or-set catch-up (catchUp), whose states ship as patches and
// are checked in O(edit), and a pn-counter's, whose 16-byte states each
// ship whole, as a node's link batches do under write-under-sync.
func BenchmarkIntegrateBatch(b *testing.B) {
	b.Run("or-set", func(b *testing.B) {
		f := newCatchUp(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			commits, tip := f.batch(b)
			b.StartTimer()
			f.land(b, commits, tip)
		}
	})
	b.Run("pn-counter", func(b *testing.B) {
		src := store.New[counter.PNState, counter.Op, counter.Val](counter.PNCounter{}, wire.PNCounter{}, "main")
		dst := store.NewAt[counter.PNState, counter.Op, counter.Val](counter.PNCounter{}, wire.PNCounter{}, "main", 64)
		_, head, err := src.ExportSincePacked("main", nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := 0; j < catchUpBatch; j++ {
				if _, err := src.Apply("main", counter.Op{Kind: counter.Inc, N: 1}); err != nil {
					b.Fatal(err)
				}
			}
			commits, tip, err := src.ExportSincePacked("main", head)
			if err != nil {
				b.Fatal(err)
			}
			if len(commits) != catchUpBatch {
				b.Fatalf("batch of %d commits, want %d", len(commits), catchUpBatch)
			}
			for _, ec := range commits {
				if ec.State == nil {
					b.Fatal("a pn-counter state shipped as a patch, want whole")
				}
			}
			b.StartTimer()
			if _, _, _, err := dst.Integrate("main", "remote/src", commits, tip); err != nil {
				b.Fatal(err)
			}
			head = tip
		}
	})
}

// TestIntegrateAllocatesOneEncodingPerState: landing a catch-up batch of
// 64 first-seen or-set states allocates under a tenth of the bytes of
// those states. The pack keeps each state's shipped patch, not its
// encoding, so a state's reassembled encoding is needed only until the
// next commit has been reassembled from it: each is reassembled into the
// one buffer the store recycles, and no state gets a buffer of its own.
// Nor does a state cost a decode or a second full encoding: the codec's
// CheckEdit validates the encoding in the work of the edit.
func TestIntegrateAllocatesOneEncodingPerState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const batches = 4
	f := newCatchUp(t)
	var alloc uint64
	states := 0
	for i := 0; i < batches; i++ {
		commits, tip := f.batch(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f.land(t, commits, tip)
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		states += f.stateBytes(t, tip[0], catchUpBatch)
	}
	ratio := float64(alloc) / float64(states)
	t.Logf("%d batches of %d commits: %d B allocated for %d B of first-seen states (%.2fx)", batches, catchUpBatch, alloc, states, ratio)
	if ratio >= 0.1 {
		t.Fatalf("Integrate allocated %.2fx the batch's state bytes, want < 0.1x", ratio)
	}
}
