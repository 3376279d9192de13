package store_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestRecycledBuffersStayPrivate: a store whose codec has the append form
// encodes each commit into a buffer it recycled from the reassembly slot
// (putState, packLocked). Readers — Head, Size, EncodedState, a full
// export and a capture's ExportSet — run alongside Apply, Integrate and
// GC, under a chain bound of 4, so that states are stored whole, as
// patches and as compositions, and of 1, so that every state is stored
// whole: on a log, whose states only grow, and on an or-set, whose
// removes shrink them so that a recycled buffer fits the next state.
// Afterwards the pack verifies, every head's encoded state is the
// encoding of its state, and no object stored whole holds a buffer with
// spare capacity: none holds a recyclable one. Run under -race, it also
// shows the slot and the spare are never touched without the lock that
// guards them.
func TestRecycledBuffersStayPrivate(t *testing.T) {
	for _, every := range []int{4, 1} {
		t.Run(fmt.Sprintf("mlog-chain-%d", every), func(t *testing.T) {
			checkBuffersPrivate(t, every, mlog.Log{}, wire.MLog{}, func(writer, i int) mlog.Op {
				return mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("writer %d message %04d", writer, i)}
			})
		})
		t.Run(fmt.Sprintf("or-set-space-chain-%d", every), func(t *testing.T) {
			// Both writers add and remove the same elements, so that a
			// state after a merge is no larger than the peer's.
			checkBuffersPrivate(t, every, orset.OrSetSpace{}, wire.OrSetSpace{}, func(_, i int) orset.Op {
				e := int64(i)
				if i%3 == 2 {
					return orset.Op{Kind: orset.Remove, E: e - 1}
				}
				return orset.Op{Kind: orset.Add, E: e}
			})
		})
	}
}

func checkBuffersPrivate[S, Op, Val any](t *testing.T, every int, impl core.MRDT[S, Op, Val], codec store.Codec[S], op func(writer, i int) Op) {
	const writes, rounds = 200, 20
	s := store.New(impl, codec, "main", store.WithSnapshotEvery(every), store.WithStateCacheSize(2))
	peer := store.NewAt(impl, codec, "main", 100, store.WithSnapshotEvery(every))

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 1) // the first error; report drops later ones
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := range writes {
			if _, err := s.Apply("main", op(0, i)); err != nil {
				report(err)
				return
			}
			if i%50 == 49 {
				s.GC()
			}
		}
	}()
	go func() {
		defer writers.Done()
		for r := range rounds {
			for i := range writes / rounds {
				if _, err := peer.Apply("main", op(1, r*writes/rounds+i)); err != nil {
					report(err)
					return
				}
			}
			batch, heads, err := peer.ExportSincePacked("main", nil)
			if err == nil {
				_, _, _, err = s.Integrate("main", "peer", batch, heads)
			}
			if err != nil {
				report(err)
				return
			}
		}
	}()
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Head("main"); err != nil {
					report(err)
					return
				}
				if _, err := s.Size("main"); err != nil {
					report(err)
					return
				}
				for _, h := range s.Heads("main") {
					c, ok := s.Commit(h)
					if !ok {
						continue // collected since Heads returned
					}
					if _, err := s.EncodedState(c.State); err != nil {
						report(err)
						return
					}
				}
				if _, _, err := s.ExportSincePacked("main", nil); err != nil {
					report(err)
					return
				}
				c, err := s.Snapshot("main")
				if err != nil {
					report(err)
					return
				}
				ship := make(map[store.Hash]bool)
				for _, h := range s.Heads("main") {
					ship[h] = true
				}
				_, _, err = s.ExportSet(c, ship, store.AsOf, "")
				c.Close()
				if err != nil {
					report(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	// One more write folds main's head set into one head.
	if _, err := s.Apply("main", op(0, writes)); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyPack(); err != nil {
		t.Fatal(err)
	}
	for _, b := range s.Branches() {
		hs := s.Heads(b)
		if len(hs) != 1 {
			t.Fatalf("branch %s has %d heads, want 1", b, len(hs))
		}
		head, err := s.Head(b)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := s.Commit(hs[0])
		enc, err := s.EncodedState(c.State)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, codec.Encode(head)) {
			t.Fatalf("branch %s: the head's stored encoding is not the encoding of its state", b)
		}
	}
	if n := store.WholeObjectsWithSlack(s); n != 0 {
		t.Fatalf("%d objects stored whole hold buffers with spare capacity", n)
	}
}
