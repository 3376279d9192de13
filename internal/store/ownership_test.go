package store_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestRecycledBuffersStayPrivate: a store encodes each commit into a
// buffer it recycled from the reassembly slot when its codec has the
// append form (putState, packLocked), and reassembles each patch a peer
// ships into one whatever its codec (Integrate). Readers — Head, Size,
// EncodedState, a full export and a capture's ExportSet — run alongside
// Apply and Integrate, under a chain bound of 4, so that states are
// stored whole, as patches and as compositions, and of 1, so that every
// state is stored whole: on a log, whose states only grow, and on an
// or-set, whose removes shrink them so that a recycled buffer fits the
// next state. Afterwards the pack verifies, every head's encoded state
// is the encoding of its state, and no object stored whole holds a
// buffer with spare capacity: none holds a recyclable one. The import
// legs (checkImportPrivate) also check, after every batch, that no
// buffer a pack object held, or EncodedState returned, changed. Run
// under -race, it also shows the slot and the spare are never touched
// without the lock that guards them.
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
	t.Run("import-mlog", func(t *testing.T) {
		checkImportPrivate(t, mlog.Log{}, wire.MLog{}, func(writer, i int) mlog.Op {
			return mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("writer %d message %04d", writer, i)}
		})
	})
	t.Run("import-or-set-space", func(t *testing.T) {
		// Every other op removes an element added five ops before, so
		// that states keep their size and a recycled buffer fits the next.
		checkImportPrivate(t, orset.OrSetSpace{}, wire.OrSetSpace{}, func(_, i int) orset.Op {
			e := int64(i)
			if i%2 == 1 {
				return orset.Op{Kind: orset.Remove, E: e - 5}
			}
			return orset.Op{Kind: orset.Add, E: e}
		})
	})
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
			readAlong(s, stop, report)
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	checkSettled(t, s, codec, op(0, writes))
}

// checkSettled commits one more write, folding main's head set into one
// head, and then checks s: the pack verifies, every branch's head
// encoding is the encoding of its state, and no object stored whole holds
// a buffer with spare capacity.
func checkSettled[S, Op, Val any](t *testing.T, s *store.Store[S, Op, Val], codec store.Codec[S], last Op) {
	t.Helper()
	if _, err := s.Apply("main", last); err != nil {
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

// readAlong reads s until stop closes, reporting the first error.
func readAlong[S, Op, Val any](s *store.Store[S, Op, Val], stop <-chan struct{}, report func(error)) {
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
				report(fmt.Errorf("head %v has no commit", h))
				return
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
}

// checkImportPrivate lands a sender's batches on a receiver that commits
// a write of its own after each, while two readers run (readAlong). Under
// a chain bound of 4 on both sides, the batches hold every form an import
// reassembles or copies: each forks in itself (two children of one batch
// commit); chain-full states, which the sender stores composed onto their
// chain's snapshot, ship as the patch from their parent's state the
// sender kept; and every third batch re-ships the sender's whole history,
// every state of it known. The last batch comes from the sender reopened
// from its log, which has lost its kept patches, so its snapshots and
// compositions ship whole. After each Integrate, every buffer a resident
// pack object held before it, and every encoding EncodedState returned
// before it, holds the bytes it did: the import reassembled nothing into
// a buffer anyone holds.
func checkImportPrivate[S, Op, Val any](t *testing.T, impl core.MRDT[S, Op, Val], codec store.Codec[S], op func(writer, i int) Op) {
	const rounds, perRound = 12, 8
	log := store.NewMemLog()
	src := store.NewAt(impl, codec, "main", 100, store.WithSnapshotEvery(4), store.WithPersister(log))
	dst := store.New(impl, codec, "main", store.WithSnapshotEvery(4), store.WithStateCacheSize(2))

	var readers sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 1)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			readAlong(dst, stop, report)
		}()
	}
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		readers.Wait()
	})
	defer stopReaders()

	n := 0
	next := func(writer int) Op {
		n++
		return op(writer, n)
	}
	apply := func(s *store.Store[S, Op, Val], b string, writer int) {
		t.Helper()
		if _, err := s.Apply(b, next(writer)); err != nil {
			t.Fatal(err)
		}
	}
	type held struct{ buf, was []byte }
	objects := make(map[store.Hash]held) // by state hash: their bytes never change
	var reads []held
	var have []store.Hash
	var forks, snapshots, composed, kept, known int
	for r := range rounds {
		for range perRound {
			apply(src, "main", 1)
		}
		side := fmt.Sprintf("side-%d", r)
		if err := src.Fork("main", side); err != nil {
			t.Fatal(err)
		}
		apply(src, "main", 1)
		apply(src, side, 2)
		if err := src.Pull("main", side); err != nil {
			t.Fatal(err)
		}
		if r%3 == 2 {
			have = nil
		}
		sender := src
		if r == rounds-1 {
			var err error
			if sender, err = store.Reopen(impl, codec, log, 100, store.WithSnapshotEvery(4)); err != nil {
				t.Fatal(err)
			}
		}
		batch, heads, err := sender.ExportSincePacked("main", have)
		if err != nil {
			t.Fatal(err)
		}
		sent := store.ResidentObjects(sender)
		children := make(map[store.Hash]int)
		for _, ec := range batch {
			if len(ec.Parents) == 1 && !dst.HasCommit(ec.Parents[0]) {
				children[ec.Parents[0]]++
			}
			if len(ec.Parents) == 0 {
				continue
			}
			if ec.State != nil {
				if sent[store.StateAddr(ec.State)].Delta {
					composed++
				} else {
					snapshots++
				}
				continue
			}
			// A patch the sender did not store: kept beside a composition
			// or a snapshot.
			parent, _ := sender.Commit(ec.Parents[0])
			base, err := sender.EncodedState(parent.State)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := delta.Apply(base, ec.Patch)
			if err != nil {
				t.Fatal(err)
			}
			if o := sent[store.StateAddr(enc)]; !o.Delta || o.Base != parent.State {
				kept++
			}
		}
		for _, k := range children {
			if k > 1 {
				forks++
			}
		}

		for h, o := range store.ResidentObjects(dst) {
			if _, ok := objects[h]; !ok {
				objects[h] = held{o.Data, bytes.Clone(o.Data)}
			}
		}
		for _, h := range dst.Heads("main") {
			c, _ := dst.Commit(h)
			enc, err := dst.EncodedState(c.State)
			if err != nil {
				t.Fatal(err)
			}
			reads = append(reads, held{enc, bytes.Clone(enc)})
		}
		redundant, _, _, err := dst.Integrate("main", "src", batch, heads)
		if err != nil {
			t.Fatalf("batch %d: %v", r, err)
		}
		known += redundant
		for h, o := range objects {
			if !bytes.Equal(o.buf, o.was) {
				t.Fatalf("batch %d: the buffer of pack object %v changed", r, h)
			}
		}
		for i, e := range reads {
			if !bytes.Equal(e.buf, e.was) {
				t.Fatalf("batch %d: encoding %d EncodedState returned changed", r, i)
			}
		}
		have = heads
		apply(dst, "main", 0)
	}
	stopReaders()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	t.Logf("%d batches: %d in-batch forks, %d snapshots and %d compositions shipped whole, %d snapshots and compositions shipped as kept patches, %d known commits re-shipped", rounds, forks, snapshots, composed, kept, known)
	if forks < rounds || snapshots == 0 || composed == 0 || kept == 0 || known == 0 {
		t.Fatalf("the batches miss a form: %d forks in %d batches, %d snapshots, %d compositions, %d kept patches, %d known commits", forks, rounds, snapshots, composed, kept, known)
	}
	checkSettled(t, dst, codec, next(0))
}
