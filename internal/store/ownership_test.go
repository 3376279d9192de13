package store_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/delta"
	"repro/internal/mlog"
	"repro/internal/obs"
	"repro/internal/orset"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestRecycledBuffersStayPrivate: a store encodes each commit into a
// buffer it recycled from the reassembly slot when its codec has the
// append form (putState, packLocked), and reassembles each patch a peer
// ships into one whatever its codec (Integrate). Readers — Head, Size,
// EncodedState, a full export and a capture's ExportSet — run alongside
// Apply and Integrate: on a log, whose states only grow, and on an
// or-set, whose removes shrink them so that a recycled buffer fits the
// next state, both long enough that states are stored as patches and as
// compositions onto level bases, and again through a codec whose
// encodings share no runs (scrambled), so that every state is stored
// whole and each chain is one state long; and on a pn-counter, whose 16-byte
// states never take a patch, so that every state is stored whole — those
// the store encodes into a buffer with room to spare as a copy, those a
// peer ships whole as the exact-size buffer itself. Afterwards the pack
// verifies, every head's encoded state is the encoding of its state, and
// no object stored whole holds a buffer with spare capacity: none holds
// a recyclable one. The import legs (checkImportPrivate) also check,
// after every batch, that no buffer a pack object held, or EncodedState
// returned, changed. Run under -race, it also shows the slot and the
// spare are never touched without the lock that guards them.
func TestRecycledBuffersStayPrivate(t *testing.T) {
	t.Run("mlog", func(t *testing.T) {
		checkBuffersPrivate(t, mlog.Log{}, wire.MLog{}, func(writer, i int) mlog.Op {
			return mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("writer %d message %04d", writer, i)}
		})
	})
	t.Run("or-set-space", func(t *testing.T) {
		// Both writers add and remove the same elements, so that a state
		// after a merge is no larger than the peer's.
		checkBuffersPrivate(t, orset.OrSetSpace{}, wire.OrSetSpace{}, func(_, i int) orset.Op {
			e := int64(i)
			if i%3 == 2 {
				return orset.Op{Kind: orset.Remove, E: e - 1}
			}
			return orset.Op{Kind: orset.Add, E: e}
		})
	})
	// The chain-1 legs run the same ops through scrambled, so that every
	// state is stored whole: each chain is one state long.
	t.Run("mlog-chain-1", func(t *testing.T) {
		s := checkBuffersPrivate(t, mlog.Log{}, scrambled[mlog.State]{wire.MLog{}}, func(writer, i int) mlog.Op {
			return mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("writer %d message %04d", writer, i)}
		})
		checkAllWhole(t, s)
	})
	t.Run("or-set-space-chain-1", func(t *testing.T) {
		s := checkBuffersPrivate(t, orset.OrSetSpace{}, scrambled[orset.SpaceState]{wire.OrSetSpace{}}, func(_, i int) orset.Op {
			e := int64(i)
			if i%3 == 2 {
				return orset.Op{Kind: orset.Remove, E: e - 1}
			}
			return orset.Op{Kind: orset.Add, E: e}
		})
		checkAllWhole(t, s)
	})
	t.Run("pn-counter-whole", func(t *testing.T) {
		// The store increments and the peer decrements, so a state with no
		// increment is one the peer shipped.
		s := checkBuffersPrivate(t, counter.PNCounter{}, roomyPNCounter{}, func(writer, _ int) counter.Op {
			if writer == 0 {
				return counter.Op{Kind: counter.Inc, N: 1}
			}
			return counter.Op{Kind: counter.Dec, N: 1}
		})
		checkAllWhole(t, s)
		copied, held := 0, 0
		for _, o := range store.ResidentObjects(s) {
			st, err := wire.PNCounter{}.Decode(o.Data)
			if err != nil {
				t.Fatal(err)
			}
			if st.P == 0 && st.N > 0 {
				held++
			} else {
				copied++
			}
		}
		t.Logf("%d states stored whole: %d encoded with room to spare and copied, %d shipped whole and held in place", copied+held, copied, held)
		if copied == 0 || held == 0 {
			t.Fatalf("the states stored whole miss a form: %d copied, %d held in place", copied, held)
		}
	})
	t.Run("mlog-alternating", checkAlternatingPrivate)
	t.Run("import-mlog", func(t *testing.T) {
		checkImportPrivate(t, mlog.Log{}, wire.MLog{}, func(writer, i int) mlog.Op {
			return mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("writer %d message %04d", writer, i)}
		})
	})
	t.Run("import-or-set-space", func(t *testing.T) {
		// Every fourth op removes an element added five ops before, so
		// that states grow, enough for chain-full ones to compose, and
		// shrink now and then, so that a recycled buffer fits the next.
		checkImportPrivate(t, orset.OrSetSpace{}, wire.OrSetSpace{}, func(_, i int) orset.Op {
			e := int64(i)
			if i%4 == 3 {
				return orset.Op{Kind: orset.Remove, E: e - 5}
			}
			return orset.Op{Kind: orset.Add, E: e}
		})
	})
}

// checkAlternatingPrivate runs a log store whose appends alternate
// between two recycled buffers, each written only in front of the
// entries it still holds from the grandparent's encoding, interleaved
// with what breaks the alternation: a Fork whose branch takes an append,
// the two-head merge the next append on main commits, an append to a
// branch forked from the empty log and never merged, whose entries share
// no tail with main's, an Integrate of a peer's batch, and states stored
// whole from a buffer the codec wrote them at the end of. Two readers
// read along (readAlong). After every append, the encoding the store
// holds for the new head is the codec's encoding of its state; after
// every step, no buffer a resident pack object held and no encoding
// EncodedState returned before it has changed. At the end the store
// settles (checkSettled), and no object stored whole holds an encoding
// written with room in front of it, which would pin that room.
func checkAlternatingPrivate(t *testing.T) {
	const rounds, appends = 24, 12
	reg := obs.NewRegistry()
	codec := &watchedLog{roomy: make(map[*byte]bool)}
	s := store.New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, codec, "main", store.WithObs(reg))
	peer := store.NewAt(mlog.Log{}, wire.MLog{}, "main", 100)

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
			readAlong(s, stop, report)
		}()
	}
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		readers.Wait()
	})
	defer stopReaders()

	type held struct{ buf, was []byte }
	var kept []held
	seen := make(map[store.Hash]bool)
	keep := func() {
		for h, o := range store.ResidentObjects(s) {
			if !seen[h] {
				seen[h] = true
				kept = append(kept, held{o.Data, bytes.Clone(o.Data)})
			}
		}
		for _, h := range s.Heads("main") {
			c, _ := s.Commit(h)
			enc, err := s.EncodedState(c.State)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, held{enc, bytes.Clone(enc)})
		}
	}
	unchanged := func(step string, r int) {
		t.Helper()
		for i, k := range kept {
			if !bytes.Equal(k.buf, k.was) {
				t.Fatalf("round %d, %s: held buffer %d changed", r, step, i)
			}
		}
		keep()
	}
	written := reg.Counter("peepul_store_encode_written_bytes_total")
	n, local, alternated, whole := 0, 0, 0, 0
	op := func(writer int) mlog.Op {
		n++
		return mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("writer %d message %04d", writer, n)}
	}
	// apply appends to branch b and reports whether its new state is
	// stored whole.
	apply := func(b string, writer int) bool {
		t.Helper()
		w := written.Value()
		if _, err := s.Apply(b, op(writer)); err != nil {
			t.Fatal(err)
		}
		local++
		if written.Value()-w <= 128 {
			alternated++
		}
		c, _ := s.Commit(s.Heads(b)[0])
		o, ok := store.ResidentObjects(s)[c.State]
		if ok && !o.Delta {
			whole++
		}
		head, err := s.Head(b)
		if err != nil {
			t.Fatal(err)
		}
		if enc, err := s.EncodedState(c.State); err != nil || !bytes.Equal(enc, codec.Encode(head)) {
			t.Fatalf("append %d to %s: the store holds an encoding other than its state's (%v)", local, b, err)
		}
		return ok && !o.Delta
	}
	if err := s.Fork("main", "apart"); err != nil {
		t.Fatal(err)
	}
	var have []store.Hash
	for r := range rounds {
		for range appends {
			if apply("main", 0) {
				// The next append on main starts from a state stored
				// whole, which no read puts in the reassembly slot; the
				// slot holds apart's.
				apply("apart", 3)
				apply("main", 0)
				apply("main", 0)
			}
		}
		unchanged("appends", r)
		side := fmt.Sprintf("side-%d", r)
		if err := s.Fork("main", side); err != nil {
			t.Fatal(err)
		}
		apply(side, 2)
		apply("main", 0)
		if err := s.Pull("main", side); err != nil {
			t.Fatal(err)
		}
		unchanged("fork", r)
		apply("main", 0) // commits the two-head merge first
		unchanged("merge", r)
		apply("apart", 3)
		apply("main", 0)
		unchanged("apart", r)
		for range 4 {
			if _, err := peer.Apply("main", op(1)); err != nil {
				t.Fatal(err)
			}
		}
		batch, heads, err := peer.ExportSincePacked("main", have)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s.Integrate("main", "peer", batch, heads); err != nil {
			t.Fatal(err)
		}
		have = heads
		unchanged("integrate", r)
	}
	stopReaders()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	checkSettled(t, s, store.Codec[mlog.State](codec), op(0))
	for h, o := range store.ResidentObjects(s) {
		if !o.Delta && len(o.Data) > 0 && codec.wroteRoomy(unsafe.SliceData(o.Data)) {
			t.Fatalf("object %v stored whole holds an encoding written with room in front of it", h)
		}
	}
	t.Logf("%d local appends: %d wrote at most 128 B, %d stored whole", local, alternated, whole)
	if alternated < rounds*appends/2 || whole == 0 {
		t.Fatalf("%d appends wrote at most 128 B and %d were stored whole, want at least %d and 1", alternated, whole, rounds*appends/2)
	}
}

// watchedLog is wire.MLog noting the start of each encoding its append
// form wrote with room in front of it in its buffer.
type watchedLog struct {
	wire.MLog
	mu    sync.Mutex
	roomy map[*byte]bool
}

func (c *watchedLog) AppendEncode(dst []byte, inPlace int, next, prev mlog.State, prevEnc []byte, runs []delta.CopyRun) (enc, buf []byte, copied []delta.CopyRun) {
	enc, buf, runs = c.MLog.AppendEncode(dst, inPlace, next, prev, prevEnc, runs)
	if len(buf) > len(enc) {
		c.mu.Lock()
		c.roomy[unsafe.SliceData(enc)] = true
		c.mu.Unlock()
	}
	return enc, buf, runs
}

func (c *watchedLog) wroteRoomy(p *byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roomy[p]
}

// roomyPNCounter is wire.PNCounter encoding into a buffer with room to
// spare in front, as a codec whose states change size does: a store
// copies each state it encodes with it and recycles the buffer, where it
// would hold wire.PNCounter's exact 16-byte buffers in place, as it holds
// each state a peer ships whole, copied at its exact size.
type roomyPNCounter struct{ wire.PNCounter }

func (c roomyPNCounter) AppendEncode(dst []byte, inPlace int, next, prev counter.PNState, prevEnc []byte, runs []delta.CopyRun) (enc, buf []byte, copied []delta.CopyRun) {
	if len(dst) < 48 {
		dst = make([]byte, 48)
	}
	return c.PNCounter.AppendEncode(dst, inPlace, next, prev, prevEnc, runs)
}

// scrambled is a codec whose encoding of a state is inner's, prefixed by
// an 8-byte seed hashed from it and XORed past the seed with a keystream
// the seed starts: the encodings of two states share no runs, so no
// patch is shorter than its state and the store keeps every state whole.
// Its append form encodes at the end of the store's recycled buffer,
// with room to spare in front, and reports no copied runs.
type scrambled[S any] struct{ inner store.Codec[S] }

func (c scrambled[S]) Encode(st S) []byte {
	enc, _, _ := c.AppendEncode(nil, 0, st, st, nil, nil)
	return enc
}

func (c scrambled[S]) AppendEncode(dst []byte, _ int, next, _ S, _ []byte, runs []delta.CopyRun) (enc, buf []byte, copied []delta.CopyRun) {
	plain := c.inner.Encode(next)
	n := 8 + len(plain)
	if len(dst) < n {
		dst = make([]byte, n+n/8)
	}
	enc = dst[len(dst)-n:]
	h := fnv.New64a()
	h.Write(plain)
	seed := h.Sum64()
	binary.BigEndian.PutUint64(enc, seed)
	copy(enc[8:], scramble(seed, plain))
	return enc, dst, runs
}

func (c scrambled[S]) Decode(b []byte) (S, error) {
	if len(b) < 8 {
		var zero S
		return zero, fmt.Errorf("scrambled encoding of %d bytes has no seed", len(b))
	}
	return c.inner.Decode(scramble(binary.BigEndian.Uint64(b), b[8:]))
}

// scramble returns b XORed with the xorshift keystream seed starts.
func scramble(seed uint64, b []byte) []byte {
	out := make([]byte, len(b))
	x := seed | 1
	for i, v := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = v ^ byte(x)
	}
	return out
}

// checkAllWhole fails unless s stores every state whole.
func checkAllWhole[S, Op, Val any](t *testing.T, s *store.Store[S, Op, Val]) {
	t.Helper()
	if ps := s.PackStats(); ps.Deltas != 0 {
		t.Fatalf("%d of %d states stored as patches, want none", ps.Deltas, ps.Objects)
	}
}

// checkBuffersPrivate runs a store whose writer applies ops while a peer
// applies its own and ships them in batches the store integrates, and two
// readers read along (readAlong); then it settles the store
// (checkSettled) and returns it.
func checkBuffersPrivate[S, Op, Val any](t *testing.T, impl core.MRDT[S, Op, Val], codec store.Codec[S], op func(writer, i int) Op) *store.Store[S, Op, Val] {
	const writes, rounds = 200, 20
	s := store.New(impl, codec, "main")
	peer := store.NewAt(impl, codec, "main", 100)

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
	return s
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
// a write of its own after each, while two readers run (readAlong). The
// batches hold every form an import reassembles or copies: each forks in
// itself (two children of one batch commit); chain-full states, which the
// sender stores composed onto a level base or its chain's snapshot, ship
// as the patch from their parent's state the sender kept; and every third
// batch re-ships the sender's whole history, every state of it known. The
// last batch comes from the sender reopened from its log, which has lost
// its kept patches, so its snapshots and compositions ship whole. After each Integrate, every buffer a resident
// pack object held before it, and every encoding EncodedState returned
// before it, holds the bytes it did: the import reassembled nothing into
// a buffer anyone holds.
func checkImportPrivate[S, Op, Val any](t *testing.T, impl core.MRDT[S, Op, Val], codec store.Codec[S], op func(writer, i int) Op) {
	const rounds, perRound = 12, 12
	log := store.NewMemLog()
	src := store.NewAt(impl, codec, "main", 100, store.WithPersister(log))
	dst := store.New(impl, codec, "main")

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
			if sender, err = store.Reopen(impl, codec, log, 100); err != nil {
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
