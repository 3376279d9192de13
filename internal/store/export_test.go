package store_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/alphamap"
	"repro/internal/chat"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/gmap"
	"repro/internal/gset"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/queue"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestExportImportRoundTrip(t *testing.T) {
	src := counterStore()
	inc(t, src, "main", 1)
	inc(t, src, "main", 2)
	commits, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(commits) != 3 { // root + two ops
		t.Fatalf("exported %d commits, want 3", len(commits))
	}

	dst := store.NewAt[int64, counter.Op, counter.Val](
		counter.IncCounter{}, wire.IncCounter{}, "local", 64)
	if err := dst.Import("remote/main", commits, head); err != nil {
		t.Fatal(err)
	}
	v, err := dst.Head("remote/main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("imported head = %d, want 3", v)
	}
	// The tracking branch merges into local like any other branch.
	if _, err := dst.Apply("local", counter.Op{Kind: counter.Inc, N: 10}); err != nil {
		t.Fatal(err)
	}
	if err := dst.Pull("local", "remote/main"); err != nil {
		t.Fatal(err)
	}
	lv, _ := dst.Head("local")
	if lv != 13 {
		t.Fatalf("merged local = %d, want 13", lv)
	}
}

func TestImportIsIdempotent(t *testing.T) {
	src := counterStore()
	inc(t, src, "main", 5)
	commits, head, _ := src.Export("main")
	dst := store.NewAt[int64, counter.Op, counter.Val](
		counter.IncCounter{}, wire.IncCounter{}, "local", 64)
	if err := dst.Import("remote/main", commits, head); err != nil {
		t.Fatal(err)
	}
	after := dst.NumCommits()
	for i := 0; i < 3; i++ {
		if err := dst.Import("remote/main", commits, head); err != nil {
			t.Fatal(err)
		}
	}
	if got := dst.NumCommits(); got != after {
		t.Fatalf("commits after repeated import = %d, want %d (content addressing dedupes)", got, after)
	}
}

func TestImportRejectsUnknownParent(t *testing.T) {
	src := counterStore()
	inc(t, src, "main", 1)
	inc(t, src, "main", 2)
	commits, head, _ := src.Export("main")
	dst := counterStore()
	// Drop the middle commit: the final op commit now references a parent
	// the destination has never seen. (Dropping the root would not do —
	// both stores share the identical content-addressed root.)
	err := dst.Import("remote/x", append([]store.ExportedCommit{commits[0]}, commits[2:]...), head)
	if !errors.Is(err, store.ErrBadImport) {
		t.Fatalf("Import = %v, want ErrBadImport", err)
	}
}

func TestImportRejectsBogusHead(t *testing.T) {
	src := counterStore()
	inc(t, src, "main", 1)
	commits, _, _ := src.Export("main")
	dst := counterStore()
	err := dst.Import("remote/x", commits, []store.Hash{{0xde, 0xad}})
	if !errors.Is(err, store.ErrBadImport) {
		t.Fatalf("Import = %v, want ErrBadImport", err)
	}
}

func TestImportRejectsUndecodableState(t *testing.T) {
	src := counterStore()
	inc(t, src, "main", 1)
	commits, head, _ := src.Export("main")
	commits[0].State = []byte{1, 2, 3} // not a valid counter payload
	dst := counterStore()
	err := dst.Import("remote/x", commits, head)
	if !errors.Is(err, store.ErrBadImport) {
		t.Fatalf("Import = %v, want ErrBadImport", err)
	}
}

func TestExportUnknownBranch(t *testing.T) {
	s := counterStore()
	if _, _, err := s.Export("ghost"); !errors.Is(err, store.ErrNoBranch) {
		t.Fatalf("Export = %v, want ErrNoBranch", err)
	}
}

func TestExportTopologicalOrder(t *testing.T) {
	s := counterStore()
	inc(t, s, "main", 1)
	s.Fork("main", "dev")
	inc(t, s, "main", 2)
	inc(t, s, "dev", 4)
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	commits, head, err := s.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	// Re-import into a fresh store in the given order: parents must always
	// precede children or the import fails.
	dst := store.NewAt[int64, counter.Op, counter.Val](
		counter.IncCounter{}, wire.IncCounter{}, "local", 64)
	if err := dst.Import("remote/main", commits, head); err != nil {
		t.Fatalf("topological order violated: %v", err)
	}
	v, _ := dst.Head("remote/main")
	if v != 7 {
		t.Fatalf("imported merge head = %d, want 7", v)
	}
}

// TestImportRejectsBogusGeneration pins the generation invariant at the
// trust boundary: the generation-guided DAG walks assume
// Gen = 1 + max parent generation, so Import must verify transferred
// generations rather than install whatever a peer shipped.
func TestImportRejectsBogusGeneration(t *testing.T) {
	src := counterStore()
	inc(t, src, "main", 1)
	inc(t, src, "main", 2)
	commits, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []int{-1, 1, -10} {
		tampered := append([]store.ExportedCommit(nil), commits...)
		tampered[len(tampered)-1].Gen += delta
		dst := store.NewAt[int64, counter.Op, counter.Val](
			counter.IncCounter{}, wire.IncCounter{}, "local", 64)
		err := dst.Import("remote/main", tampered, head)
		if !errors.Is(err, store.ErrBadImport) {
			t.Fatalf("Gen%+d: import = %v, want ErrBadImport", delta, err)
		}
	}
}

// TestExportedCommitsAreCopies is the aliasing regression test: Export
// used to hand callers the store's own object buffers (and parent
// slices), so a caller mutating an exported commit silently corrupted
// the store. Exported commits must be copies — mutate every buffer of
// one export, then check the store still reads, re-exports identically,
// and re-imports cleanly elsewhere.
func TestExportedCommitsAreCopies(t *testing.T) {
	src := counterStore()
	inc(t, src, "main", 1)
	inc(t, src, "main", 2)
	if err := src.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	inc(t, src, "main", 4)
	inc(t, src, "dev", 8)
	if err := src.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	wantHead, _ := src.Head("main")
	wantSize, _ := src.Size("main")

	pristine, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	mutated, _, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	for i := range mutated {
		for j := range mutated[i].State {
			mutated[i].State[j] ^= 0xff
		}
		for j := range mutated[i].Parents {
			mutated[i].Parents[j] = store.Hash{0xbb}
		}
	}

	// The store must be untouched by the mutation...
	if got, _ := src.Head("main"); got != wantHead {
		t.Fatalf("head changed after mutating an export: %d, want %d", got, wantHead)
	}
	if got, _ := src.Size("main"); got != wantSize {
		t.Fatalf("size changed after mutating an export: %d, want %d", got, wantSize)
	}
	again, _, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(pristine) {
		t.Fatalf("re-export has %d commits, want %d", len(again), len(pristine))
	}
	for i := range again {
		if string(again[i].State) != string(pristine[i].State) {
			t.Fatalf("re-exported commit %d state changed after caller mutation", i)
		}
		for j := range again[i].Parents {
			if again[i].Parents[j] != pristine[i].Parents[j] {
				t.Fatalf("re-exported commit %d parents changed after caller mutation", i)
			}
		}
	}
	// ...and the pristine export still imports into a fresh store.
	dst := store.NewAt[int64, counter.Op, counter.Val](
		counter.IncCounter{}, wire.IncCounter{}, "local", 64)
	if err := dst.Import("remote/main", pristine, head); err != nil {
		t.Fatalf("pristine export no longer imports: %v", err)
	}
	if v, _ := dst.Head("remote/main"); v != wantHead {
		t.Fatalf("imported head = %d, want %d", v, wantHead)
	}
}

// paddedCodec decodes like the int64 wire codec but tolerates trailing
// garbage, making non-canonical encodings representable: Decode accepts
// them, Encode never produces them.
type paddedCodec struct{ wire.IncCounter }

func (paddedCodec) Decode(b []byte) (int64, error) {
	if len(b) > 8 {
		b = b[:8]
	}
	return wire.IncCounter{}.Decode(b)
}

// TestImportRejectsNonCanonicalState: an encoded state that decodes fine
// but does not re-encode to the same bytes would give one logical state
// two content addresses (the peer's hash and the local one), forking
// identical histories forever — Import must refuse it.
func TestImportRejectsNonCanonicalState(t *testing.T) {
	src := store.New[int64, counter.Op, counter.Val](counter.IncCounter{}, paddedCodec{}, "main")
	inc(t, src, "main", 3)
	commits, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]store.ExportedCommit(nil), commits...)
	last := tampered[len(tampered)-1]
	last.State = append(append([]byte(nil), last.State...), 0xff)
	tampered[len(tampered)-1] = last
	dst := store.New[int64, counter.Op, counter.Val](counter.IncCounter{}, paddedCodec{}, "local")
	if err := dst.Import("remote/main", tampered, head); !errors.Is(err, store.ErrBadImport) {
		t.Fatalf("non-canonical state: import = %v, want ErrBadImport", err)
	}
	// The untampered batch still imports cleanly.
	if err := dst.Import("remote/main", commits, head); err != nil {
		t.Fatal(err)
	}
}

// swapping is a datatype whose operations matching at swap the first two
// elements of their result: a peer committing states out of the order
// its datatype's searches and merges rely on, which its codec still
// encodes.
type swapping[S ~[]E, E, Op, Val any] struct {
	core.MRDT[S, Op, Val]
	at func(Op) bool
}

func (d swapping[S, E, Op, Val]) Do(op Op, s S, t core.Timestamp) (S, Val) {
	next, v := d.MRDT.Do(op, s, t)
	if d.at(op) {
		next = slices.Clone(next)
		next[0], next[1] = next[1], next[0]
	}
	return next, v
}

// swappingTree disorders an or-set-space-time state as swapping does a
// slice: at matching operations it rebuilds the tree from its in-order
// pairs with the first two swapped.
type swappingTree struct {
	orset.OrSetSpaceTime
	at func(orset.Op) bool
}

func (d swappingTree) Do(op orset.Op, s orset.TreeState, t core.Timestamp) (orset.TreeState, orset.Val) {
	next, v := d.OrSetSpaceTime.Do(op, s, t)
	if d.at(op) {
		ps := orset.Flatten(next)
		ps[0], ps[1] = ps[1], ps[0]
		next = orset.BuildBalanced(ps)
	}
	return next, v
}

// twinningQueue forges a functional-queue state the way swappingTree
// forges a tree: at matching operations it rebuilds the queue from its
// oldest-first pairs with the second given the first's timestamp. A
// swap would not do: queue states need not ascend (wire.Queue).
type twinningQueue struct {
	queue.Queue
	at func(queue.Op) bool
}

func (d twinningQueue) Do(op queue.Op, s queue.State, t core.Timestamp) (queue.State, queue.Val) {
	next, v := d.Queue.Do(op, s, t)
	if d.at(op) {
		ps := next.ToSlice()
		ps[1].T = ps[0].T
		next = queue.FromSlice(ps)
	}
	return next, v
}

// TestImportRejectsDisorderedState: a packed batch of six commits whose
// commit 3 pins a state with two swapped elements — or-set pairs out of
// ascending order, log entries out of descending timestamp order, g-set
// elements, g-map or α-map keys out of ascending order, two queue
// elements with one timestamp — fails to import
// naming commit 3, with commits 0–2 installed and none after, through
// the real wire codecs.
func TestImportRejectsDisorderedState(t *testing.T) {
	const k = 3
	t.Run("gset", func(t *testing.T) {
		var ops []gset.Op
		for i := range 6 {
			ops = append(ops, gset.Op{Kind: gset.Add, E: int64(10 * (i + 1))})
		}
		bad := func(op gset.Op) bool { return op == ops[k] }
		importDisordered(t, gset.Set{}, swapping[gset.State, int64, gset.Op, gset.Val]{gset.Set{}, bad}, wire.GSet{}, ops, k)
	})
	t.Run("gmap", func(t *testing.T) {
		var ops []gmap.Op
		for i := range 6 {
			ops = append(ops, gmap.Op{Kind: gmap.Put, K: fmt.Sprint("k", i), V: int64(i)})
		}
		bad := func(op gmap.Op) bool { return op == ops[k] }
		importDisordered(t, gmap.Map{}, swapping[gmap.State, gmap.Entry, gmap.Op, gmap.Val]{gmap.Map{}, bad}, wire.GMap{}, ops, k)
	})
	t.Run("or-set", func(t *testing.T) {
		var ops []orset.Op
		for i := range 6 {
			ops = append(ops, orset.Op{Kind: orset.Add, E: int64(10 * (i + 1))})
		}
		bad := func(op orset.Op) bool { return op == ops[k] }
		importDisordered(t, orset.OrSet{}, swapping[orset.State, orset.Pair, orset.Op, orset.Val]{orset.OrSet{}, bad}, wire.OrSet{}, ops, k)
	})
	t.Run("or-set-space", func(t *testing.T) {
		var ops []orset.Op
		for i := range 6 {
			ops = append(ops, orset.Op{Kind: orset.Add, E: int64(10 * (i + 1))})
		}
		bad := func(op orset.Op) bool { return op == ops[k] }
		importDisordered(t, orset.OrSetSpace{}, swapping[orset.SpaceState, orset.Pair, orset.Op, orset.Val]{orset.OrSetSpace{}, bad}, wire.OrSetSpace{}, ops, k)
	})
	t.Run("or-set-space-time", func(t *testing.T) {
		var ops []orset.Op
		for i := range 6 {
			ops = append(ops, orset.Op{Kind: orset.Add, E: int64(10 * (i + 1))})
		}
		bad := func(op orset.Op) bool { return op == ops[k] }
		importDisordered(t, orset.OrSetSpaceTime{}, swappingTree{orset.OrSetSpaceTime{}, bad}, wire.OrSetSpaceTime{}, ops, k)
	})
	t.Run("alpha-map", func(t *testing.T) {
		var ops []chat.Op
		for i := range 6 {
			ops = append(ops, chat.Op{Kind: chat.Send, Ch: fmt.Sprint("ch", i), Msg: "hello"})
		}
		bad := func(op chat.Op) bool { return op == ops[k] }
		importDisordered(t, chat.Chat{}, swapping[chat.State, alphamap.Entry[mlog.State], chat.Op, chat.Val]{chat.Chat{}, bad}, wire.Chat{}, ops, k)
	})
	t.Run("mlog", func(t *testing.T) {
		var ops []mlog.Op
		for i := range 6 {
			ops = append(ops, mlog.Op{Kind: mlog.Append, Msg: fmt.Sprint("m", i)})
		}
		bad := func(op mlog.Op) bool { return op == ops[k] }
		importDisordered(t, mlog.Log{}, swapping[mlog.State, mlog.Entry, mlog.Op, mlog.Val]{mlog.Log{}, bad}, wire.MLog{}, ops, k)
	})
	t.Run("functional-queue", func(t *testing.T) {
		var ops []queue.Op
		for i := range 6 {
			ops = append(ops, queue.Op{Kind: queue.Enqueue, V: int64(10 * (i + 1))})
		}
		bad := func(op queue.Op) bool { return op == ops[k] }
		importDisordered(t, queue.Queue{}, twinningQueue{queue.Queue{}, bad}, wire.Queue{}, ops, k)
	})
}

// importDisordered commits ops on a store running forger, whose op k
// disorders its state, ships them packed to a store running impl, and
// checks the import fails on commit k.
func importDisordered[S, Op, Val any](t *testing.T, impl, forger core.MRDT[S, Op, Val], codec store.Codec[S], ops []Op, k int) {
	src := store.New(forger, codec, "main")
	dst := store.New(impl, codec, "main")
	var hashes []store.Hash
	for _, op := range ops {
		if _, err := src.Apply("main", op); err != nil {
			t.Fatal(err)
		}
		h, err := src.HeadHash("main")
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	batch, heads, err := src.ExportSincePacked("main", dst.Heads("main"))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ops) {
		t.Fatalf("batch of %d commits, want one per op (%d)", len(batch), len(ops))
	}
	err = dst.Import("remote/src", batch, heads)
	if !errors.Is(err, store.ErrBadImport) || !strings.Contains(err.Error(), fmt.Sprintf("commit %d state", k)) {
		t.Fatalf("Import = %v, want ErrBadImport naming commit %d", err, k)
	}
	for i, h := range hashes {
		if got := dst.HasCommit(h); got != (i < k) {
			t.Errorf("commit %d installed = %v, want %v", i, got, i < k)
		}
	}
}

// patchOf writes a patch (internal/delta's format) from base that
// rebuilds, in order, each piece: a []byte goes in as literal bytes, a
// [2]int{off, n} copies base[off:off+n]. It returns the patch and the
// encoding it rebuilds.
func patchOf(base []byte, pieces ...any) (patch, enc []byte) {
	var ops []byte
	for _, p := range pieces {
		switch p := p.(type) {
		case []byte:
			ops = append(ops, 0)
			ops = binary.AppendUvarint(ops, uint64(len(p)))
			ops = append(ops, p...)
			enc = append(enc, p...)
		case [2]int:
			ops = append(ops, 1)
			ops = binary.AppendUvarint(ops, uint64(p[0]))
			ops = binary.AppendUvarint(ops, uint64(p[1]))
			enc = append(enc, base[p[0]:p[0]+p[1]]...)
		}
	}
	patch = binary.AppendUvarint(nil, uint64(len(base)))
	patch = binary.AppendUvarint(patch, uint64(len(enc)))
	return append(patch, ops...), enc
}

// TestImportRefusesForgedEdits: a patched or-set state, space-efficient
// or tree-backed, that is out of order or miscounted fails the import at
// its commit, whose state the receiver checks from the patch's copy runs
// (CheckEdit): a literal pair that repeats the element of the copied pair
// before it or after it, a copy 8 bytes off the pair grid that lands a
// timestamp where an element goes, and a count one above the pairs that
// follow. Each forgery is
// shipped on a base the receiver holds, and at the end of a batch whose
// earlier commits it builds on, which install while it does not.
func TestImportRefusesForgedEdits(t *testing.T) {
	t.Run("or-set-space", func(t *testing.T) {
		importForgedEdits(t, orset.OrSetSpace{}, wire.OrSetSpace{})
	})
	t.Run("or-set-space-time", func(t *testing.T) {
		importForgedEdits(t, orset.OrSetSpaceTime{}, wire.OrSetSpaceTime{})
	})
}

func importForgedEdits[S any](t *testing.T, impl core.MRDT[S, orset.Op, orset.Val], codec store.Codec[S]) {
	const n, k = 6, 3 // the base's pairs, and the rank each forgery edits
	src := store.NewAt(impl, codec, "main", 100)
	var hashes []store.Hash
	for i := range n {
		// Elements above every timestamp, so that a timestamp read as an
		// element is out of order.
		if _, err := src.Apply("main", orset.Op{Kind: orset.Add, E: 1<<62 + 10*int64(i)}); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, src.Heads("main")[0])
	}
	parent, _ := src.Commit(hashes[n-1])
	base, err := src.EncodedState(parent.State)
	if err != nil {
		t.Fatal(err)
	}
	count := func(c int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(c)) }
	// Pairs that repeat the element of the pair before rank k and of the
	// pair at rank k, which the forgeries put before and after them.
	before, after := slices.Clone(base[4+16*(k-1):4+16*k]), slices.Clone(base[4+16*k:4+16*(k+1)])
	binary.BigEndian.PutUint64(before[8:], 1)
	binary.BigEndian.PutUint64(after[8:], 1)
	forgeries := []struct {
		name, why string
		pieces    []any
	}{
		{"literal-after-run", fmt.Sprintf("set pair %d is out of order", k), []any{count(n + 1), [2]int{4, 16 * k}, before, [2]int{4 + 16*k, 16 * (n - k)}}},
		{"literal-before-run", fmt.Sprintf("set pair %d is out of order", k+1), []any{count(n + 1), [2]int{4, 16 * k}, after, [2]int{4 + 16*k, 16 * (n - k)}}},
		{"unaligned", fmt.Sprintf("set pair %d is out of order", k), []any{[2]int{0, 4 + 16*k}, [2]int{4 + 16*k - 8, 16}, [2]int{4 + 16*(k+1), 16 * (n - k - 1)}}},
		{"count", "exceeds remaining payload", []any{count(n + 1), [2]int{4, 16 * n}}},
	}
	for _, f := range forgeries {
		patch, enc := patchOf(base, f.pieces...)
		c := store.Commit{Parents: []store.Hash{hashes[n-1]}, State: store.StateAddr(enc), Gen: parent.Gen + 1, Time: parent.Time + 1}
		forged := store.ExportedCommit{Parents: c.Parents, Patch: patch, Gen: c.Gen, Time: c.Time}
		h := store.CommitHash(c)
		want := func(i int) string { return fmt.Sprintf("commit %d state encoding is not canonical", i) }

		// queued-base: the forgery's base is a commit installed earlier in
		// the same batch, not one the receiver stored before it.
		t.Run(f.name+"/queued-base", func(t *testing.T) {
			dst := store.New(impl, codec, "main")
			batch, _, err := src.ExportSincePacked("main", dst.Heads("main"))
			if err != nil {
				t.Fatal(err)
			}
			err = dst.Import("remote/src", append(batch, forged), []store.Hash{h})
			if !errors.Is(err, store.ErrBadImport) || !strings.Contains(err.Error(), want(n)) || !strings.Contains(err.Error(), f.why) {
				t.Fatalf("Import = %v, want ErrBadImport naming commit %d: %s", err, n, f.why)
			}
			for i, ch := range append(slices.Clone(hashes), h) {
				if got := dst.HasCommit(ch); got != (i < n) {
					t.Errorf("commit %d installed = %v, want %v", i, got, i < n)
				}
			}
		})
		t.Run(f.name+"/stored-base", func(t *testing.T) {
			dst := store.New(impl, codec, "main")
			batch, heads, err := src.ExportSincePacked("main", dst.Heads("main"))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := dst.Integrate("main", "src", batch, heads); err != nil {
				t.Fatal(err)
			}
			err = dst.Import("remote/src", []store.ExportedCommit{forged}, []store.Hash{h})
			if !errors.Is(err, store.ErrBadImport) || !strings.Contains(err.Error(), want(0)) || !strings.Contains(err.Error(), f.why) {
				t.Fatalf("Import = %v, want ErrBadImport naming commit 0: %s", err, f.why)
			}
			if dst.HasCommit(h) {
				t.Error("the forged commit is installed")
			}
		})
	}
}

// TestImportRefusesASecondRoot: every store mints one root, the initial
// state at generation 1 and time 0, so a parentless commit is the
// receiver's own root or fails the import — one pinning another state,
// and one pinning the initial state at another time — while the store's
// own root, shipped with a full history, lands.
func TestImportRefusesASecondRoot(t *testing.T) {
	codec := wire.OrSetSpace{}
	dst := store.New(orset.OrSetSpace{}, codec, "main")
	for _, root := range []struct {
		name  string
		state orset.SpaceState
		time  core.Timestamp
	}{
		{"other-state", orset.SpaceState{{E: 7, T: 1}}, 0},
		{"other-time", nil, 5},
	} {
		t.Run(root.name, func(t *testing.T) {
			enc := codec.Encode(root.state)
			c := store.Commit{State: store.StateAddr(enc), Gen: 1, Time: root.time}
			h := store.CommitHash(c)
			err := dst.Import("remote/forger", []store.ExportedCommit{{State: enc, Gen: 1, Time: root.time}}, []store.Hash{h})
			if !errors.Is(err, store.ErrBadImport) || !strings.Contains(err.Error(), "commit 0 is a root other than this store's") {
				t.Fatalf("Import = %v, want ErrBadImport naming commit 0 as a second root", err)
			}
			if dst.HasCommit(h) {
				t.Fatal("the second root is installed")
			}
		})
	}
	src := store.NewAt(orset.OrSetSpace{}, codec, "main", 100)
	if _, err := src.Apply("main", orset.Op{Kind: orset.Add, E: 1}); err != nil {
		t.Fatal(err)
	}
	batch, heads, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(batch[0].Parents) != 0 {
		t.Fatal("a full export does not open with the root")
	}
	if err := dst.Import("remote/src", batch, heads); err != nil {
		t.Fatalf("the store's own root, shipped with a full history: %v", err)
	}
}
