package store

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/delta"
	"repro/internal/mlog"
)

// Tests of the import: commits land one at a time in batch order, each
// checked and installed before the next is read, and each first-seen
// state is verified once. Each runs over a codec without Check, whose
// states the import decodes and re-encodes, and over the same codec with
// Check, which the import calls instead.

// batchBuilder assembles an import batch by hand, so a test can ship
// encodings no store would export. Each commit chains to the receiver's
// root or to an earlier batch commit.
type batchBuilder struct {
	batch []ExportedCommit
	enc   map[Hash][]byte // commit hash → its state's encoding
	gen   map[Hash]int
}

func newBatchBuilder(t *testing.T, s *counterStoreT) (*batchBuilder, Hash) {
	t.Helper()
	root, err := s.HeadHash("main")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.Commit(root)
	enc, err := s.EncodedState(c.State)
	if err != nil {
		t.Fatal(err)
	}
	return &batchBuilder{
		enc: map[Hash][]byte{root: enc},
		gen: map[Hash]int{root: c.Gen},
	}, root
}

// add appends a commit on parent pinning enc — as a patch against the
// parent's state (an identity patch when they are equal), or in full —
// and returns its hash.
func (b *batchBuilder) add(parent Hash, enc []byte, patch bool) Hash {
	c := Commit{
		Parents: []Hash{parent},
		State:   StateAddr(enc),
		Gen:     b.gen[parent] + 1,
		Time:    core.Timestamp(len(b.batch) + 1),
	}
	ec := ExportedCommit{Parents: c.Parents, Gen: c.Gen, Time: c.Time}
	switch base := b.enc[parent]; {
	case !patch:
		ec.State = enc
	case bytes.Equal(base, enc):
		ec.Patch = delta.Identity(len(enc))
	default:
		ec.Patch = delta.Make(base, enc)
	}
	h := commitHash(c)
	b.batch = append(b.batch, ec)
	b.enc[h], b.gen[h] = enc, c.Gen
	return h
}

// slowPaddedCodec is int64Codec that accepts trailing bytes — a
// non-canonical encoding it decodes, slowly, so that a later commit's
// decode failure is the first verdict any worker reaches.
type slowPaddedCodec struct{ int64Codec }

func (slowPaddedCodec) Decode(b []byte) (int64, error) {
	if len(b) > 8 {
		time.Sleep(50 * time.Millisecond)
		b = b[:8]
	}
	return int64Codec{}.Decode(b)
}

// withCheck gives a test codec the optional Check form. Exactly the
// 8-byte encodings are canonical for every int64Codec variant here; any
// other length is rejected with the inner Decode's verdict as the reason
// (slowly, for slowPaddedCodec's padded encodings), so Check decodes
// nothing a canonical encoding needs.
type withCheck[C Codec[int64]] struct{ inner C }

func (c withCheck[C]) Encode(s int64) []byte          { return c.inner.Encode(s) }
func (c withCheck[C]) Decode(b []byte) (int64, error) { return c.inner.Decode(b) }
func (c withCheck[C]) Check(b []byte) error {
	if len(b) == 8 {
		return nil
	}
	if _, err := c.inner.Decode(b); err != nil {
		return err
	}
	return fmt.Errorf("%d bytes decode to a state that encodes to 8", len(b))
}

// verifyPaths runs test once over codec, which has no Check, and once
// over it with Check, checking that the type picks the path.
func verifyPaths[C Codec[int64]](t *testing.T, codec C, test func(t *testing.T, codec Codec[int64], check bool)) {
	for _, tc := range []struct {
		name  string
		codec Codec[int64]
		check bool
	}{
		{"Encode", codec, false},
		{"Check", withCheck[C]{codec}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := tc.codec.(checker); ok != tc.check {
				t.Fatalf("codec has Check = %v, want %v", ok, tc.check)
			}
			test(t, tc.codec, tc.check)
		})
	}
}

// TestImportErrorNamesFirstBadCommit: in a 12-commit packed batch where
// commit 5 is not canonical and commit 8 does not decode, Import names
// commit 5 whichever verdict lands first, installs commits 0–4 and
// nothing after, and no capture records anything past commit 4.
func TestImportErrorNamesFirstBadCommit(t *testing.T) {
	verifyPaths(t, slowPaddedCodec{}, func(t *testing.T, codec Codec[int64], _ bool) {
		s := New[int64, counter.Op, counter.Val](counter.IncCounter{}, codec, "main")
		b, parent := newBatchBuilder(t, s)
		var hashes []Hash
		for i := 0; i < 12; i++ {
			enc := int64Codec{}.Encode(int64(i + 1))
			switch i {
			case 5:
				enc = append(enc, 0xff)
			case 8:
				enc = enc[:3]
			}
			parent = b.add(parent, enc, i > 0)
			hashes = append(hashes, parent)
		}
		c, err := s.Snapshot("main")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		err = s.Import("remote/peer", b.batch, []Hash{parent})
		if !errors.Is(err, ErrBadImport) || !strings.Contains(err.Error(), "commit 5 state encoding is not canonical") {
			t.Fatalf("Import = %v, want commit 5's canonicality failure", err)
		}
		for i, h := range hashes {
			if got := s.HasCommit(h); got != (i < 5) {
				t.Errorf("commit %d installed = %v, want %v", i, got, i < 5)
			}
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		if len(c.log) != 5 {
			t.Fatalf("capture recorded %d commits, want commits 0-4", len(c.log))
		}
		for i, in := range c.log {
			if in.hash != hashes[i] || in.via != "remote/peer" {
				t.Fatalf("capture entry %d = %v via %q, want commit %d via remote/peer", i, in.hash, in.via, i)
			}
		}
	})
}

// countingCodec is int64Codec that counts its decodes.
type countingCodec struct {
	int64Codec
	decodes *atomic.Int64
}

func (c countingCodec) Decode(b []byte) (int64, error) {
	c.decodes.Add(1)
	return c.int64Codec.Decode(b)
}

// TestImportDecodesEachFreshStateOnce: a commit's state is first seen
// only if no commit installed before it — stored earlier or landed
// earlier in the batch — pins it, so a no-op shipped as an identity
// patch, a state the receiver holds and a state two batch commits pin
// cost no decode beyond the first. A codec with Check decodes nothing at
// import. Import caches no state on either path, so the first read of
// the head decodes its state, once.
func TestImportDecodesEachFreshStateOnce(t *testing.T) {
	var decodes atomic.Int64
	verifyPaths(t, countingCodec{decodes: &decodes}, func(t *testing.T, codec Codec[int64], check bool) {
		s := New[int64, counter.Op, counter.Val](counter.IncCounter{}, codec, "main")
		b, root := newBatchBuilder(t, s)
		enc := func(v int64) []byte { return int64Codec{}.Encode(v) }
		c1 := b.add(root, enc(1), true) // first seen
		c2 := b.add(c1, enc(1), true)   // no-op: identity patch
		c3 := b.add(c2, enc(2), true)   // first seen
		c4 := b.add(c3, enc(0), true)   // the receiver's root state
		b.add(root, enc(2), false)      // c3's state again, shipped in full
		head := b.add(c4, enc(3), true) // first seen
		if !bytes.Equal(b.batch[1].Patch, delta.Identity(8)) {
			t.Fatalf("no-op commit ships %x, want an identity patch", b.batch[1].Patch)
		}

		want := int64(3) // one per first-seen state
		if check {
			want = 0
		}
		decodes.Store(0)
		if err := s.Import("remote/peer", b.batch, []Hash{head}); err != nil {
			t.Fatal(err)
		}
		if got := decodes.Load(); got != want {
			t.Fatalf("%d decodes, want %d", got, want)
		}
		if got, want := s.NumCommits(), 1+len(b.batch); got != want {
			t.Fatalf("%d commits after import, want %d", got, want)
		}
		if err := s.Import("remote/peer", b.batch, []Hash{head}); err != nil {
			t.Fatal(err)
		}
		if got := decodes.Load(); got != want {
			t.Fatalf("re-import decoded %d more states, want none", got-want)
		}
		want++ // the head's state, on its first read
		for range 2 {
			if st, err := s.Head("remote/peer"); err != nil || st != 3 {
				t.Fatalf("Head = %d (%v), want 3", st, err)
			}
			if got := decodes.Load(); got != want {
				t.Fatalf("%d decodes after reading the head, want %d", got, want)
			}
		}
	})
}

// TestImportRefusesCommitsNoStoreMints: a commit whose metadata no store
// mints fails the import at that commit, with the commits before it
// installed — an operation commit whose Time does not exceed its
// parent's, which would drag the receiver's clock below events it has
// seen, and a commit with three parents, which the frozen index cannot
// hold.
func TestImportRefusesCommitsNoStoreMints(t *testing.T) {
	t.Run("time", func(t *testing.T) {
		src := New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main")
		dst := New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main")
		var hashes []Hash
		for i := range 6 {
			if _, err := src.Apply("main", mlog.Op{Kind: mlog.Append, Msg: fmt.Sprint("m", i)}); err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, src.Heads("main")[0])
		}
		batch, _, err := src.ExportSincePacked("main", dst.Heads("main"))
		if err != nil {
			t.Fatal(err)
		}
		c, _ := src.Commit(hashes[5])
		c.Time, batch[5].Time = 0, 0
		err = dst.Import("remote/src", batch, []Hash{commitHash(c)})
		if !errors.Is(err, ErrBadImport) || !strings.Contains(err.Error(), "commit 5 time 0 does not exceed") {
			t.Fatalf("Import = %v, want ErrBadImport naming commit 5's time", err)
		}
		for i, h := range append(hashes[:5:5], commitHash(c)) {
			if got := dst.HasCommit(h); got != (i < 5) {
				t.Errorf("commit %d installed = %v, want %v", i, got, i < 5)
			}
		}
	})
	t.Run("parents", func(t *testing.T) {
		s := New[int64, counter.Op, counter.Val](counter.IncCounter{}, int64Codec{}, "main")
		b, root := newBatchBuilder(t, s)
		var hashes []Hash
		for i := range 3 {
			hashes = append(hashes, b.add(root, int64Codec{}.Encode(int64(i+1)), false))
		}
		enc := int64Codec{}.Encode(6)
		c := Commit{Parents: sortHashes(slices.Clone(hashes)), State: StateAddr(enc), Gen: b.gen[root] + 2, Time: 4}
		b.batch = append(b.batch, ExportedCommit{Parents: c.Parents, State: enc, Gen: c.Gen, Time: c.Time})
		err := s.Import("remote/peer", b.batch, []Hash{commitHash(c)})
		if !errors.Is(err, ErrBadImport) || !strings.Contains(err.Error(), "commit 3 has 3 parents") {
			t.Fatalf("Import = %v, want ErrBadImport naming commit 3's parents", err)
		}
		for i, h := range append(hashes, commitHash(c)) {
			if got := s.HasCommit(h); got != (i < 3) {
				t.Errorf("commit %d installed = %v, want %v", i, got, i < 3)
			}
		}
	})
}

// TestImportRefusesForgedMerge: a merge commit is what mergeHeadsLocked
// mints — two parents in strictly ascending order, and the Time of the
// later one — or the import fails at it, with the commits before it
// installed. Parents out of order or repeated, and a Time that is not
// the later parent's, are each refused; the genuine merge lands.
func TestImportRefusesForgedMerge(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(a, c Hash) ([]Hash, core.Timestamp)
		want  string
	}{
		{"genuine", func(a, c Hash) ([]Hash, core.Timestamp) { return []Hash{a, c}, 2 }, ""},
		{"unsorted parents", func(a, c Hash) ([]Hash, core.Timestamp) { return []Hash{c, a}, 2 }, "commit 2 parents are not strictly ascending"},
		{"duplicate parents", func(a, _ Hash) ([]Hash, core.Timestamp) { return []Hash{a, a}, 1 }, "commit 2 parents are not strictly ascending"},
		{"time of the earlier parent", func(a, c Hash) ([]Hash, core.Timestamp) { return []Hash{a, c}, 1 }, "merge commit 2 time 1 is not its later parent's 2"},
		{"ticked time", func(a, c Hash) ([]Hash, core.Timestamp) { return []Hash{a, c}, 3 }, "merge commit 2 time 3 is not its later parent's 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New[int64, counter.Op, counter.Val](counter.IncCounter{}, int64Codec{}, "main")
			b, root := newBatchBuilder(t, s)
			// Two operation commits on the root, at times 1 and 2, then
			// their merge.
			ops := []Hash{b.add(root, int64Codec{}.Encode(1), false), b.add(root, int64Codec{}.Encode(2), false)}
			a, c := ops[0], ops[1]
			if bytes.Compare(a[:], c[:]) > 0 {
				a, c = c, a
			}
			parents, at := tc.forge(a, c)
			enc := int64Codec{}.Encode(3)
			m := Commit{Parents: parents, State: StateAddr(enc), Gen: b.gen[root] + 2, Time: at}
			b.batch = append(b.batch, ExportedCommit{Parents: m.Parents, State: enc, Gen: m.Gen, Time: m.Time})
			err := s.Import("remote/peer", b.batch, []Hash{commitHash(m)})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Import of the genuine merge = %v", err)
				}
			} else if !errors.Is(err, ErrBadImport) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Import = %v, want ErrBadImport: %s", err, tc.want)
			}
			for i, h := range append(ops, commitHash(m)) {
				if got, want := s.HasCommit(h), i < 2 || tc.want == ""; got != want {
					t.Errorf("commit %d installed = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestImportRefusesAWritableBranch: Import points a branch at the heads
// it was given, so into a branch that takes operations it would drop the
// branch's own commits. It refuses such a branch, installs nothing, and
// the branch keeps its head and its commits.
func TestImportRefusesAWritableBranch(t *testing.T) {
	peer := New[int64, counter.Op, counter.Val](counter.IncCounter{}, int64Codec{}, "main")
	if _, err := peer.Apply("main", counter.Op{Kind: counter.Inc, N: 5}); err != nil {
		t.Fatal(err)
	}
	history, heads, err := peer.Export("main")
	if err != nil {
		t.Fatal(err)
	}

	s := NewAt[int64, counter.Op, counter.Val](counter.IncCounter{}, int64Codec{}, "main", 1)
	for range 2 {
		if _, err := s.Apply("main", counter.Op{Kind: counter.Inc, N: 1}); err != nil {
			t.Fatal(err)
		}
	}
	before, commits := s.Heads("main"), s.NumCommits()
	if err := s.Import("main", history, heads); !errors.Is(err, ErrBadImport) || !strings.Contains(err.Error(), "takes operations") {
		t.Fatalf("Import into main = %v, want ErrBadImport: main takes operations", err)
	}
	if v, err := s.Head("main"); err != nil || v != 2 || !slices.Equal(s.Heads("main"), before) || s.NumCommits() != commits {
		t.Fatalf("after the refused import: head %d (%v), heads %v (want %v), %d commits (want %d)",
			v, err, s.Heads("main"), before, s.NumCommits(), commits)
	}

	// A branch of its own, then a pull, is the way in.
	if err := s.Import("remote/peer", history, heads); err != nil {
		t.Fatal(err)
	}
	if err := s.Pull("main", "remote/peer"); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Head("main"); err != nil || v != 7 {
		t.Fatalf("after the pull: head %d (%v), want 7", v, err)
	}
}
