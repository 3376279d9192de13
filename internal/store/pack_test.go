package store_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mlog"
	"repro/internal/store"
	"repro/internal/wire"
)

// Pack-layer tests run on the mergeable log: its state grows with every
// append, so delta chains actually form (an 8-byte counter state is
// smaller than any patch and always stores as a snapshot).

func logStore() *store.Store[mlog.State, mlog.Op, mlog.Val] {
	return store.New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "main")
}

func appendN(t *testing.T, s *store.Store[mlog.State, mlog.Op, mlog.Val], b string, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Apply(b, mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("%s-%04d", tag, i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackDefaultSnapshotSpacing: 100 appends to a log store form delta
// chains shorter than the chain bound, pack below their full bytes with
// roughly one snapshot per bound, and verify and read back the whole log.
func TestPackDefaultSnapshotSpacing(t *testing.T) {
	s := logStore()
	appendN(t, s, "main", 100, "op")

	ps := s.PackStats()
	if ps.Deltas == 0 {
		t.Fatal("no delta objects formed on a growing log")
	}
	if ps.MaxDepth >= store.ChainBound {
		t.Fatalf("MaxDepth = %d, want < ChainBound (%d)", ps.MaxDepth, store.ChainBound)
	}
	if ps.PackedBytes >= ps.FullBytes {
		t.Fatalf("packed bytes %d not below full bytes %d", ps.PackedBytes, ps.FullBytes)
	}
	// Roughly one snapshot per bound's states (plus the root); the exact
	// count depends on patch-vs-encoding size races early in the history.
	if ps.Snapshots > ps.Objects/4 {
		t.Fatalf("%d snapshots of %d objects — the bound is not bounding snapshots", ps.Snapshots, ps.Objects)
	}
	if err := s.VerifyPack(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Head("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 100 {
		t.Fatalf("head log has %d entries, want 100", len(st))
	}
}

// TestPackColdReadAfterDroppedStates: with the decoded states the head
// sets hold dropped before every read, every branch switch goes through
// materialize, so chains — here through level bases, a branch 300
// appends deep — must reassemble and verify on every read.
func TestPackColdReadAfterDroppedStates(t *testing.T) {
	const deep = 300
	s := logStore()
	appendN(t, s, "main", 5, "base")
	if err := s.Fork("main", "old"); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "main", deep, "deep")
	for i := 0; i < 3; i++ {
		store.DropDecodedStates(s)
		old, err := s.Head("old")
		if err != nil {
			t.Fatal(err)
		}
		if len(old) != 5 {
			t.Fatalf("old branch has %d entries, want 5", len(old))
		}
		store.DropDecodedStates(s)
		cur, err := s.Head("main")
		if err != nil {
			t.Fatal(err)
		}
		if len(cur) != 5+deep {
			t.Fatalf("main has %d entries, want %d", len(cur), 5+deep)
		}
	}
}

func TestPackedExportImportRoundTrip(t *testing.T) {
	s := logStore()
	appendN(t, s, "main", 30, "a")
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "main", 10, "b")
	appendN(t, s, "dev", 10, "c")
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}

	commits, head, err := s.ExportSincePacked("main", nil)
	if err != nil {
		t.Fatal(err)
	}
	patches, fulls := 0, 0
	for _, c := range commits {
		switch {
		case c.Patch != nil && c.State != nil:
			t.Fatal("commit carries both state and patch")
		case c.Patch != nil:
			patches++
		default:
			fulls++
		}
	}
	if patches == 0 {
		t.Fatal("packed export shipped no patches")
	}
	if fulls == 0 {
		t.Fatal("packed export shipped no snapshots (root must be full)")
	}

	dst := store.NewAt[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "local", 64)
	if err := dst.Import("remote/main", commits, head); err != nil {
		t.Fatal(err)
	}
	want, _ := s.Head("main")
	got, err := dst.Head("remote/main")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("imported head has %d entries, want %d", len(got), len(want))
	}
	// The packed transfer must leave the receiver packed too.
	if ps := dst.PackStats(); ps.Deltas == 0 {
		t.Fatal("imported store retains no deltas")
	}
	if err := dst.VerifyPack(); err != nil {
		t.Fatal(err)
	}
}

// TestImportPacksStatesShippedWhole: a state that arrives whole — here
// every one: each patch of an export is replaced by the encoded state of
// its commit — is still stored as a patch against its parent's state, so
// the receiver's pack holds a fraction of the full encodings, as the
// sender's does.
func TestImportPacksStatesShippedWhole(t *testing.T) {
	src := logStore()
	appendN(t, src, "main", 60, "a")
	commits, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	// The history is one line, so the export holds one commit per
	// generation: the head's ancestors, oldest first.
	line := make([]store.Hash, len(commits))
	for h, i := head[0], len(commits)-1; i >= 0; i-- {
		line[i] = h
		if c, _ := src.Commit(h); len(c.Parents) > 0 {
			h = c.Parents[0]
		}
	}
	whole := make([]store.ExportedCommit, len(commits))
	for i, ec := range commits {
		c, ok := src.Commit(line[i])
		if !ok || c.Gen != ec.Gen || !slices.Equal(c.Parents, ec.Parents) {
			t.Fatalf("commit %d of the export is not generation %d of the line", i, ec.Gen)
		}
		if ec.Patch != nil {
			if ec.State, err = src.EncodedState(c.State); err != nil {
				t.Fatal(err)
			}
			ec.Patch = nil
		}
		whole[i] = ec
	}
	dst := store.NewAt[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "local", 64)
	if err := dst.Import("remote/main", whole, head); err != nil {
		t.Fatal(err)
	}
	if ps := dst.PackStats(); ps.Deltas == 0 || 4*ps.PackedBytes > ps.FullBytes {
		t.Fatalf("receiver packs %d of %d full bytes in %d deltas, want patches", ps.PackedBytes, ps.FullBytes, ps.Deltas)
	}
	if err := dst.VerifyPack(); err != nil {
		t.Fatal(err)
	}
}

func TestPackedExportSinceGraftsOntoHaves(t *testing.T) {
	// A converged peer re-syncing: the export is cut at the frontier, and
	// patched commits rebase onto commits the peer already holds.
	src := logStore()
	appendN(t, src, "main", 40, "shared")
	commits, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	dst := store.NewAt[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "local", 64)
	if err := dst.Import("remote/main", commits, head); err != nil {
		t.Fatal(err)
	}

	appendN(t, src, "main", 6, "fresh")
	f, err := dst.Frontier("remote/main")
	if err != nil {
		t.Fatal(err)
	}
	delta, head2, err := src.ExportSincePacked("main", f.HaveSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 6 {
		t.Fatalf("delta ships %d commits, want 6", len(delta))
	}
	patches := 0
	for _, c := range delta {
		if c.Patch != nil {
			patches++
		}
	}
	// Every state ships as a patch — its stored one, or the patch from its
	// parent's state kept beside a composition — but for at most one
	// stored whole.
	if patches < 5 {
		t.Fatalf("delta shipped %d patches of 6 commits, want at least 5", patches)
	}
	if err := dst.Import("remote/main", delta, head2); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Head("remote/main")
	if len(got) != 46 {
		t.Fatalf("grafted head has %d entries, want 46", len(got))
	}
}

func TestImportRejectsCorruptPatch(t *testing.T) {
	src := logStore()
	appendN(t, src, "main", 20, "op")
	commits, head, err := src.ExportSincePacked("main", nil)
	if err != nil {
		t.Fatal(err)
	}
	corruptAt := -1
	for i, c := range commits {
		if c.Patch != nil {
			corruptAt = i
			break
		}
	}
	if corruptAt < 0 {
		t.Fatal("no patched commit to corrupt")
	}
	for _, mut := range []func([]byte){
		func(p []byte) { p[len(p)-1] ^= 0xff },
		func(p []byte) { p[0] ^= 0x40 },
	} {
		tampered := make([]store.ExportedCommit, len(commits))
		copy(tampered, commits)
		patch := append([]byte(nil), commits[corruptAt].Patch...)
		mut(patch)
		tampered[corruptAt].Patch = patch
		dst := store.NewAt[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "local", 64)
		if err := dst.Import("remote/x", tampered, head); !errors.Is(err, store.ErrBadImport) {
			t.Fatalf("corrupt patch: import = %v, want ErrBadImport", err)
		}
	}
}

func TestImportRejectsMalformedPatchCommits(t *testing.T) {
	src := logStore()
	appendN(t, src, "main", 2, "op")
	commits, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	// Both state and patch set.
	both := make([]store.ExportedCommit, len(commits))
	copy(both, commits)
	both[1].Patch = []byte{1, 2, 3}
	dst := store.NewAt[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "local", 64)
	if err := dst.Import("remote/x", both, head); !errors.Is(err, store.ErrBadImport) {
		t.Fatalf("state+patch commit: import = %v, want ErrBadImport", err)
	}
	// Patch on the parentless root.
	rootPatch := make([]store.ExportedCommit, len(commits))
	copy(rootPatch, commits)
	rootPatch[0].State = nil
	rootPatch[0].Patch = []byte{0, 0}
	dst = store.NewAt[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "local", 64)
	if err := dst.Import("remote/x", rootPatch, head); !errors.Is(err, store.ErrBadImport) {
		t.Fatalf("parentless patch: import = %v, want ErrBadImport", err)
	}
}

func TestSizeIsFullEncodedSize(t *testing.T) {
	// Size reports the full encoded state size (the Figure 15 metric)
	// even when the head is stored as a delta.
	s := logStore()
	appendN(t, s, "main", 20, "op")
	sz, err := s.Size("main")
	if err != nil {
		t.Fatal(err)
	}
	enc := wire.MLog{}.Encode(mustHead(t, s))
	if sz != len(enc) {
		t.Fatalf("Size = %d, want full encoding %d", sz, len(enc))
	}
}

func mustHead(t *testing.T, s *store.Store[mlog.State, mlog.Op, mlog.Val]) mlog.State {
	t.Helper()
	st, err := s.Head("main")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEncodedStateMatchesCodec(t *testing.T) {
	s := logStore()
	appendN(t, s, "main", 25, "op")
	h, err := s.HeadHash("main")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s.Commit(h)
	if !ok {
		t.Fatal("head commit missing")
	}
	enc, err := s.EncodedState(c.State)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.MLog{}.Encode(mustHead(t, s))
	if string(enc) != string(want) {
		t.Fatal("EncodedState differs from the codec encoding of the head")
	}
}
