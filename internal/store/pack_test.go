package store_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mlog"
	"repro/internal/store"
	"repro/internal/wire"
)

// Pack-layer tests run on the mergeable log: its state grows with every
// append, so delta chains actually form (an 8-byte counter state is
// smaller than any patch and always stores as a snapshot).

func logStore(opts ...store.Option) *store.Store[mlog.State, mlog.Op, mlog.Val] {
	return store.New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "main", opts...)
}

func appendN(t *testing.T, s *store.Store[mlog.State, mlog.Op, mlog.Val], b string, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Apply(b, mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("%s-%04d", tag, i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPackSnapshotSpacing(t *testing.T) {
	checkSnapshotSpacing(t, 8, store.WithSnapshotEvery(8))
}

// TestPackDefaultSnapshotSpacing holds a store built with no options to
// the same chain bound at the default spacing.
func TestPackDefaultSnapshotSpacing(t *testing.T) {
	checkSnapshotSpacing(t, store.DefaultOptions().SnapshotEvery)
}

// checkSnapshotSpacing appends 100 ops to a log store built with opts
// and requires delta chains shorter than spacing, packed bytes below
// full bytes, and a pack that verifies and reads back the whole log.
func checkSnapshotSpacing(t *testing.T, spacing int, opts ...store.Option) {
	t.Helper()
	s := logStore(opts...)
	appendN(t, s, "main", 100, "op")

	ps := s.PackStats()
	if ps.Deltas == 0 {
		t.Fatalf("spacing %d: no delta objects formed on a growing log", spacing)
	}
	if ps.MaxDepth >= spacing {
		t.Fatalf("MaxDepth = %d, want < SnapshotEvery (%d)", ps.MaxDepth, spacing)
	}
	if ps.PackedBytes >= ps.FullBytes {
		t.Fatalf("spacing %d: packed bytes %d not below full bytes %d", spacing, ps.PackedBytes, ps.FullBytes)
	}
	// Roughly one snapshot per spacing states (plus the root); the exact
	// count depends on patch-vs-encoding size races early in the history.
	if ps.Snapshots > ps.Objects/4 {
		t.Fatalf("spacing %d: %d snapshots of %d objects — spacing is not bounding snapshots", spacing, ps.Snapshots, ps.Objects)
	}
	if err := s.VerifyPack(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Head("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 100 {
		t.Fatalf("spacing %d: head log has %d entries, want 100", spacing, len(st))
	}
}

func TestPackSnapshotEveryOneIsLegacyFormat(t *testing.T) {
	s := logStore(store.WithSnapshotEvery(1))
	appendN(t, s, "main", 40, "op")
	ps := s.PackStats()
	if ps.Deltas != 0 {
		t.Fatalf("SnapshotEvery(1) stored %d deltas, want none", ps.Deltas)
	}
	if ps.PackedBytes != ps.FullBytes {
		t.Fatalf("unpacked store: packed %d != full %d", ps.PackedBytes, ps.FullBytes)
	}
}

func TestPackColdReadThroughTinyCache(t *testing.T) {
	// A one-entry state cache forces every branch switch through
	// materialize: chains must reassemble and verify on every read.
	s := logStore(store.WithSnapshotEvery(8), store.WithStateCacheSize(1))
	appendN(t, s, "main", 5, "base")
	if err := s.Fork("main", "old"); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "main", 80, "deep")
	for i := 0; i < 3; i++ {
		old, err := s.Head("old")
		if err != nil {
			t.Fatal(err)
		}
		if len(old) != 5 {
			t.Fatalf("old branch has %d entries, want 5", len(old))
		}
		cur, err := s.Head("main")
		if err != nil {
			t.Fatal(err)
		}
		if len(cur) != 85 {
			t.Fatalf("main has %d entries, want 85", len(cur))
		}
	}
}

func TestPackedExportImportRoundTrip(t *testing.T) {
	s := logStore(store.WithSnapshotEvery(8))
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

	dst := store.NewAt[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "local", 64,
		store.WithSnapshotEvery(8))
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
// every one, from a sender that keeps snapshots only — is still stored
// as a patch against its parent's state, so the receiver's pack holds a
// fraction of the full encodings, as the sender's would have.
func TestImportPacksStatesShippedWhole(t *testing.T) {
	src := logStore(store.WithSnapshotEvery(1))
	appendN(t, src, "main", 60, "a")
	commits, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range commits {
		if c.State == nil {
			t.Fatalf("commit %d shipped as a patch from a snapshot-only sender", i)
		}
	}
	dst := store.NewAt[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "local", 64)
	if err := dst.Import("remote/main", commits, head); err != nil {
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
	src := logStore(store.WithSnapshotEvery(8))
	appendN(t, src, "main", 40, "shared")
	commits, head, err := src.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	dst := store.NewAt[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "local", 64,
		store.WithSnapshotEvery(8))
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
	// At most one of six consecutive states lands on a snapshot boundary
	// (SnapshotEvery is 8); the rest must ship as patches.
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
	src := logStore(store.WithSnapshotEvery(8))
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
	s := logStore(store.WithSnapshotEvery(16))
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
	s := logStore(store.WithSnapshotEvery(4), store.WithStateCacheSize(1))
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
