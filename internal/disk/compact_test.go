package disk

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mlog"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestCompactionWritesInvariantOrder: a compacted segment holds meta by
// key, the allocator floor, pack objects by (depth, hash), commits by
// (generation, hash) and branch heads last — an order read off the
// store's invariants, with no graph search — so a second compaction,
// of what a full replay of the first one recovers, writes the same
// bytes.
func TestCompactionWritesInvariantOrder(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := store.OpenRecovered[mlog.State, mlog.Op, mlog.Val](
		mlog.Log{}, wire.MLog{}, "main", 0, &rec.State,
		store.WithPersister(l), store.WithSnapshotEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"zeta", "alpha", "mid"} {
		if err := l.SetMeta(k, "v-"+k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Fork("main", "side"); err != nil {
		t.Fatal(err)
	}
	for i := range 60 {
		for _, b := range []string{"main", "side"} {
			if _, err := s.Apply(b, mlog.Op{Kind: mlog.Append, Msg: fmt.Sprint(b, i)}); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 6 {
			if err := s.Sync("main", "side"); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// compacted compacts the closed log to what a full replay of it
	// recovers and returns the bytes of the segment it wrote: the oldest
	// one left, which the post-compaction checkpoint follows.
	compacted := func() (string, []byte) {
		t.Helper()
		l, rec, err := Open(dir, WithFullReplay())
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Compact(&rec.State); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		seqs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, segName(seqs[0]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}
	path, first := compacted()
	scan := scanSegmentOps(path, 0, 0)
	if scan.err != nil || scan.torn {
		t.Fatalf("scan: err %v, torn %v", scan.err, scan.torn)
	}

	// order compares two records by section — in the order compaction
	// writes them — then by their key within it.
	section := map[byte]int{recMeta: 0, recNextID: 1, recObject: 2, recCommit: 3, recBranchSet: 4}
	order := func(a, b scanOp) int {
		c := cmp.Compare(section[a.kind], section[b.kind])
		if c != 0 {
			return c
		}
		switch a.kind {
		case recMeta:
			return cmp.Compare(a.name, b.name)
		case recObject:
			return cmp.Or(cmp.Compare(a.object.Depth, b.object.Depth), bytes.Compare(a.hash[:], b.hash[:]))
		case recCommit:
			return cmp.Or(cmp.Compare(a.commit.Gen, b.commit.Gen), bytes.Compare(a.hash[:], b.hash[:]))
		}
		return -1 // branch heads keep their creation order
	}
	counts := make(map[byte]int)
	snapshots, deep, merges := 0, 0, 0
	for i, op := range scan.ops {
		if _, ok := section[op.kind]; !ok {
			t.Fatalf("record %d is of kind %d, which compaction does not write", i, op.kind)
		}
		if i > 0 && order(scan.ops[i-1], op) >= 0 {
			t.Fatalf("record %d (kind %d) does not follow record %d (kind %d)", i, op.kind, i-1, scan.ops[i-1].kind)
		}
		counts[op.kind]++
		if op.kind == recObject && op.object.Depth == 0 {
			snapshots++
		}
		if op.kind == recObject && op.object.Depth > 1 {
			deep++
		}
		if op.kind == recCommit && len(op.commit.Parents) == 2 {
			merges++
		}
	}
	if counts[recMeta] != 3 || counts[recNextID] != 1 || counts[recBranchSet] != 2 || counts[recCommit] < 100 {
		t.Fatalf("record counts %v: want 3 meta, 1 floor, ≥ 100 commits and 2 branches", counts)
	}
	if snapshots < 3 || deep == 0 || merges == 0 {
		t.Fatalf("%d snapshots, %d objects deeper than 1, %d merges: the history is too shallow to test the order", snapshots, deep, merges)
	}

	if _, second := compacted(); !bytes.Equal(first, second) {
		t.Fatalf("a second compaction of the same live set wrote %d different bytes, want the %d of the first", len(second), len(first))
	}
}
