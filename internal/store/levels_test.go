package store_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/disk"
	"repro/internal/mlog"
	"repro/internal/store"
)

// appendMsg is the i-th append's 24-byte message: a 36-byte log entry
// with its timestamp and length.
func appendMsg(tag string, i int) string {
	return fmt.Sprintf("%s-%0*d", tag, 23-len(tag), i)
}

// TestPackBytesPerAppendFlat: at the store's layout the pack bytes an
// append adds stay flat as the log grows. Chain-full states compose onto
// level bases, so each literal is stored again about once per level, not
// once per run since the snapshot. The bytes per append, averaged over
// appends n/2..n, stay within 2× of each other from n = 2·10³ to 3·10⁴
// and at most 300 B, every chain stays under the bound, and the pack
// verifies. A -race build, which runs the same single goroutine many
// times slower (VerifyPack rebuilds and checks every state), stops after
// the first leg; the figures are a plain build's.
func TestPackBytesPerAppendFlat(t *testing.T) {
	legs := []int{2000, 10000, 30000}
	if raceEnabled {
		legs = legs[:1]
	}
	n := legs[len(legs)-1]
	s := logStore()
	packed := map[int]int64{}
	for i := 1; i <= n; i++ {
		if _, err := s.Apply("main", mlog.Op{Kind: mlog.Append, Msg: appendMsg("op", i)}); err != nil {
			t.Fatal(err)
		}
		for _, m := range legs {
			if i == m || i == m/2 {
				packed[i] = s.PackStats().PackedBytes
			}
		}
	}
	lo, hi := math.Inf(1), 0.0
	for _, m := range legs {
		per := float64(packed[m]-packed[m/2]) / float64(m-m/2)
		t.Logf("appends %d..%d: %.0f pack bytes per append", m/2, m, per)
		if per > 300 {
			t.Errorf("appends %d..%d store %.0f B per append, want ≤ 300", m/2, m, per)
		}
		lo, hi = min(lo, per), max(hi, per)
	}
	if hi > 2*lo {
		t.Errorf("pack bytes per append range %.0f..%.0f B: more than 2× apart", lo, hi)
	}
	ps := s.PackStats()
	t.Logf("%d objects: %d snapshots, %d deltas, max depth %d", ps.Objects, ps.Snapshots, ps.Deltas, ps.MaxDepth)
	if ps.MaxDepth >= store.ChainBound {
		t.Fatalf("MaxDepth %d, want < ChainBound (%d)", ps.MaxDepth, store.ChainBound)
	}
	if err := s.VerifyPack(); err != nil {
		t.Fatal(err)
	}
}

// TestLevelBasesSurviveReopen: a durable log at the store's layout
// holds level bases composed onto other composed bases. A store reopened
// over it knows no levels: its next composition goes onto the snapshot
// and starts a new stack, and it keeps the chain bound, a clean pack and
// every append.
func TestLevelBasesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, l := openDiskLogStore(t, dir)
	var want []string
	add := func(n int, tag string) {
		t.Helper()
		for i := 0; i < n; i++ {
			msg := appendMsg(tag, i)
			if _, err := s.Apply("main", mlog.Op{Kind: mlog.Append, Msg: msg}); err != nil {
				t.Fatal(err)
			}
			want = append(want, msg)
		}
	}
	add(700, "first")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := stackedCompositions(t, dir); n == 0 {
		t.Fatal("no composed object is based on a composed object")
	} else {
		t.Logf("%d composed objects based on composed objects", n)
	}

	s, l = openDiskLogStore(t, dir)
	defer l.Close()
	add(500, "reopened")
	if ps := s.PackStats(); ps.MaxDepth >= store.ChainBound {
		t.Fatalf("MaxDepth %d, want < ChainBound (%d)", ps.MaxDepth, store.ChainBound)
	}
	if err := s.VerifyPack(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Head("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("head holds %d entries, want %d", len(got), len(want))
	}
	// The log keeps its newest entry first.
	for i, e := range got {
		if w := want[len(want)-1-i]; e.Msg != w {
			t.Fatalf("entry %d is %q, want %q", i, e.Msg, w)
		}
	}
}

// stackedCompositions counts the objects of the durable log in dir that
// are composed onto a composed object: patches whose base is neither the
// state of their commit's first parent nor a snapshot, and whose base is
// itself such a patch.
func stackedCompositions(t *testing.T, dir string) int {
	t.Helper()
	l, rec, err := disk.Open(dir, disk.WithFullReplay())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	parentOf := map[store.Hash]store.Hash{}
	for _, c := range rec.State.Commits {
		if len(c.Parents) > 0 {
			parentOf[c.State] = rec.State.Commits[c.Parents[0]].State
		}
	}
	composed := func(h store.Hash) bool {
		o, ok := rec.State.Objects[h]
		p, hasParent := parentOf[h]
		return ok && hasParent && o.Delta && o.Base != p
	}
	n := 0
	for h, o := range rec.State.Objects {
		if composed(h) && composed(o.Base) {
			if base := rec.State.Objects[o.Base]; o.Depth != base.Depth+1 {
				t.Fatalf("object at depth %d on a base at depth %d", o.Depth, base.Depth)
			}
			n++
		}
	}
	return n
}
