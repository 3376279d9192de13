package disk_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/mlog"
	"repro/internal/store"
	"repro/internal/wire"
)

// coldAppends is the depth of the log the cold-open tests build: a
// mergeable-log of 1 000 appends at the default chain bound.
const coldAppends = 1000

// buildColdLog appends n 24-byte messages to a fresh mergeable-log in dir
// at the default options, closes it cleanly and returns its head state —
// the fold a reopen must read back.
func buildColdLog(tb testing.TB, dir string, n int) mlog.State {
	tb.Helper()
	l, rec, err := disk.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := store.OpenRecovered[mlog.State, mlog.Op, mlog.Val](
		mlog.Log{}, wire.MLog{}, "main", 0, &rec.State, store.WithPersister(l))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Apply("main", mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("append %05d of the fold", i)}); err != nil {
			tb.Fatal(err)
		}
	}
	head, err := s.Head("main")
	if err != nil {
		tb.Fatal(err)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	if len(head) != n {
		tb.Fatalf("built a log of %d entries, want %d", len(head), n)
	}
	for i, e := range head {
		if want := fmt.Sprintf("append %05d of the fold", n-1-i); e.Msg != want {
			tb.Fatalf("entry %d is %q, want %q", i, e.Msg, want)
		}
	}
	return head
}

// coldOpen is one cold open of the log in dir and its first read: Open,
// OpenRecovered (no verification: the first read checks what it reads)
// and Head. The caller closes the returned log.
func coldOpen(tb testing.TB, dir string) (*store.Store[mlog.State, mlog.Op, mlog.Val], *disk.Log, mlog.State) {
	tb.Helper()
	l, rec, err := disk.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := store.OpenRecovered[mlog.State, mlog.Op, mlog.Val](
		mlog.Log{}, wire.MLog{}, "main", 0, &rec.State, store.WithPersister(l))
	if err != nil {
		tb.Fatal(err)
	}
	head, err := s.Head("main")
	if err != nil {
		tb.Fatal(err)
	}
	return s, l, head
}

// headDepth returns the number of patches between the head state of the
// log in dir and its chain's snapshot, read by a full replay.
func headDepth(t *testing.T, dir string) int {
	t.Helper()
	l, rec, err := disk.Open(dir, disk.WithFullReplay())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := rec.State.Commits[rec.State.Branches["main"].Heads[0]]
	return rec.State.Objects[c.State].Depth
}

// TestColdOpenAllocatesWhatItReads: one cold open of a 1 000-append
// mergeable-log and its first read allocate less than 1 MiB in all — the
// ~20 KB state read back, the checkpoint, and no buffer sized for work
// the open does not do, nor one full-size state per patch of the head's
// chain. The read returns the fold.
func TestColdOpenAllocatesWhatItReads(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	dir := t.TempDir()
	want := buildColdLog(t, dir, coldAppends)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, l, head := coldOpen(t, dir)
	runtime.ReadMemStats(&after)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !statesEqual(head, want) {
		t.Fatalf("cold open reads %d entries, not the fold of %d appends", len(head), len(want))
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold open + first read of %d appends: %d B allocated, %d allocations", coldAppends, alloc, after.Mallocs-before.Mallocs)
	if alloc >= 1<<20 {
		t.Fatalf("cold open + first read allocated %d B, want < 1 MiB", alloc)
	}
}

// BenchmarkColdOpen times the cold open and first read of
// TestColdOpenAllocatesWhatItReads, and the close after it.
func BenchmarkColdOpen(b *testing.B) {
	dir := b.TempDir()
	buildColdLog(b, dir, coldAppends)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, l, _ := coldOpen(b, dir)
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// openFDs lists the process's open descriptors by target path; ok is
// false where there is no /proc/self/fd to read.
func openFDs(t *testing.T) (targets []string, ok bool) {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, false
	}
	for _, e := range entries {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil {
			targets = append(targets, target)
		}
	}
	return targets, true
}

// logFDs counts the descriptors open on files in dir, and how many of
// those files are deleted.
func logFDs(t *testing.T, dir string) (open, deleted int) {
	t.Helper()
	targets, _ := openFDs(t)
	for _, target := range targets {
		if strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open++
			if strings.HasSuffix(target, " (deleted)") {
				deleted++
			}
		}
	}
	return open, deleted
}

// TestLazyLoadDescriptors: lazy loads read through one shared descriptor
// per segment, and the log gives every one of them back. Fifty cycles of
// a cold open, a first read down a 31-patch chain and Close leave the
// process's descriptor count where it started; a compaction leaves no
// descriptor on a segment it deletes, and a store over the compacted log
// reads the fold and appends; a lazy load after Close fails with
// ErrClosed and opens nothing. Concurrent loads share the descriptor,
// and loads racing Close either succeed or fail with ErrClosed.
func TestLazyLoadDescriptors(t *testing.T) {
	if _, ok := openFDs(t); !ok {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	// 607 appends put the head 31 patches above its snapshot, the chain
	// bound of the default spacing.
	dir := t.TempDir()
	want := buildColdLog(t, dir, 607)
	if d := headDepth(t, dir); d != 31 {
		t.Fatalf("head sits %d patches above its snapshot, want 31", d)
	}

	fds, _ := openFDs(t)
	for i := 0; i < 50; i++ {
		_, l, head := coldOpen(t, dir)
		if !statesEqual(head, want) {
			t.Fatalf("cycle %d: cold open reads %d entries, not the fold", i, len(head))
		}
		if open, _ := logFDs(t, dir); open != 2 {
			t.Fatalf("cycle %d: %d descriptors on the log after a first read, want the active segment's and one read descriptor", i, open)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := openFDs(t); len(after) != len(fds) {
		t.Fatalf("50 open/read/close cycles moved the descriptor count from %d to %d", len(fds), len(after))
	}

	t.Run("concurrent loads", func(t *testing.T) {
		s, l, _ := coldOpen(t, dir)
		h, err := s.HeadHash("main")
		if err != nil {
			t.Fatal(err)
		}
		var states []store.Hash
		for {
			c, _ := s.Commit(h)
			states = append(states, c.State)
			if len(c.Parents) == 0 {
				break
			}
			h = c.Parents[0]
		}
		// Eight readers rebuild every 8th state each from its own offset,
		// lazily through the shared descriptor; then Close races a second
		// round, whose loads either succeed or fail with ErrClosed.
		read := func(closing bool) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(states); i += 8 {
						if _, err := s.EncodedState(states[i]); err != nil && !(closing && errors.Is(err, disk.ErrClosed)) {
							t.Errorf("state %d of %d: %v", i, len(states), err)
							return
						}
					}
				}(g)
			}
			if closing {
				if err := l.Close(); err != nil {
					t.Error(err)
				}
			}
			wg.Wait()
		}
		read(false)
		if open, _ := logFDs(t, dir); open != 2 {
			t.Fatalf("%d descriptors on the log after concurrent loads, want the active segment's and one read descriptor", open)
		}
		read(true)
		if after, _ := openFDs(t); len(after) != len(fds) {
			t.Fatalf("loads racing Close moved the descriptor count from %d to %d", len(fds), len(after))
		}
	})

	t.Run("compaction", func(t *testing.T) {
		l, rec := compactLog(t, dir)
		defer l.Close()
		if open, deleted := logFDs(t, dir); deleted != 0 || open != 1 {
			t.Fatalf("after compaction %d descriptors on the log, %d of them on deleted segments; want the active segment's alone", open, deleted)
		}
		s, err := store.OpenRecovered[mlog.State, mlog.Op, mlog.Val](
			mlog.Log{}, wire.MLog{}, "main", 0, &rec.State, store.WithPersister(l))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyPack(); err != nil {
			t.Fatal(err)
		}
		if head := headMsgs(t, s, "main"); !statesEqual(head, want) {
			t.Fatal("head after compaction is not the fold")
		}
		appendMsg(t, s, "main", "after the compaction")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		s, l, head := coldOpen(t, dir)
		defer l.Close()
		if len(head) != len(want)+1 || !statesEqual(head[1:], want) {
			t.Fatal("reopen after compaction does not read the fold")
		}
		if err := s.VerifyPack(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("after close", func(t *testing.T) {
		l, rec, err := disk.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.OpenRecovered[mlog.State, mlog.Op, mlog.Val](
			mlog.Log{}, wire.MLog{}, "main", 0, &rec.State, store.WithPersister(l))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		before, _ := openFDs(t)
		if _, err := s.Head("main"); !errors.Is(err, disk.ErrClosed) {
			t.Fatalf("lazy load after Close: %v, want ErrClosed", err)
		}
		if after, _ := openFDs(t); len(after) != len(before) {
			t.Fatalf("a lazy load after Close moved the descriptor count from %d to %d", len(before), len(after))
		}
	})
}
