package disk_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/counter"
	"repro/internal/disk"
	"repro/internal/mlog"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// openLogStore opens (or reopens) a persistent mergeable-log store in
// dir and returns it with its log. It opens with full pack verification
// and drives the same recovery ladder the replica layer uses: a
// checkpoint-seeded open whose index fails verification (a checkpoint
// can reference bytes that crash damage corrupted behind it) is retried
// once with a forced full replay, which truncates at the damage and
// recovers the clean prefix.
func openLogStore(t *testing.T, dir string, opts ...disk.Option) (*store.Store[mlog.State, mlog.Op, mlog.Val], *disk.Log, *disk.Recovered) {
	t.Helper()
	l, rec, err := disk.Open(dir, opts...)
	if err != nil {
		t.Fatalf("disk.Open: %v", err)
	}
	s, err := store.OpenRecovered[mlog.State, mlog.Op, mlog.Val](
		mlog.Log{}, wire.MLog{}, "main", 0, &rec.State,
		store.WithPersister(l), store.WithVerifyOnOpen(true))
	if err != nil && rec.Mode == disk.ModeCheckpoint {
		l.Close()
		l, rec, err = disk.Open(dir, append(append([]disk.Option(nil), opts...), disk.WithFullReplay())...)
		if err != nil {
			t.Fatalf("disk.Open (full replay): %v", err)
		}
		s, err = store.OpenRecovered[mlog.State, mlog.Op, mlog.Val](
			mlog.Log{}, wire.MLog{}, "main", 0, &rec.State,
			store.WithPersister(l), store.WithVerifyOnOpen(true))
	}
	if err != nil {
		t.Fatalf("store.OpenRecovered: %v", err)
	}
	return s, l, rec
}

// compactLog compacts the quiescent log in dir: it opens the log with a
// full replay and rewrites it to exactly the state that replay
// recovered. It returns the log, still open, and that state.
func compactLog(t *testing.T, dir string, opts ...disk.Option) (*disk.Log, *disk.Recovered) {
	t.Helper()
	l, rec, err := disk.Open(dir, append(append([]disk.Option(nil), opts...), disk.WithFullReplay())...)
	if err != nil {
		t.Fatalf("disk.Open (full replay): %v", err)
	}
	if err := l.Compact(&rec.State); err != nil {
		l.Close()
		t.Fatalf("Compact: %v", err)
	}
	return l, rec
}

func appendMsg(t *testing.T, s *store.Store[mlog.State, mlog.Op, mlog.Val], b, msg string) {
	t.Helper()
	if _, err := s.Apply(b, mlog.Op{Kind: mlog.Append, Msg: msg}); err != nil {
		t.Fatalf("Apply(%s): %v", b, err)
	}
}

func headMsgs(t *testing.T, s *store.Store[mlog.State, mlog.Op, mlog.Val], b string) mlog.State {
	t.Helper()
	st, err := s.Head(b)
	if err != nil {
		t.Fatalf("Head(%s): %v", b, err)
	}
	return st
}

// TestRoundTrip: a persisted store reopens with identical history,
// branches, states and clock positions.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, l, _ := openLogStore(t, dir)
	for i := 0; i < 20; i++ {
		appendMsg(t, s, "main", "m")
	}
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	appendMsg(t, s, "dev", "d")
	appendMsg(t, s, "main", "x")
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	wantMain := headMsgs(t, s, "main")
	wantHead, _ := s.HeadHash("main")
	wantCommits := s.NumCommits()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s2, l2, rec := openLogStore(t, dir)
	defer l2.Close()
	if rec.TruncatedBytes != 0 || rec.DroppedSegments != 0 {
		t.Fatalf("clean log recovered with truncation: %+v", rec)
	}
	if got := headMsgs(t, s2, "main"); !statesEqual(got, wantMain) {
		t.Fatalf("recovered main state differs: got %v want %v", got, wantMain)
	}
	if h, _ := s2.HeadHash("main"); h != wantHead {
		t.Fatalf("recovered head %v, want %v", h, wantHead)
	}
	if n := s2.NumCommits(); n != wantCommits {
		t.Fatalf("recovered %d commits, want %d", n, wantCommits)
	}
	// Fresh timestamps must stay ahead of recovered history: a new
	// operation commits strictly after everything recovered.
	appendMsg(t, s2, "main", "after-restart")
	after := headMsgs(t, s2, "main")
	newest := after[0] // the mergeable log prepends
	for _, e := range wantMain {
		if e.T >= newest.T {
			t.Fatalf("post-restart timestamp %d does not dominate recovered %d", newest.T, e.T)
		}
	}
}

func statesEqual(a, b mlog.State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRotation: small segments force rotation; recovery replays across
// segment boundaries.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	s, l, _ := openLogStore(t, dir, disk.WithSegmentBytes(4<<10))
	for i := 0; i < 200; i++ {
		appendMsg(t, s, "main", "a reasonably long chat message to grow the state")
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	want := headMsgs(t, s, "main")
	l.Close()

	s2, l2, _ := openLogStore(t, dir, disk.WithSegmentBytes(4<<10))
	defer l2.Close()
	if got := headMsgs(t, s2, "main"); !statesEqual(got, want) {
		t.Fatalf("recovered state differs after rotation")
	}
}

// TestTornTail: garbage appended past the last record is truncated on
// open and the clean prefix survives.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	s, l, _ := openLogStore(t, dir)
	for i := 0; i < 10; i++ {
		appendMsg(t, s, "main", "m")
	}
	want := headMsgs(t, s, "main")
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(bytes.Repeat([]byte{0xEE}, 37)) // half a frame of garbage
	f.Close()

	s2, l2, rec := openLogStore(t, dir)
	defer l2.Close()
	if rec.TruncatedBytes != 37 {
		t.Fatalf("TruncatedBytes = %d, want 37", rec.TruncatedBytes)
	}
	if got := headMsgs(t, s2, "main"); !statesEqual(got, want) {
		t.Fatalf("torn tail damaged the clean prefix")
	}
	// The truncation is durable: a third open sees a clean log.
	l2.Close()
	_, l3, rec3 := openLogStore(t, dir)
	defer l3.Close()
	if rec3.TruncatedBytes != 0 {
		t.Fatalf("second recovery still truncating: %+v", rec3)
	}
}

// TestCompaction: compaction rewrites a quiescent log to what a full
// replay of it recovers, in one segment that replaces every old one, and
// the compacted log reopens to the same history.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s, l, _ := openLogStore(t, dir)
	if err := s.Fork("main", "side"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		appendMsg(t, s, "side", "history on a second branch")
	}
	for i := 0; i < 5; i++ {
		appendMsg(t, s, "main", "kept")
	}
	want := headMsgs(t, s, "main")
	wantCommits := s.NumCommits()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	old := segmentFiles(t, dir)

	l, _ = compactLog(t, dir)
	if n := l.Stats().Compactions; n != 1 {
		t.Fatalf("Compactions = %d, want 1", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range old {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("compaction left %s: %v", filepath.Base(p), err)
		}
	}

	s2, l2, _ := openLogStore(t, dir)
	defer l2.Close()
	if got := headMsgs(t, s2, "main"); !statesEqual(got, want) {
		t.Fatalf("compacted log recovered a different state")
	}
	if n := s2.NumCommits(); n != wantCommits {
		t.Fatalf("compacted log recovered %d commits, want %d", n, wantCommits)
	}
	if bs := s2.Branches(); !slices.Equal(bs, []string{"main", "side"}) {
		t.Fatalf("compacted log recovered branches %v", bs)
	}
}

// TestAppendAfterCompaction: the compacted segment stays appendable and
// a post-compaction mutation survives a reopen.
func TestAppendAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	s, l, _ := openLogStore(t, dir)
	for i := 0; i < 10; i++ {
		appendMsg(t, s, "main", "m")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec := compactLog(t, dir)
	s, err := store.OpenRecovered[mlog.State, mlog.Op, mlog.Val](
		mlog.Log{}, wire.MLog{}, "main", 0, &rec.State, store.WithPersister(l))
	if err != nil {
		t.Fatal(err)
	}
	appendMsg(t, s, "main", "post-compaction")
	want := headMsgs(t, s, "main")
	l.Close()

	s2, l2, _ := openLogStore(t, dir)
	defer l2.Close()
	if got := headMsgs(t, s2, "main"); !statesEqual(got, want) {
		t.Fatalf("post-compaction append lost")
	}
}

// TestMeta: metadata round-trips and survives compaction.
func TestMeta(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := disk.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Meta) != 0 {
		t.Fatalf("fresh log has meta: %v", rec.Meta)
	}
	if err := l.SetMeta("datatype", "mergeable-log"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.OpenRecovered[mlog.State, mlog.Op, mlog.Val](
		mlog.Log{}, wire.MLog{}, "main", 0, &rec.State, store.WithPersister(l)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Compaction must carry meta into the rewritten segment.
	l, _ = compactLog(t, dir)
	l.Close()

	_, rec2, err := disk.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Meta["datatype"] != "mergeable-log" {
		t.Fatalf("meta lost: %v", rec2.Meta)
	}
}

// TestFsyncAlways: the policy is exercised end to end and counted.
func TestFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	s, l, _ := openLogStore(t, dir, disk.WithFsync(disk.FsyncAlways))
	for i := 0; i < 5; i++ {
		appendMsg(t, s, "main", "m")
	}
	if st := l.Stats(); st.Fsyncs < 5 {
		t.Fatalf("FsyncAlways recorded %d fsyncs for 5 mutations", st.Fsyncs)
	}
	l.Close()
}

// TestTmpSweep: stray temporary files left by a crashed compaction or
// checkpoint are removed on open, and the log recovers normally around
// them.
func TestTmpSweep(t *testing.T) {
	dir := t.TempDir()
	s, l, _ := openLogStore(t, dir)
	for i := 0; i < 5; i++ {
		appendMsg(t, s, "main", "m")
	}
	want := headMsgs(t, s, "main")
	l.Close()

	tmp := filepath.Join(dir, "seg-00000099.log.tmp")
	if err := os.WriteFile(tmp, []byte("half a compacted segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, l2, _ := openLogStore(t, dir)
	defer l2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stray tmp file survived open: %v", err)
	}
	if got := headMsgs(t, s2, "main"); !statesEqual(got, want) {
		t.Fatalf("recovery around a stray tmp file lost state")
	}
}

// TestCheckpointSeek: a log written past its checkpoint cadence reopens
// by seeking to the newest checkpoint — a clean close replays exactly one
// record (the close checkpoint), whatever the history depth — and every
// lazily indexed object still verifies and reads back.
func TestCheckpointSeek(t *testing.T) {
	dir := t.TempDir()
	opts := []disk.Option{disk.WithCheckpointEvery(8), disk.WithSegmentBytes(4 << 10)}
	s, l, _ := openLogStore(t, dir, opts...)
	for i := 0; i < 50; i++ {
		appendMsg(t, s, "main", "a message long enough to exercise delta chains")
	}
	if st := l.Stats(); st.Checkpoints == 0 {
		t.Fatalf("no checkpoints after 50 mutations at cadence 8: %+v", st)
	}
	want := headMsgs(t, s, "main")
	wantCommits := s.NumCommits()
	l.Close()

	s2, l2, rec := openLogStore(t, dir, opts...)
	defer l2.Close()
	if rec.Mode != disk.ModeCheckpoint {
		t.Fatalf("recovered in mode %q, want %q", rec.Mode, disk.ModeCheckpoint)
	}
	if rec.Records != 1 {
		t.Fatalf("replayed %d records after a clean close, want just the checkpoint", rec.Records)
	}
	st := l2.Stats()
	if st.RecoveryMode != disk.ModeCheckpoint {
		t.Fatalf("Stats().RecoveryMode = %q, want %q", st.RecoveryMode, disk.ModeCheckpoint)
	}
	if st.CheckpointAge != 0 {
		t.Fatalf("CheckpointAge = %d just after a checkpoint-seeded open", st.CheckpointAge)
	}
	if got := headMsgs(t, s2, "main"); !statesEqual(got, want) {
		t.Fatalf("checkpoint recovery lost state")
	}
	if n := s2.NumCommits(); n != wantCommits {
		t.Fatalf("checkpoint recovery has %d commits, want %d", n, wantCommits)
	}
	// VerifyPack walks every chain, forcing each lazy object through its
	// on-disk re-read and CRC check.
	if err := s2.VerifyPack(); err != nil {
		t.Fatalf("VerifyPack over lazily recovered objects: %v", err)
	}
	// The age ticks with new records and the log stays writable.
	appendMsg(t, s2, "main", "after seek")
	if st := l2.Stats(); st.CheckpointAge == 0 {
		t.Fatalf("CheckpointAge did not advance with new records")
	}
}

// TestReopenFlatInHistory is the flat-recovery and flat-close gate at
// 10², 10³ and 10⁴ commits of history. After a clean close at the
// default cadence, a reopen seeks to the newest checkpoint — a full one,
// or a delta and its base, as the build's last periodic checkpoint left
// it — and reads at most two records at every depth. Its full-replay
// twin reads the same directories and replays more records the deeper
// the history, so a lost or skipped checkpoint cannot pass as flat.
// Beside it, a history written with a cadence it never reaches closes
// with one full checkpoint of the whole history; a session of 4 incs on
// it then closes with a delta that adds the same bytes at every depth,
// and the reopen after it reads that delta plus its base — the same
// count at every depth. A close that writes the full index grows with
// depth and fails the byte check.
func TestReopenFlatInHistory(t *testing.T) {
	openCounter := func(dir string, opts ...disk.Option) (*store.Store[int64, counter.Op, counter.Val], *disk.Log, *disk.Recovered) {
		t.Helper()
		l, rec, err := disk.Open(dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.OpenRecovered[int64, counter.Op, counter.Val](
			counter.IncCounter{}, wire.IncCounter{}, "main", 0, &rec.State, store.WithPersister(l))
		if err != nil {
			t.Fatal(err)
		}
		return s, l, rec
	}
	incs := func(s *store.Store[int64, counter.Op, counter.Val], n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Apply("main", counter.Op{Kind: counter.Inc, N: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	closeLog := func(l *disk.Log) {
		t.Helper()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// reopen opens dir, which must seek to a checkpoint and recover
	// commits commits, VerifyPack-clean.
	reopen := func(what string, dir string, commits int, opts ...disk.Option) (*store.Store[int64, counter.Op, counter.Val], *disk.Log, *disk.Recovered) {
		t.Helper()
		s, l, rec := openCounter(dir, opts...)
		if rec.Mode != disk.ModeCheckpoint {
			t.Fatalf("%s: reopened in mode %q, want %q", what, rec.Mode, disk.ModeCheckpoint)
		}
		if n := s.NumCommits(); n != commits {
			t.Fatalf("%s: recovered %d commits, want %d", what, n, commits)
		}
		if err := s.VerifyPack(); err != nil {
			t.Fatalf("%s: VerifyPack: %v", what, err)
		}
		return s, l, rec
	}
	ckpt := func(reg *obs.Registry, name, kind string) int64 {
		return reg.Counter("peepul_disk_checkpoint_"+name+"_total", "kind", kind).Value()
	}
	var seek, full, closeBytes, reseek []int64
	for _, history := range []int{100, 1_000, 10_000} {
		dir := t.TempDir()
		s, l, _ := openCounter(dir)
		incs(s, history)
		closeLog(l)

		_, l, rec := reopen(fmt.Sprintf("history %d", history), dir, history+1)
		if rec.Records > 2 {
			t.Fatalf("history %d: reopen replayed %d records, want at most a delta and its base", history, rec.Records)
		}
		seek = append(seek, rec.Records)
		closeLog(l)

		l, rec, err := disk.Open(dir, disk.WithFullReplay())
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, rec.Records)
		closeLog(l)

		// The session step, over a history whose close checkpoint is full.
		dir, reg := t.TempDir(), obs.NewRegistry()
		opts := []disk.Option{disk.WithCheckpointEvery(1 << 20), disk.WithObs(reg)}
		s, l, _ = openCounter(dir, opts...)
		incs(s, history)
		closeLog(l)

		s, l, _ = reopen(fmt.Sprintf("history %d, one close", history), dir, history+1, opts...)
		incs(s, 4)
		before := l.Stats().Bytes
		closeLog(l)
		added := l.Stats().Bytes - before
		closeBytes = append(closeBytes, added)

		// Both closes are counted by kind: the history's close is full,
		// the session's a delta, and the delta's framed bytes are what
		// its close added past the fresh segment's 8-byte header.
		fullN, deltaN := ckpt(reg, "writes", "full"), ckpt(reg, "writes", "delta")
		fullB, deltaB := ckpt(reg, "bytes", "full"), ckpt(reg, "bytes", "delta")
		if fullN != 1 || deltaN != 1 {
			t.Fatalf("history %d: checkpoint writes full=%d delta=%d, want 1 and 1", history, fullN, deltaN)
		}
		if deltaB != added-8 || 4*deltaB >= fullB {
			t.Fatalf("history %d: checkpoint bytes full=%d delta=%d, close added %d; want delta = added-8 < full/4", history, fullB, deltaB, added)
		}

		_, l, rec = reopen(fmt.Sprintf("history %d, after a session", history), dir, history+5, opts...)
		if rec.Records != 2 {
			t.Fatalf("history %d: reopen after a session replayed %d records, want the delta and its base", history, rec.Records)
		}
		reseek = append(reseek, rec.Records)
		closeLog(l)
	}
	t.Logf("at 10², 10³, 10⁴: checkpoint seek %v records, full replay %v records; session close %v B, reopen after it %v records",
		seek, full, closeBytes, reseek)
	for i := 1; i < len(seek); i++ {
		if full[i] <= full[i-1] {
			t.Fatalf("full replay reads %v records at 10², 10³, 10⁴; want growth with depth", full)
		}
		if closeBytes[i] != closeBytes[0] {
			t.Fatalf("a 4-inc session's close adds %v bytes at 10², 10³, 10⁴; want the same at every depth", closeBytes)
		}
		if reseek[i] != reseek[0] {
			t.Fatalf("reopen after a session replays %v records at 10², 10³, 10⁴; want the same count at every depth", reseek)
		}
	}
}

// TestUnknownKindRefused: a record that passes its checksum but carries
// a kind this build does not know was written by a newer format; it is
// not a torn tail. Open refuses the log with an error naming the segment,
// the offset and the kind, and leaves every file byte-identical — both
// for a record mid-log, which a full replay reaches with segments after
// it, and for one past the checkpoint a seek resumes from.
func TestUnknownKindRefused(t *testing.T) {
	opts := []disk.Option{disk.WithSegmentBytes(4 << 10)}
	for _, tc := range []struct {
		name string
		at   func(segs []string) string
		open []disk.Option
	}{
		{"mid-log, full replay", func(segs []string) string { return segs[0] }, []disk.Option{disk.WithFullReplay()}},
		{"past the seek", func(segs []string) string { return segs[len(segs)-1] }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, l, _ := openLogStore(t, dir, opts...)
			for i := 0; i < 200; i++ {
				appendMsg(t, s, "main", "a reasonably long chat message to grow the state")
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs := segmentFiles(t, dir)
			if len(segs) < 3 {
				t.Fatalf("%d segments, want at least 3", len(segs))
			}
			target := tc.at(segs)
			info, err := os.Stat(target)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(target, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(disk.Frame([]byte{99, 'n', 'e', 'w'})); err != nil {
				t.Fatal(err)
			}
			f.Close()

			before := segmentBytes(t, dir)
			_, _, err = disk.Open(dir, append(append([]disk.Option(nil), opts...), tc.open...)...)
			if err == nil {
				t.Fatal("Open accepted a record of unknown kind 99")
			}
			for _, want := range []string{filepath.Base(target), fmt.Sprintf("offset %d", info.Size()), "kind 99"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("Open error %q does not name %q", err, want)
				}
			}
			checkUntouched(t, dir, before)
		})
	}
}

// segmentBytes reads every segment file of dir, by name.
func segmentBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, p := range segmentFiles(t, dir) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// checkUntouched fails unless dir's segment files are exactly before.
func checkUntouched(t *testing.T, dir string, before map[string][]byte) {
	t.Helper()
	after := segmentBytes(t, dir)
	if len(after) != len(before) {
		t.Fatalf("Open left %d segments of %d", len(after), len(before))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("Open changed %s: %d bytes, was %d", name, len(after[name]), len(b))
		}
	}
}

// TestReplayIgnoresCheckpointContent: to replay, a checkpoint is a
// marker. A later segment headed by a CRC-valid checkpoint that indexes
// a commit and an object no record carries adds neither: a full replay
// recovers exactly the commits the log's commit records hold, and the
// pack verifies clean.
func TestReplayIgnoresCheckpointContent(t *testing.T) {
	dir := t.TempDir()
	s, l, _ := openLogStore(t, dir)
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		appendMsg(t, s, []string{"main", "dev"}[i%2], fmt.Sprintf("m%d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec, err := disk.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	branches := rec.State.Branches
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	commits := 0
	for _, p := range segmentFiles(t, dir) {
		_, kinds := segmentRecords(t, p)
		for _, k := range kinds {
			if k == disk.RecCommit {
				commits++
			}
		}
	}
	forged := store.Hash{0xF0}
	if err := disk.ForgeCheckpointSegment(dir, forged, store.Commit{State: store.Hash{0xF1}, Gen: 1}, branches); err != nil {
		t.Fatal(err)
	}

	s2, l2, rec2 := openLogStore(t, dir, disk.WithFullReplay())
	defer l2.Close()
	if rec2.Mode != disk.ModeReplay {
		t.Fatalf("full replay reported mode %q", rec2.Mode)
	}
	if n := s2.NumCommits(); n != commits {
		t.Fatalf("full replay recovered %d commits; the log's commit records hold %d", n, commits)
	}
	if _, ok := s2.Commit(forged); ok {
		t.Fatal("full replay installed a commit only a checkpoint named")
	}
	if err := s2.VerifyPack(); err != nil {
		t.Fatalf("VerifyPack: %v", err)
	}
}

// TestFullReplayMatchesCheckpoint: WithFullReplay ignores checkpoints
// and lands on exactly the same state the seek path recovers.
func TestFullReplayMatchesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := []disk.Option{disk.WithCheckpointEvery(8), disk.WithSegmentBytes(4 << 10)}
	s, l, _ := openLogStore(t, dir, opts...)
	for i := 0; i < 40; i++ {
		appendMsg(t, s, "main", "a message long enough to exercise delta chains")
	}
	// main ends with two heads: its record and the checkpoint tail carry
	// the set.
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	appendMsg(t, s, "main", "main's side")
	appendMsg(t, s, "dev", "dev's side")
	if err := s.Pull("main", "dev"); err != nil {
		t.Fatal(err)
	}
	want := headMsgs(t, s, "main")
	wantHead, _ := s.HeadHash("main")
	wantHeads := s.Heads("main")
	if len(wantHeads) != 2 {
		t.Fatalf("main holds %d heads, want 2", len(wantHeads))
	}
	wantCommits := s.NumCommits()
	l.Close()

	s2, l2, rec := openLogStore(t, dir, append(append([]disk.Option(nil), opts...), disk.WithFullReplay())...)
	if rec.Mode != disk.ModeReplay {
		t.Fatalf("full replay reported mode %q", rec.Mode)
	}
	if got := headMsgs(t, s2, "main"); !statesEqual(got, want) {
		t.Fatalf("full replay recovered different state")
	}
	if h, _ := s2.HeadHash("main"); h != wantHead || !slices.Equal(s2.Heads("main"), wantHeads) {
		t.Fatalf("full replay heads %v, want %v", s2.Heads("main"), wantHeads)
	}
	if n := s2.NumCommits(); n != wantCommits {
		t.Fatalf("full replay has %d commits, want %d", n, wantCommits)
	}
	l2.Close()

	s3, l3, rec3 := openLogStore(t, dir, opts...)
	defer l3.Close()
	if rec3.Mode != disk.ModeCheckpoint {
		t.Fatalf("seek reopen reported mode %q", rec3.Mode)
	}
	if h, _ := s3.HeadHash("main"); h != wantHead || !slices.Equal(s3.Heads("main"), wantHeads) {
		t.Fatalf("seek recovery heads %v, want %v", s3.Heads("main"), wantHeads)
	}
	if got := headMsgs(t, s3, "main"); !statesEqual(got, want) {
		t.Fatalf("seek recovery recovered different state")
	}
}

// TestSingleHeadBranchRecordRefused: a branch record of the single-head
// format (kind 4), as a build before head sets wrote it, is a kind this
// build does not know. Open refuses the log, past a seek and in a full
// replay alike, naming the kind, and leaves every file byte-identical.
func TestSingleHeadBranchRecordRefused(t *testing.T) {
	dir := t.TempDir()
	s, l, _ := openLogStore(t, dir)
	appendMsg(t, s, "main", "m")
	head, _ := s.HeadHash("main")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	w.PutString("legacy")
	w.PutHash(head)
	w.PutInt64(5)
	w.PutInt64(7)
	segs := segmentFiles(t, dir)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(disk.Frame(append([]byte{4}, w.Bytes()...))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before := segmentBytes(t, dir)
	for _, open := range [][]disk.Option{nil, {disk.WithFullReplay()}} {
		if _, _, err := disk.Open(dir, open...); err == nil || !strings.Contains(err.Error(), "unknown record kind 4") {
			t.Fatalf("Open of a log with a kind-4 record = %v, want unknown record kind 4", err)
		}
		checkUntouched(t, dir, before)
	}
}

// TestClosedLog: appends after Close fail, and the owning store surfaces
// the failure instead of silently running ahead of its log.
func TestClosedLog(t *testing.T) {
	dir := t.TempDir()
	s, l, _ := openLogStore(t, dir)
	appendMsg(t, s, "main", "m")
	l.Close()
	if _, err := s.Apply("main", mlog.Op{Kind: mlog.Append, Msg: "x"}); err == nil {
		t.Fatal("Apply succeeded with a closed log")
	}
}
