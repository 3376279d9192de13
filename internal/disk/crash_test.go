package disk_test

// Crash-injection property tests: the durability contract is that
// however the log is cut short or damaged at its tail, recovery lands on
// a VerifyPack-clean *prefix* of the committed DAG — never a corrupted
// or invented state — and the reopened replica converges with an
// undamaged peer through the ordinary delta-sync path.
//
// Each seed builds a random history over several sessions (operations on
// two branches and syncs; every session closes the log, leaving a full or
// delta checkpoint, and some are followed by a compaction), then
// injures the segment files one of three ways: truncating the byte
// stream at a random point, appending garbage, or flipping a random bit
// inside the tail region. Recovery must then (1) succeed, (2) recover
// only commits the original store had, (3) put every branch head at an
// ancestor-or-equal of its original position, and (4) converge with the
// undamaged original via ExportSincePacked/Import/Pull. TestCrashPointSweep
// replaces the random cut with every cut of one recorded log.

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/mlog"
	"repro/internal/store"
)

// buildRandomHistory drives a persistent store in dir through a random
// but Ψ_lca-sound workload over 2–4 sessions — each opens the log, runs
// some operations and closes it, and about half are followed by a
// compaction of the closed log — so the log holds several sessions'
// close checkpoints: deltas against a full base, or full ones after a
// compaction. It returns the final history as an undamaged replica: a
// store over a pristine copy of the log, so damage to dir never reaches
// the objects it loads lazily.
func buildRandomHistory(t *testing.T, dir string, rng *rand.Rand, opts ...disk.Option) *store.Store[mlog.State, mlog.Op, mlog.Val] {
	t.Helper()
	opts = append([]disk.Option{disk.WithSegmentBytes(4 << 10)}, opts...)
	sessions := 2 + rng.Intn(3)
	var heads map[string]store.Hash
	var commits int
	for sess := 0; sess < sessions; sess++ {
		s, l, _ := openLogStore(t, dir, opts...)
		ops := 3 + rng.Intn(8)
		if sess == 0 {
			if err := s.Fork("main", "dev"); err != nil {
				t.Fatal(err)
			}
			ops = 30 + rng.Intn(40)
		}
		for i := 0; i < ops; i++ {
			switch rng.Intn(10) {
			case 0, 1:
				appendMsg(t, s, "dev", fmt.Sprintf("dev %d.%d", sess, i))
			case 2:
				if err := s.Sync("main", "dev"); err != nil {
					t.Fatal(err)
				}
			default:
				appendMsg(t, s, "main", fmt.Sprintf("main %d.%d", sess, i))
			}
		}
		if sess == sessions-1 {
			if err := s.Sync("main", "dev"); err != nil {
				t.Fatal(err)
			}
			heads, commits = branchHeads(t, s), s.NumCommits()
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			cl, _ := compactLog(t, dir, opts...)
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	pristine := dir + ".orig"
	copyLog(t, dir, pristine, "", -1)
	orig, l, _ := openLogStore(t, pristine, opts...)
	t.Cleanup(func() { l.Close() })
	// The oracle comes from the same recovery code the tests exercise, so
	// it must hold exactly what the last session wrote.
	if got := branchHeads(t, orig); !maps.Equal(got, heads) || orig.NumCommits() != commits {
		t.Fatalf("clean reopen: %d commits, heads %v; the last session closed with %d, heads %v",
			orig.NumCommits(), got, commits, heads)
	}
	return orig
}

// branchHeads maps each of s's branches to its head.
func branchHeads(t *testing.T, s *store.Store[mlog.State, mlog.Op, mlog.Val]) map[string]store.Hash {
	t.Helper()
	heads := map[string]store.Hash{}
	for _, b := range s.Branches() {
		h, err := s.HeadHash(b)
		if err != nil {
			t.Fatal(err)
		}
		heads[b] = h
	}
	return heads
}

// copyLog copies the segment files of src into a fresh directory dst. If
// cutSeg names one of them, it is cut to its first cutAt bytes and no
// later segment is copied — a crash that lost the byte stream from there
// on.
func copyLog(t *testing.T, src, dst, cutSeg string, cutAt int64) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range segmentFiles(t, src) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cut := filepath.Base(p) == cutSeg
		if cut {
			b = b[:cutAt]
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(p)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if cut {
			return
		}
	}
}

// segmentFiles returns the directory's segment paths in replay order.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	if len(segs) == 0 {
		t.Fatal("no segments on disk")
	}
	return segs
}

// injure damages the on-disk log according to mode.
func injure(t *testing.T, dir string, rng *rand.Rand, mode int) string {
	t.Helper()
	segs := segmentFiles(t, dir)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	switch mode {
	case 0: // truncate the global byte stream at a random point
		total := int64(0)
		sizes := make([]int64, len(segs))
		for i, p := range segs {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			sizes[i] = fi.Size()
			total += fi.Size()
		}
		cut := rng.Int63n(total + 1)
		for i, p := range segs {
			if cut >= sizes[i] {
				cut -= sizes[i]
				continue
			}
			if err := os.Truncate(p, cut); err != nil {
				t.Fatal(err)
			}
			for _, later := range segs[i+1:] {
				if err := os.Remove(later); err != nil {
					t.Fatal(err)
				}
			}
			return fmt.Sprintf("truncate %s at %d", filepath.Base(p), cut)
		}
		return "truncate nothing"
	case 1: // torn write: garbage appended past the last record
		f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 1+rng.Intn(200))
		rng.Read(junk)
		f.Write(junk)
		f.Close()
		return fmt.Sprintf("append %d garbage bytes to %s", len(junk), filepath.Base(last))
	default: // bit flip in the tail region of the last segment
		if info.Size() == 0 {
			return "empty tail"
		}
		tail := info.Size() / 2
		off := tail + rng.Int63n(info.Size()-tail)
		f, err := os.OpenFile(last, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1 << uint(rng.Intn(8))
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return fmt.Sprintf("flip bit at %d/%d of %s", off, info.Size(), filepath.Base(last))
	}
}

// isAncestor reports whether a is an ancestor of (or equal to) a member
// of head set bs in s.
func isAncestor(s *store.Store[mlog.State, mlog.Op, mlog.Val], a store.Hash, bs []store.Hash) bool {
	seen := map[store.Hash]bool{}
	var stack []store.Hash
	for _, b := range bs {
		seen[b] = true
		stack = append(stack, b)
	}
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if h == a {
			return true
		}
		c, ok := s.Commit(h)
		if !ok {
			return false
		}
		for _, p := range c.Parents {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// checkRecoveryProperties asserts the durability contract on a recovered
// store: (2) every recovered head exists in the undamaged original —
// recovery can lose history, never invent it; (3) heads landed on
// ancestors of their original positions; (4) the recovered replica
// converges with the undamaged peer over ordinary delta sync and its
// pack verifies clean afterwards. ((1), recovery succeeding at all, is
// openLogStore's job — it fatals otherwise.)
func checkRecoveryProperties(t *testing.T, what string, orig, s2 *store.Store[mlog.State, mlog.Op, mlog.Val]) {
	t.Helper()
	origHeads := orig.Heads("main")
	recHeads := s2.Heads("main")
	if recHeads == nil {
		t.Fatalf("%s: recovered store lost branch main", what)
	}
	missing := 0
	for _, b := range s2.Branches() {
		for _, h := range s2.Heads(b) {
			if _, ok := orig.Commit(h); !ok && s2.NumCommits() > 1 {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%s: recovered a head the original never committed", what)
	}
	for _, h := range recHeads {
		if !isAncestor(orig, h, origHeads) {
			t.Fatalf("%s: recovered head %v is not a prefix of original %v", what, h, origHeads)
		}
	}

	// Convergence: cut the export at the recovered frontier, graft, pull
	// — the recovered replica must land exactly on the original head
	// state.
	f, err := s2.Frontier("main")
	if err != nil {
		t.Fatal(err)
	}
	delta, head, err := orig.ExportSincePacked("main", f.HaveSet())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Import("remote/orig", delta, head); err != nil {
		t.Fatalf("%s: import after recovery: %v", what, err)
	}
	if err := s2.Pull("main", "remote/orig"); err != nil {
		t.Fatalf("%s: pull after recovery: %v", what, err)
	}
	got, err := s2.Head("main")
	if err != nil {
		t.Fatal(err)
	}
	want, err := orig.Head("main")
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(got, want) {
		t.Fatalf("%s: recovered replica did not converge with undamaged peer", what)
	}
	if err := s2.VerifyPack(); err != nil {
		t.Fatalf("%s: VerifyPack after convergence: %v", what, err)
	}
}

func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for mode := 0; mode < 3; mode++ {
				rng := rand.New(rand.NewSource(seed*31 + int64(mode)))
				dir := filepath.Join(t.TempDir(), "log")
				orig := buildRandomHistory(t, dir, rng)

				what := injure(t, dir, rng, mode)

				// Recovery must succeed: disk.Open truncates the damage
				// (retrying past a damaged checkpoint), and the store
				// verifies the recovered prefix at open.
				s2, l2, _ := openLogStore(t, dir, disk.WithSegmentBytes(4<<10))
				defer l2.Close()
				checkRecoveryProperties(t, what, orig, s2)
			}
		})
	}
}

// flipInHead flips one random bit inside the payload of the first record
// of the segment at path — its checkpoint, after a clean close.
func flipInHead(t *testing.T, path string, rng *rand.Rand) int64 {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lenb [4]byte
	if _, err := f.ReadAt(lenb[:], 8); err != nil {
		t.Fatal(err)
	}
	off := 8 + 8 + rng.Int63n(max(int64(binary.BigEndian.Uint32(lenb[:])), 1))
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1 << uint(rng.Intn(8))
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	return off
}

// injureCheckpoint damages checkpoint-bearing state specifically: the
// newest segment's head record is a checkpoint after a clean close — a
// delta, often, naming an older full checkpoint as its base — and older
// segments hold the bytes their index references.
func injureCheckpoint(t *testing.T, dir string, rng *rand.Rand, mode int) string {
	t.Helper()
	segs := segmentFiles(t, dir)
	last := segs[len(segs)-1]
	const hdr = 8 + 8 // segment magic + frame header
	switch mode {
	case 0: // truncate inside the checkpoint record: a torn checkpoint write
		info, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		limit := info.Size() - hdr
		if limit <= 0 {
			return "checkpoint too small to truncate"
		}
		cut := hdr + rng.Int63n(limit)
		if err := os.Truncate(last, cut); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("truncate checkpoint %s at %d", filepath.Base(last), cut)
	case 1: // flip a bit inside the checkpoint record's payload
		off := flipInHead(t, last, rng)
		return fmt.Sprintf("flip bit at %d inside checkpoint %s", off, filepath.Base(last))
	case 3: // flip a bit inside the full checkpoint the newest delta names
		base, ok := disk.NewestDeltaBase(dir)
		if !ok {
			return noDelta
		}
		off := flipInHead(t, base, rng)
		return fmt.Sprintf("flip bit at %d inside delta base %s", off, filepath.Base(base))
	default: // flip a bit in the oldest segment: bytes the checkpoint indexes
		first := segs[0]
		info, err := os.Stat(first)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() <= 8 {
			return "first segment empty"
		}
		off := 8 + rng.Int63n(info.Size()-8)
		f, err := os.OpenFile(first, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1 << uint(rng.Intn(8))
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("flip bit at %d of indexed segment %s", off, filepath.Base(first))
	}
}

// noDelta is injureCheckpoint's report when no delta names a base.
const noDelta = "no delta checkpoint to damage the base of"

// TestCrashCheckpointDamage: damage aimed at the checkpoint machinery —
// a torn or bit-flipped checkpoint record, corruption in the older bytes
// a checkpoint's index references, or a bit flip in the full checkpoint
// a delta names as its base — must still recover to a verified prefix
// that re-converges over delta sync. Torn and flipped checkpoints fall
// back inside disk.Open (a delta whose base fails its CRC counts as torn:
// probe an older checkpoint or replay segments); damaged indexed bytes
// pass disk.Open but fail the store's verification, driving
// openLogStore's full-replay ladder rung.
func TestCrashCheckpointDamage(t *testing.T) {
	opts := []disk.Option{disk.WithCheckpointEvery(4)}
	bases := 0
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for mode := 0; mode < 4; mode++ {
				rng := rand.New(rand.NewSource(seed*37 + int64(mode)))
				dir := filepath.Join(t.TempDir(), "log")
				orig := buildRandomHistory(t, dir, rng, opts...)

				what := injureCheckpoint(t, dir, rng, mode)
				if mode == 3 && what != noDelta {
					bases++
				}

				s2, l2, _ := openLogStore(t, dir, append([]disk.Option{disk.WithSegmentBytes(4 << 10)}, opts...)...)
				defer l2.Close()
				checkRecoveryProperties(t, what, orig, s2)
			}
		})
	}
	if bases == 0 {
		t.Fatal("no seed left a delta checkpoint whose base could be damaged")
	}
	t.Logf("%d of 8 seeds damaged a delta's base", bases)
}

// segmentRecords returns the record boundaries of the segment at path —
// where its first record starts, just past the magic, then where each
// record ends — and each record's kind byte.
func segmentRecords(t *testing.T, path string) (bounds []int64, kinds []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(8)
	bounds = []int64{off}
	for off+8 < int64(len(b)) {
		end := off + 8 + int64(binary.BigEndian.Uint32(b[off:]))
		if end > int64(len(b)) {
			t.Fatalf("%s: record at %d runs past the end", filepath.Base(path), off)
		}
		kinds = append(kinds, b[off+8])
		bounds = append(bounds, end)
		off = end
	}
	if off != int64(len(b)) {
		t.Fatalf("%s: %d stray bytes past the last record", filepath.Base(path), int64(len(b))-off)
	}
	return bounds, kinds
}

// composedObjects counts the objects of the log in dir stored as one
// patch composed onto their chain's snapshot: depth-1 patches whose base
// is not the state of their commit's first parent.
func composedObjects(t *testing.T, dir string) int {
	t.Helper()
	l, rec, err := disk.Open(dir, disk.WithFullReplay())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := 0
	for _, c := range rec.State.Commits {
		if len(c.Parents) == 0 {
			continue
		}
		parent := rec.State.Commits[c.Parents[0]]
		if o := rec.State.Objects[c.State]; o.Delta && o.Depth == 1 && o.Base != parent.State {
			n++
		}
	}
	return n
}

// multiHeadBranches counts the branches of the log in dir whose head set,
// read by a full replay, has several members.
func multiHeadBranches(t *testing.T, dir string) int {
	t.Helper()
	l, rec, err := disk.Open(dir, disk.WithFullReplay())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := 0
	for _, b := range rec.State.Branches {
		if len(b.Heads) > 1 {
			n++
		}
	}
	return n
}

// TestCrashPointSweep cuts one recorded log at every record boundary and
// once inside every record, and reopens each cut through the recovery
// ladder: every cut must recover a VerifyPack-clean store whose branch
// heads are ancestors of (or equal to) the original heads. The log is
// built without randomness and holds a compacted segment, the full
// checkpoint written after the compaction, and three sessions' delta
// checkpoints against it.
func TestCrashPointSweep(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "log")
	opts := []disk.Option{disk.WithSegmentBytes(4 << 10)}
	sync := func(s *store.Store[mlog.State, mlog.Op, mlog.Val]) {
		t.Helper()
		if err := s.Sync("main", "dev"); err != nil {
			t.Fatal(err)
		}
	}

	s, l, _ := openLogStore(t, dir, opts...)
	// A large first entry keeps the patches of the short entries below a
	// quarter of the state, so chain-full states compose onto their
	// chain's snapshot and the sweep cuts through composed objects too.
	appendMsg(t, s, "main", strings.Repeat("large first entry ", 256))
	for _, b := range []string{"dev", "scratch"} {
		if err := s.Fork("main", b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		appendMsg(t, s, "main", fmt.Sprintf("main %d", i))
		switch i % 4 {
		case 0:
			appendMsg(t, s, "dev", fmt.Sprintf("dev %d", i))
		case 1:
			appendMsg(t, s, "scratch", fmt.Sprintf("scratch %d", i))
		case 2:
			sync(s)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = compactLog(t, dir, opts...)
	if n := l.Stats().Compactions; n != 1 {
		t.Fatalf("%d compactions, want 1", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for sess := 0; sess < 3; sess++ {
		s, l, _ = openLogStore(t, dir, opts...)
		appendMsg(t, s, "main", fmt.Sprintf("session %d", sess))
		appendMsg(t, s, "dev", fmt.Sprintf("session %d", sess))
		sync(s)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if n := composedObjects(t, dir); n == 0 {
		t.Fatal("the swept log holds no object composed onto its chain's snapshot")
	} else {
		t.Logf("swept log holds %d composed objects", n)
	}
	// The last sync leaves both branches with two heads, so the sweep
	// cuts through head-set branch records too.
	if n := multiHeadBranches(t, dir); n == 0 {
		t.Fatal("the swept log holds no branch with several heads")
	} else {
		t.Logf("swept log holds %d multi-head branches", n)
	}
	orig, lo, _ := openLogStore(t, dir, opts...)
	defer lo.Close()
	origHeads := branchHeads(t, orig)

	heads := map[byte]int{}
	for _, p := range segmentFiles(t, dir) {
		if _, kinds := segmentRecords(t, p); len(kinds) > 0 {
			heads[kinds[0]]++
		}
	}
	if heads[disk.RecCheckpoint] < 1 || heads[disk.RecCheckpointDelta] < 2 {
		t.Fatalf("segment heads: %d full checkpoints, %d deltas; want at least 1 and 2",
			heads[disk.RecCheckpoint], heads[disk.RecCheckpointDelta])
	}

	cuts := 0
	check := func(seg string, at int64) {
		t.Helper()
		what := fmt.Sprintf("cut %s at %d", seg, at)
		cutDir := filepath.Join(root, fmt.Sprintf("cut-%d", cuts))
		cuts++
		copyLog(t, dir, cutDir, seg, at)
		s2, l2, _ := openLogStore(t, cutDir, opts...)
		defer func() {
			l2.Close()
			os.RemoveAll(cutDir)
		}()
		if err := s2.VerifyPack(); err != nil {
			t.Fatalf("%s: VerifyPack: %v", what, err)
		}
		for _, b := range s2.Branches() {
			if _, ok := origHeads[b]; !ok {
				t.Fatalf("%s: recovered branch %q the original never had", what, b)
			}
			for _, got := range s2.Heads(b) {
				if want := orig.Heads(b); !isAncestor(orig, got, want) {
					t.Fatalf("%s: recovered %s head %v is not an ancestor of the original %v", what, b, got, want)
				}
			}
		}
	}
	for _, p := range segmentFiles(t, dir) {
		bounds, _ := segmentRecords(t, p)
		for i, at := range bounds {
			check(filepath.Base(p), at)
			if i+1 < len(bounds) {
				check(filepath.Base(p), (at+bounds[i+1])/2)
			}
		}
	}
	t.Logf("%d cuts over %d full and %d delta checkpoint heads", cuts, heads[disk.RecCheckpoint], heads[disk.RecCheckpointDelta])
}
