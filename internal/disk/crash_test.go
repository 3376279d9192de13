package disk_test

// Crash-injection property tests: the durability contract is that
// however the log is cut short or damaged at its tail, recovery lands on
// a VerifyPack-clean *prefix* of the committed DAG — never a corrupted
// or invented state — and the reopened replica converges with an
// undamaged peer through the ordinary delta-sync path.
//
// Each seed builds a random history (operations on two branches, syncs,
// occasional GC so compaction runs too), closes the log, then injures
// the segment files one of three ways: truncating the byte stream at a
// random point, appending garbage, or flipping a random bit inside the
// tail region. Recovery must then (1) succeed, (2) recover only commits
// the original store had, (3) put every branch head at an
// ancestor-or-equal of its original position, and (4) converge with the
// undamaged original via ExportSincePacked/Import/Pull.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/disk"
	"repro/internal/mlog"
	"repro/internal/store"
)

// buildRandomHistory drives a persistent store through a random but
// Ψ_lca-sound workload and returns it (its log closed, ready to damage).
func buildRandomHistory(t *testing.T, dir string, rng *rand.Rand, opts ...disk.Option) *store.Store[mlog.State, mlog.Op, mlog.Val] {
	t.Helper()
	s, l, _ := openLogStore(t, dir, append([]disk.Option{disk.WithSegmentBytes(4 << 10)}, opts...)...)
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	ops := 30 + rng.Intn(40)
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			appendMsg(t, s, "dev", fmt.Sprintf("dev %d", i))
		case 2:
			if err := s.Sync("main", "dev"); err != nil {
				t.Fatal(err)
			}
		case 3:
			s.GC() // exercises compaction mid-history
			if err := s.FlushStorage(); err != nil {
				t.Fatal(err)
			}
		default:
			appendMsg(t, s, "main", fmt.Sprintf("main %d", i))
		}
	}
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return s
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

// isAncestor reports whether a is an ancestor of (or equal to) b in s.
func isAncestor(s *store.Store[mlog.State, mlog.Op, mlog.Val], a, b store.Hash) bool {
	seen := map[store.Hash]bool{b: true}
	stack := []store.Hash{b}
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
	origHead, err := orig.HeadHash("main")
	if err != nil {
		t.Fatal(err)
	}
	recHead, err := s2.HeadHash("main")
	if err != nil {
		t.Fatalf("%s: recovered store lost branch main: %v", what, err)
	}
	missing := 0
	for _, b := range s2.Branches() {
		h, err := s2.HeadHash(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := orig.Commit(h); !ok && s2.NumCommits() > 1 {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%s: recovered a head the original never committed", what)
	}
	if !isAncestor(orig, recHead, origHead) {
		t.Fatalf("%s: recovered head %v is not a prefix of original %v", what, recHead, origHead)
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

// injureCheckpoint damages checkpoint-bearing state specifically: the
// newest segment's head record is a checkpoint after a clean close, and
// older segments hold the bytes its index references.
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
		f, err := os.OpenFile(last, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var lenb [4]byte
		if _, err := f.ReadAt(lenb[:], 8); err != nil {
			t.Fatal(err)
		}
		length := int64(lenb[0])<<24 | int64(lenb[1])<<16 | int64(lenb[2])<<8 | int64(lenb[3])
		off := hdr + rng.Int63n(max(length, 1))
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1 << uint(rng.Intn(8))
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("flip bit at %d inside checkpoint %s", off, filepath.Base(last))
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

// TestCrashCheckpointDamage: damage aimed at the checkpoint machinery —
// a torn or bit-flipped checkpoint record, or corruption in the older
// bytes a checkpoint's index references — must still recover to a
// verified prefix that re-converges over delta sync. The first two fall
// back inside disk.Open (probe an older checkpoint or replay segments);
// the third passes disk.Open but fails the store's verification, driving
// openLogStore's full-replay ladder rung.
func TestCrashCheckpointDamage(t *testing.T) {
	opts := []disk.Option{disk.WithCheckpointEvery(4)}
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for mode := 0; mode < 3; mode++ {
				rng := rand.New(rand.NewSource(seed*37 + int64(mode)))
				dir := filepath.Join(t.TempDir(), "log")
				orig := buildRandomHistory(t, dir, rng, opts...)

				what := injureCheckpoint(t, dir, rng, mode)

				s2, l2, _ := openLogStore(t, dir, append([]disk.Option{disk.WithSegmentBytes(4 << 10)}, opts...)...)
				defer l2.Close()
				checkRecoveryProperties(t, what, orig, s2)
			}
		})
	}
}
