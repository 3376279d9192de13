package delta_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/delta"
)

func roundTrip(t *testing.T, base, target []byte) []byte {
	t.Helper()
	patch := delta.Make(base, target)
	got, err := delta.Apply(base, patch)
	if err != nil {
		t.Fatalf("Apply(Make): %v (base %d bytes, target %d bytes)", err, len(base), len(target))
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(target))
	}
	return patch
}

func TestRoundTripEdgeCases(t *testing.T) {
	cases := []struct{ name, base, target string }{
		{"both-empty", "", ""},
		{"empty-base", "", "hello world, this is a fresh target"},
		{"empty-target", "some base content that vanishes", ""},
		{"identical", "the exact same sixteen-plus bytes", "the exact same sixteen-plus bytes"},
		{"append", "a shared prefix of decent length", "a shared prefix of decent length plus a tail"},
		{"prepend", "a shared suffix of decent length", "fresh head then a shared suffix of decent length"},
		{"middle-edit", "left side 0123456789abcdef right side", "left side FEDCBA9876543210 right side"},
		{"short", "ab", "abc"},
		{"disjoint", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			roundTrip(t, []byte(c.base), []byte(c.target))
		})
	}
}

// trimBoundaryCases are the inputs that sit on the edges of Make's trim:
// each is a seed of FuzzRoundTrip and a case of TestTrimBoundaries.
func trimBoundaryCases() []struct {
	name         string
	base, target []byte
} {
	rep := func(s string, n int) []byte { return bytes.Repeat([]byte(s), n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	block := []byte("0123456789abcdefghijklmnopqrstuv") // 32 distinct bytes
	return []struct {
		name         string
		base, target []byte
	}{
		{"identical", rep("0123456789abcdef", 40), rep("0123456789abcdef", 40)},
		// Periodic input: the shared prefix and the shared suffix overlap.
		{"periodic-grow", rep("a", 100), rep("a", 130)},
		{"periodic-shrink", rep("a", 130), rep("a", 100)},
		{"periodic-grow-by-one", rep("ab", 50), rep("ab", 51)},
		// Shared runs one short of, exactly, and one past a block.
		{"prefix-15", cat(block[:15], rep("x", 40)), cat(block[:15], rep("y", 40))},
		{"prefix-16", cat(block[:16], rep("x", 40)), cat(block[:16], rep("y", 40))},
		{"prefix-17", cat(block[:17], rep("x", 40)), cat(block[:17], rep("y", 40))},
		{"suffix-15", cat(rep("x", 40), block[:15]), cat(rep("y", 40), block[:15])},
		{"suffix-16", cat(rep("x", 40), block[:16]), cat(rep("y", 40), block[:16])},
		{"suffix-17", cat(rep("x", 40), block[:17]), cat(rep("y", 40), block[:17])},
		// One middle empty.
		{"pure-insertion", cat(block, block), cat(block, []byte("inserted"), block)},
		{"pure-deletion", cat(block, []byte("deleted"), block), cat(block, block)},
		{"short-base", []byte("fifteen bytes.."), cat(block, block)},
		{"short-target", cat(block, block), []byte("fifteen bytes..")},
		// The edit sits in the last, partial window of a base whose length
		// is not a multiple of the block size.
		{"edit-in-partial-window", cat(block, block, []byte("tail-A")), cat(block, block, []byte("tail-B"))},
		{"edit-before-partial-window", cat(block, block[:20], []byte("Z"), block[:5]), cat(block, block[:20], []byte("Q"), block[:5])},
	}
}

// TestTrimBoundaries: every boundary case round-trips, an unchanged input
// costs no more than the identity patch, and a patch never has spare
// capacity for the store to pin.
func TestTrimBoundaries(t *testing.T) {
	for _, c := range trimBoundaryCases() {
		t.Run(c.name, func(t *testing.T) {
			patch := roundTrip(t, c.base, c.target)
			if cap(patch) != len(patch) {
				t.Errorf("patch has cap %d for len %d", cap(patch), len(patch))
			}
			if bytes.Equal(c.base, c.target) && len(patch) > len(delta.Identity(len(c.base))) {
				t.Errorf("patch of an unchanged input is %d bytes, identity patch %d", len(patch), len(delta.Identity(len(c.base))))
			}
		})
	}
}

func TestPatchCompressesSmallEdits(t *testing.T) {
	// A small edit on a large base must yield a patch much smaller than
	// the target — the whole point of chaining states as deltas.
	base := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
	target := append(append([]byte{}, base...), []byte("one appended operation")...)
	patch := roundTrip(t, base, target)
	if len(patch) > len(target)/16 {
		t.Fatalf("patch is %d bytes for a %d-byte target with a tiny edit", len(patch), len(target))
	}
}

func TestIdentity(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096} {
		base := bytes.Repeat([]byte{0xab}, n)
		got, err := delta.Apply(base, delta.Identity(n))
		if err != nil {
			t.Fatalf("Identity(%d): %v", n, err)
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("Identity(%d) does not rebuild the base", n)
		}
	}
	if _, err := delta.Apply([]byte("abc"), delta.Identity(4)); err == nil {
		t.Fatal("identity patch for the wrong length must fail")
	}
}

func TestApplyRejectsWrongBase(t *testing.T) {
	base := []byte("the original base, sixteen plus")
	patch := delta.Make(base, []byte("the original base, sixteen plus and more"))
	if _, err := delta.Apply([]byte("a different base"), patch); err == nil {
		t.Fatal("Apply accepted a patch made against another base")
	}
}

func TestApplyRejectsCorruptPatches(t *testing.T) {
	base := bytes.Repeat([]byte("abcdefgh"), 16)
	target := append(bytes.Repeat([]byte("abcdefgh"), 16), []byte("tail")...)
	patch := delta.Make(base, target)
	for i := range patch {
		for _, flip := range []byte{0xff, 0x80, 0x01} {
			mut := append([]byte(nil), patch...)
			mut[i] ^= flip
			if bytes.Equal(mut, patch) {
				continue
			}
			out, err := delta.Apply(base, mut)
			// A flipped byte may still decode (e.g. inside insert
			// literals) — then the output must simply differ; it must
			// never panic or read out of bounds.
			if err == nil && len(out) != len(target) {
				t.Fatalf("corrupt patch (byte %d ^ %#x) produced %d bytes without error, want %d",
					i, flip, len(out), len(target))
			}
		}
	}
	// Truncations must all fail or produce a short, caught output.
	for i := 0; i < len(patch); i++ {
		if _, err := delta.Apply(base, patch[:i]); err == nil {
			t.Fatalf("truncated patch (%d of %d bytes) applied cleanly", i, len(patch))
		}
	}
}

// TestApplyBoundsHostileAmplification: a tiny patch stacking whole-base
// copy opcodes under a huge announced target length must be rejected at
// the first opcode that would push output past the announced length (and
// a length beyond MaxTarget must be rejected outright) — Apply's
// allocation is bounded by min(MaxTarget, announced), never by
// opcode-count × base-size.
func TestApplyBoundsHostileAmplification(t *testing.T) {
	base := bytes.Repeat([]byte{0x5a}, 1<<20) // 1 MiB base
	hostile := func(targetLen uint64, copies int) []byte {
		p := binary.AppendUvarint(nil, uint64(len(base)))
		p = binary.AppendUvarint(p, targetLen)
		for i := 0; i < copies; i++ {
			p = append(p, 0x01) // opCopy
			p = binary.AppendUvarint(p, 0)
			p = binary.AppendUvarint(p, uint64(len(base)))
		}
		return p
	}
	// Announced length beyond MaxTarget: rejected before any output.
	if _, err := delta.Apply(base, hostile(1<<40, 2000)); err == nil {
		t.Fatal("patch announcing 1 TiB must be rejected")
	}
	// Announced length inside MaxTarget but amplified past it by copies:
	// the opcode crossing the announced length fails the apply.
	if _, err := delta.Apply(base, hostile(delta.MaxTarget, 2000)); err == nil {
		t.Fatal("copy amplification past the announced length must be rejected")
	}
}

// TestApplyToMatchesApply: on every codec-shaped corpus, ApplyTo rebuilds
// Apply's target whatever dst holds — nil, a dirty buffer too small for
// the target, or a dirty one large enough. Given no room it allocates an
// eighth more than the target; into a large-enough dst it writes in
// place and allocates nothing.
func TestApplyToMatchesApply(t *testing.T) {
	dirty := func(n int) []byte { return bytes.Repeat([]byte{0xa5}, n) }
	for seed := int64(1); seed <= 3; seed++ {
		for _, c := range codecCorpora(rand.New(rand.NewSource(seed))) {
			patch := delta.Make(c.base, c.target)
			want, err := delta.Apply(c.base, patch)
			if err != nil || !bytes.Equal(want, c.target) {
				t.Fatalf("seed %d %s: Apply: %v, or a different target", seed, c.name, err)
			}
			for _, d := range []struct {
				name string
				dst  []byte
			}{
				{"nil", nil},
				{"too-small", dirty(len(c.target) / 2)[:1]},
				{"large-enough", dirty(len(c.target) + 16)[:3]},
			} {
				got, err := delta.ApplyTo(d.dst, c.base, patch)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s: ApplyTo into a %s dst: %v, or not Apply's target", seed, c.name, d.name, err)
				}
				if d.dst == nil && cap(got) < len(want)+len(want)/8 {
					t.Errorf("seed %d %s: ApplyTo allocated cap %d for a %d-byte target, want an eighth more", seed, c.name, cap(got), len(want))
				}
			}
			dst := dirty(len(c.target) + 16)
			var got []byte
			allocs := testing.AllocsPerRun(10, func() { got, err = delta.ApplyTo(dst, c.base, patch) })
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("seed %d %s: ApplyTo in place: %v, or not Apply's target", seed, c.name, err)
			}
			if allocs != 0 {
				t.Errorf("seed %d %s: ApplyTo into a large-enough dst allocated %v times, want 0", seed, c.name, allocs)
			}
			if &got[:1][0] != &dst[0] {
				t.Errorf("seed %d %s: ApplyTo's result does not share dst's array", seed, c.name)
			}
		}
	}
}

// TestApplyToAllocatesWithinApplysBound: a patch announcing a target far
// beyond what its opcodes produce gets no more room from ApplyTo than
// Apply gives it — at most eight times the base and patch bytes,
// whatever dst it is given — and is refused.
func TestApplyToAllocatesWithinApplysBound(t *testing.T) {
	base := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1 KiB
	forged := func(target uint64) []byte {
		p := binary.AppendUvarint(nil, uint64(len(base)))
		p = binary.AppendUvarint(p, target)
		p = append(p, 0x01) // opCopy of the whole base
		p = binary.AppendUvarint(p, 0)
		return binary.AppendUvarint(p, uint64(len(base)))
	}
	const runs = 20
	for _, target := range []uint64{1 << 40, delta.MaxTarget, 64 << 10, 9 << 10} {
		patch := forged(target)
		// The allocator rounds a large buffer up by less than an eighth,
		// and the error the refusal formats costs a few hundred bytes.
		lim := 8 * (len(base) + len(patch))
		bound := uint64(lim + lim/8 + 1024)
		for _, dst := range [][]byte{nil, make([]byte, 100)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if _, err := delta.ApplyTo(dst, base, patch); err == nil {
					t.Fatalf("a patch announcing %d bytes for a %d-byte output applied", target, len(base))
				}
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > bound {
				t.Errorf("announced %d bytes, dst cap %d: ApplyTo allocated %d bytes a call, want at most %d", target, cap(dst), per, bound)
			}
		}
	}
}

// TestRandomizedRoundTrip is the property test: targets derived from a
// random base by random splices must always round-trip, whatever the
// mutation pattern.
func TestRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		base := make([]byte, rng.Intn(4096))
		// Low-entropy alphabet: repeated windows stress the match index.
		for i := range base {
			base[i] = byte('a' + rng.Intn(4))
		}
		target := append([]byte(nil), base...)
		for edits := rng.Intn(8); edits > 0; edits-- {
			if len(target) == 0 {
				target = append(target, 'x')
				continue
			}
			at := rng.Intn(len(target))
			switch rng.Intn(3) {
			case 0: // delete a run
				end := at + rng.Intn(64)
				if end > len(target) {
					end = len(target)
				}
				target = append(target[:at], target[end:]...)
			case 1: // insert a run
				ins := make([]byte, rng.Intn(64))
				for i := range ins {
					ins[i] = byte(rng.Intn(256))
				}
				target = append(target[:at], append(ins, target[at:]...)...)
			case 2: // overwrite a byte
				target[at] ^= byte(1 + rng.Intn(255))
			}
		}
		roundTrip(t, base, target)
	}
}

// FuzzApply: arbitrary patches against arbitrary bases must error or
// produce output — never panic, never over-allocate via forged lengths.
func FuzzApply(f *testing.F) {
	base := []byte("seed base content, sixteen plus bytes")
	f.Add(base, delta.Make(base, []byte("seed base content, sixteen plus bytes edited")))
	f.Add([]byte(""), []byte{0, 0})
	f.Add(base, []byte{37, 1, 1, 0, 5})
	f.Fuzz(func(t *testing.T, base, patch []byte) {
		out, err := delta.Apply(base, patch)
		if err != nil {
			return
		}
		// A successful apply must be deterministic.
		again, err := delta.Apply(base, patch)
		if err != nil || !bytes.Equal(out, again) {
			t.Fatal("Apply is not deterministic")
		}
	})
}

// FuzzRoundTrip: Make/Apply agree for arbitrary byte pairs.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("some base"), []byte("some target"))
	f.Add([]byte(""), []byte(""))
	for _, c := range trimBoundaryCases() {
		f.Add(c.base, c.target)
	}
	f.Fuzz(func(t *testing.T, base, target []byte) {
		patch := delta.Make(base, target)
		got, err := delta.Apply(base, patch)
		if err != nil {
			t.Fatalf("Apply(Make): %v", err)
		}
		if !bytes.Equal(got, target) {
			t.Fatal("round trip mismatch")
		}
		// Into a dirty recycled buffer with room for the target.
		dst := bytes.Repeat([]byte{0xa5}, len(target)+8)
		if got, err := delta.ApplyTo(dst[:1], base, patch); err != nil || !bytes.Equal(got, target) {
			t.Fatalf("ApplyTo into a recycled buffer: %v, or a different target", err)
		}
		checkShared(t, base, target)
		// Below one 16-byte block Make does not look for copies at all.
		if len(base) >= 16 && bytes.Equal(base, target) && len(patch) > len(delta.Identity(len(base))) {
			t.Fatalf("unchanged %d-byte input costs a %d-byte patch", len(base), len(patch))
		}
	})
}

// commonTail is the length of the longest common suffix of a and b.
func commonTail(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[len(a)-1-n] == b[len(b)-1-n] {
		n++
	}
	return n
}

// checkShared holds MakeShared to Make: given any part of the suffix
// base and target share as a run, it returns Make's patch byte for byte.
func checkShared(t *testing.T, base, target []byte) {
	t.Helper()
	want := delta.Make(base, target)
	c := commonTail(base, target)
	for _, tail := range []int{0, c / 2, c - 1, c} {
		if tail <= 0 {
			continue
		}
		runs := []delta.CopyRun{{At: len(target) - tail, Off: len(base) - tail, Len: tail}}
		if got, _ := delta.MakeShared(base, target, runs); !bytes.Equal(got, want) {
			t.Fatalf("MakeShared with a %d-byte tail of %d shared = %x, Make = %x", tail, c, got, want)
		}
	}
}

// checkSharedRuns holds MakeShared given runs to its contract: its patch
// rebuilds target, and it is Make's byte for byte whenever no 16-byte
// string occurs twice in target and Make's index of base keeps every
// window. It reports whether the two were held equal, and returns the
// bytes MakeShared read.
func checkSharedRuns(t testing.TB, base, target []byte, runs []delta.CopyRun) (bool, int) {
	t.Helper()
	got, read := delta.MakeShared(base, target, runs)
	if out, err := delta.Apply(base, got); err != nil || !bytes.Equal(out, target) {
		t.Fatalf("MakeShared given runs %v: the patch does not rebuild the target (%v)", runs, err)
	}
	if repeatsWindow(target) || !delta.MakeIndexKeepsAll(base, target) {
		return false, read
	}
	if want := delta.Make(base, target); !bytes.Equal(got, want) {
		t.Fatalf("MakeShared given runs %v = %x, Make = %x", runs, got, want)
	}
	return true, read
}

// repeatsWindow reports whether some 16-byte string occurs twice in b.
func repeatsWindow(b []byte) bool {
	seen := make(map[string]bool, len(b))
	for i := 0; i+16 <= len(b); i++ {
		if seen[string(b[i:i+16])] {
			return true
		}
		seen[string(b[i:i+16])] = true
	}
	return false
}

// orSetEncoding is a space-efficient OR-set's encoding: a 4-byte count,
// then sorted 16-byte (element, timestamp) pairs with both below 2⁴⁰, so
// neighbours share their leading zero bytes.
func orSetEncoding(es, ts []uint64) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(es)))
	for i := range es {
		b = binary.BigEndian.AppendUint64(b, es[i])
		b = binary.BigEndian.AppendUint64(b, ts[i])
	}
	return b
}

// orSetEdit returns an OR-set encoding of n pairs, the encoding after one
// edit at pair k — an add (how 0), a refresh (1) or a remove (2) — and
// the runs the codec copies from the first into the second: the pairs
// around the edit, and the count with them when it stays.
func orSetEdit(rng *rand.Rand, n, k int, how int) (base, target []byte, runs []delta.CopyRun) {
	es := make([]uint64, n+1)
	ts := make([]uint64, n+1)
	for i := range es {
		es[i] = uint64(rng.Int63n(1 << 40))
		ts[i] = uint64(rng.Int63n(1 << 40))
	}
	slices.Sort(es)
	es = slices.Compact(es)
	n = min(n, len(es)-1)
	k = min(k, n)
	if how != 0 && k == n {
		k = n - 1
	}
	if n == 0 || k < 0 {
		how, k = 0, 0
	}
	// base holds every element but es[k] when the edit adds it.
	bes, bts := slices.Clone(es[:n+1]), slices.Clone(ts[:n+1])
	switch how {
	case 0:
		bes, bts = slices.Delete(bes, k, k+1), slices.Delete(bts, k, k+1)
		base, target = orSetEncoding(bes, bts), orSetEncoding(es[:n+1], ts[:n+1])
		runs = []delta.CopyRun{{At: 4, Off: 4, Len: 16 * k}, {At: 20 + 16*k, Off: 4 + 16*k, Len: 16 * (n - k)}}
	case 1:
		bes, bts = bes[:n], bts[:n]
		tts := slices.Clone(bts)
		tts[k] = uint64(rng.Int63n(1 << 40))
		base, target = orSetEncoding(bes, bts), orSetEncoding(bes, tts)
		runs = []delta.CopyRun{{At: 0, Off: 0, Len: 4 + 16*k}, {At: 20 + 16*k, Off: 20 + 16*k, Len: 16 * (n - 1 - k)}}
	default:
		bes, bts = bes[:n], bts[:n]
		base = orSetEncoding(bes, bts)
		target = orSetEncoding(slices.Delete(slices.Clone(bes), k, k+1), slices.Delete(slices.Clone(bts), k, k+1))
		runs = []delta.CopyRun{{At: 4, Off: 4, Len: 16 * k}, {At: 4 + 16*k, Off: 20 + 16*k, Len: 16 * (n - 1 - k)}}
	}
	return base, target, slices.DeleteFunc(runs, func(r delta.CopyRun) bool { return r.Len == 0 })
}

// splice builds a target from pieces of base and random literals, and
// returns it with the runs it copied: up to runs copies of stretches of
// base, each behind up to maxLit literal bytes. The stretches are
// disjoint but taken in any order, so that a target spliced from a
// random base repeats no 16-byte string; with overlap they are taken
// anywhere in base, and may repeat one another. A run is reported
// shorter than it was copied when shrink is set, as an encoder that
// copies more than it names may.
func splice(rng *rand.Rand, base []byte, runs, maxLit int, overlap, shrink bool) ([]byte, []delta.CopyRun) {
	cuts := []int{0, len(base)}
	for range 2 * runs {
		cuts = append(cuts, rng.Intn(len(base)+1))
	}
	slices.Sort(cuts)
	var pieces [][2]int
	for i := 0; i+1 < len(cuts); i += 2 {
		if cuts[i] < cuts[i+1] {
			pieces = append(pieces, [2]int{cuts[i], cuts[i+1]})
		}
	}
	rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
	var target []byte
	var out []delta.CopyRun
	for _, p := range pieces[:min(runs, len(pieces))] {
		lit := make([]byte, rng.Intn(maxLit+1))
		rng.Read(lit)
		target = append(target, lit...)
		off, l := p[0], p[1]-p[0]
		if overlap {
			off = rng.Intn(len(base))
			l = 1 + rng.Intn(len(base)-off)
		}
		r := delta.CopyRun{At: len(target), Off: off, Len: l}
		target = append(target, base[off:off+l]...)
		if shrink && l > 2 {
			cut := rng.Intn(l / 2)
			r.At, r.Off, r.Len = r.At+cut, r.Off+cut, r.Len-cut-rng.Intn(l/2)
		}
		out = append(out, r)
	}
	lit := make([]byte, rng.Intn(maxLit+1))
	rng.Read(lit)
	return append(target, lit...), out
}

// TestMakeSharedEqualsMake: MakeShared returns Make's patch for the
// boundary cases, random edits and prepends to a long log-like encoding,
// and reads only the edit when told the shared tail: a record prepended
// to a 64 KB encoding behind a changed count reads a few dozen bytes,
// where Make compares the whole shared run. Given the runs an OR-set
// codec copies around an added, refreshed or removed pair — at the
// first, a middle and the last position, and in between — or the runs
// of random multi-run splices of random bytes, its patch is Make's too,
// and an OR-set edit reads at most 128 B of a 16 KB or 160 KB encoding.
func TestMakeSharedEqualsMake(t *testing.T) {
	for _, c := range trimBoundaryCases() {
		checkShared(t, c.base, c.target)
	}
	rng := rand.New(rand.NewSource(9))
	for range 300 {
		base := make([]byte, rng.Intn(2048))
		for i := range base {
			base[i] = byte('a' + rng.Intn(3))
		}
		head := make([]byte, rng.Intn(80))
		rng.Read(head)
		checkShared(t, base, append(head, base[rng.Intn(len(base)+1):]...))
	}
	body := make([]byte, 64<<10)
	rng.Read(body)
	for k := range 256 {
		base := binary.BigEndian.AppendUint32(nil, uint32(1000+k))
		base = append(base, body...)
		target := binary.BigEndian.AppendUint32(nil, uint32(1001+k))
		target = append(target, []byte("a new record of some 30 bytes.")...)
		target = append(target, body...)
		checkShared(t, base, target)
		_, all := delta.MakeShared(base, target, nil)
		_, edit := delta.MakeShared(base, target, []delta.CopyRun{{At: len(target) - len(body), Off: len(base) - len(body), Len: len(body)}})
		if edit > 64 || all < len(body) {
			t.Fatalf("a prepend reads %d bytes given the shared tail, %d without; want at most 64 and at least %d", edit, all, len(body))
		}
	}

	held, cases := 0, 0
	for _, n := range []int{0, 1, 2, 3, 40, 1000, 10000} {
		for how := range 3 {
			for _, k := range []int{0, n / 2, n, rng.Intn(n + 1), rng.Intn(n + 1)} {
				base, target, runs := orSetEdit(rng, n, k, how)
				equal, read := checkSharedRuns(t, base, target, runs)
				cases++
				if equal {
					held++
				}
				if n >= 1000 && read > 128 {
					t.Fatalf("an OR-set edit (%d) at pair %d of %d reads %d bytes given its runs, want at most 128", how, k, n, read)
				}
			}
		}
	}
	for i := range 2000 {
		base := make([]byte, rng.Intn(3000))
		rng.Read(base)
		target, runs := splice(rng, base, rng.Intn(6), []int{0, 4, 40, 200}[i%4], i%5 == 4, i%3 == 0)
		cases++
		if equal, _ := checkSharedRuns(t, base, target, runs); equal {
			held++
		}
	}
	t.Logf("MakeShared given runs held equal to Make in %d of %d cases", held, cases)
	if held < cases*3/4 {
		t.Errorf("only %d of %d cases met the condition for equality; the test no longer tests it", held, cases)
	}
}

// FuzzMakeSharedEqualsMake: for a target spliced from pieces of base and
// literals, MakeShared given the spliced runs rebuilds the target, and
// it is Make's patch whenever no 16-byte string occurs twice in the
// target and Make's index keeps every window.
func FuzzMakeSharedEqualsMake(f *testing.F) {
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"), []byte("literal bytes!"), []byte{4, 0, 20, 3, 30, 40, 2})
	f.Add(orSetEncoding([]uint64{5, 900, 1 << 39}, []uint64{7, 8, 1 << 30}), []byte{0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 1, 0}, []byte{3, 4, 32, 0, 0, 36, 16, 1})
	f.Add(bytes.Repeat([]byte("ab"), 40), []byte("xy"), []byte{1, 0, 50, 1, 1, 2, 60, 5})
	f.Fuzz(func(t *testing.T, base, lits, plan []byte) {
		// plan is read in triples: literal bytes to insert, then the base
		// offset and length of a copy; a fourth byte past the last triple
		// trims the runs reported.
		var target []byte
		var runs []delta.CopyRun
		for len(plan) >= 3 && len(base) > 0 {
			l := min(int(plan[0]), len(lits))
			target = append(target, lits[:l]...)
			lits = lits[l:]
			off := int(plan[1]) * len(base) / 256
			n := min(1+int(plan[2]), len(base)-off)
			runs = append(runs, delta.CopyRun{At: len(target), Off: off, Len: n})
			target = append(target, base[off:off+n]...)
			plan = plan[3:]
		}
		target = append(target, lits...)
		if len(plan) > 0 && len(runs) > 0 {
			r := &runs[int(plan[0])%len(runs)]
			if cut := int(plan[0]) % 4; cut < r.Len {
				r.At, r.Off, r.Len = r.At+cut, r.Off+cut, r.Len-cut
			}
		}
		checkSharedRuns(t, base, target, runs)
	})
}
