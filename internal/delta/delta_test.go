package delta_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
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
// base and target share, it returns Make's patch byte for byte.
func checkShared(t *testing.T, base, target []byte) {
	t.Helper()
	want := delta.Make(base, target)
	c := commonTail(base, target)
	for _, tail := range []int{0, c / 2, c - 1, c} {
		if tail < 0 {
			continue
		}
		if got, _ := delta.MakeShared(base, target, tail); !bytes.Equal(got, want) {
			t.Fatalf("MakeShared with a %d-byte tail of %d shared = %x, Make = %x", tail, c, got, want)
		}
	}
}

// TestMakeSharedEqualsMake: MakeShared returns Make's patch for the
// boundary cases, random edits and prepends to a long log-like encoding,
// and reads only the edit when told the shared tail: a record prepended
// to a 64 KB encoding behind a changed count reads a few dozen bytes,
// where Make compares the whole shared run.
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
		_, all := delta.MakeShared(base, target, 0)
		_, edit := delta.MakeShared(base, target, len(body))
		if edit > 64 || all < len(body) {
			t.Fatalf("a prepend reads %d bytes given the shared tail, %d without; want at most 64 and at least %d", edit, all, len(body))
		}
	}
}
