package wire_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/delta"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/wire"
)

// checkCodec is a codec with the Check form the store's import validates
// incoming states through.
type checkCodec[S any] interface {
	wire.Codec[S]
	Check(b []byte) error
}

// checkRoundTrip holds Check's verdict on b to the round trip's: nil
// exactly when Decode(b) succeeds and Encode of the result is b. It
// reports that verdict.
func checkRoundTrip[S any](tb testing.TB, name string, c checkCodec[S], b []byte) bool {
	tb.Helper()
	s, err := c.Decode(b)
	canonical := err == nil && bytes.Equal(c.Encode(s), b)
	if cerr := c.Check(b); (cerr == nil) != canonical {
		tb.Fatalf("%s: Check(%x) = %v, but the round trip's verdict is %v (decode error %v)", name, b, cerr, canonical, err)
	}
	return canonical
}

// mutations returns corrupted copies of enc, a collection encoding that
// opens with its count: bit flips, every truncation, extensions by a few
// bytes and by one more copy of its last 16 bytes, and forged counts.
func mutations(r *rand.Rand, enc []byte) [][]byte {
	var out [][]byte
	for range 16 {
		if len(enc) == 0 {
			break
		}
		b := slices.Clone(enc)
		bit := r.Intn(8 * len(b))
		b[bit/8] ^= 1 << (bit % 8)
		out = append(out, b)
	}
	for n := range len(enc) {
		out = append(out, enc[:n])
	}
	for n := 1; n <= 17; n += 4 {
		extra := make([]byte, n)
		r.Read(extra)
		out = append(out, append(slices.Clone(enc), extra...))
	}
	if len(enc) >= 16 {
		out = append(out, append(slices.Clone(enc), enc[len(enc)-16:]...))
	}
	if len(enc) >= 4 {
		count := binary.BigEndian.Uint32(enc)
		for _, forged := range []uint32{0, count - 1, count + 1, 2 * count, 1<<32 - 1} {
			b := slices.Clone(enc)
			binary.BigEndian.PutUint32(b, forged)
			out = append(out, b)
		}
	}
	return out
}

// testCheck runs checkRoundTrip over 200 random states of c (gen),
// including empty ones, and every mutation of their encodings. disorder,
// when non-nil, returns states breaking the datatype's order — two
// elements swapped, or one repeated — whose encodings Check must reject.
func testCheck[S any](t *testing.T, name string, c checkCodec[S], gen func(r *rand.Rand, n int) S, disorder func(r *rand.Rand, s S) []S) {
	r := rand.New(rand.NewSource(7))
	var accepted, rejected int
	for i := range 200 {
		s := gen(r, i%25)
		enc := c.Encode(s)
		if !checkRoundTrip(t, name, c, enc) {
			t.Fatalf("%s: a valid state's encoding %x fails the round trip", name, enc)
		}
		accepted++
		for _, b := range mutations(r, enc) {
			if checkRoundTrip(t, name, c, b) {
				accepted++
			} else {
				rejected++
			}
		}
		if disorder == nil {
			continue
		}
		for _, bad := range disorder(r, s) {
			b := c.Encode(bad)
			if err := c.Check(b); err == nil {
				t.Fatalf("%s: Check accepts the out-of-order %+v", name, bad)
			}
			checkRoundTrip(t, name, c, b)
			rejected++
		}
	}
	t.Logf("%s: %d inputs accepted, %d rejected", name, accepted, rejected)
}

// randSet returns a space-efficient OR-set of n pairs in strictly
// ascending element order.
func randSet(r *rand.Rand, n int) orset.SpaceState {
	s := make(orset.SpaceState, n)
	e := r.Int63n(1<<20) - 1<<19
	for i := range s {
		e += 1 + r.Int63n(100)
		s[i] = orset.Pair{E: e, T: core.Timestamp(r.Int63n(1 << 40))}
	}
	return s
}

// logOf returns a log of n entries in strictly descending timestamp
// order.
func logOf(r *rand.Rand, n int) mlog.State {
	s := make(mlog.State, n)
	t := core.Timestamp(r.Int63n(1 << 40))
	for i := range s {
		t -= core.Timestamp(1 + r.Intn(1000))
		s[i] = mlog.Entry{T: t, Msg: randString(r)}
	}
	return s
}

// disorderOf returns copies of s with two elements swapped and with one
// element's key repeated by its successor; nil when s has under two.
func disorderOf[S ~[]E, E any](r *rand.Rand, s S, setKey func(dst *E, src E)) []S {
	if len(s) < 2 {
		return nil
	}
	i := r.Intn(len(s) - 1)
	j := i + 1 + r.Intn(len(s)-i-1)
	swapped := slices.Clone(s)
	swapped[i], swapped[j] = swapped[j], swapped[i]
	repeated := slices.Clone(s)
	setKey(&repeated[i+1], repeated[i])
	return []S{swapped, repeated}
}

// TestCheckMatchesRoundTrip: for every codec with Check, Check accepts
// exactly the inputs that decode and re-encode to themselves — random
// states, empty ones, and their encodings corrupted by bit flips,
// truncation, extension and forged counts — and rejects every state out
// of its datatype's order.
func TestCheckMatchesRoundTrip(t *testing.T) {
	testCheck(t, "pn-counter", wire.PNCounter{}, func(r *rand.Rand, n int) counter.PNState {
		if n == 0 {
			return counter.PNState{}
		}
		return counter.PNState{P: r.Int63(), N: r.Int63()}
	}, nil)
	testCheck(t, "mlog", wire.MLog{}, logOf, func(r *rand.Rand, s mlog.State) []mlog.State {
		return disorderOf(r, s, func(dst *mlog.Entry, src mlog.Entry) { dst.T = src.T })
	})
	testCheck(t, "or-set-space", wire.OrSetSpace{}, randSet, func(r *rand.Rand, s orset.SpaceState) []orset.SpaceState {
		return disorderOf(r, s, func(dst *orset.Pair, src orset.Pair) { dst.E = src.E })
	})
	testCheck(t, "or-set-space-time", wire.OrSetSpaceTime{}, randTree, func(r *rand.Rand, s orset.TreeState) []orset.TreeState {
		var out []orset.TreeState
		for _, bad := range disorderOf(r, orset.Flatten(s), func(dst *orset.Pair, src orset.Pair) { dst.E = src.E }) {
			out = append(out, orset.BuildBalanced(bad))
		}
		return out
	})
}

// FuzzCheckMatchesRoundTrip holds every Check to the round trip on
// arbitrary bytes.
func FuzzCheckMatchesRoundTrip(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	set, log := randSet(r, 4), logOf(r, 3)
	f.Add([]byte{})
	f.Add(wire.OrSetSpace{}.Encode(nil))
	f.Add(wire.OrSetSpace{}.Encode(set))
	f.Add(wire.OrSetSpace{}.Encode(orset.SpaceState{set[1], set[0]}))
	f.Add(wire.MLog{}.Encode(log))
	f.Add(wire.MLog{}.Encode(mlog.State{log[1], log[0]}))
	f.Add(wire.PNCounter{}.Encode(counter.PNState{P: 3, N: 1}))
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<32-1))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRoundTrip(t, "pn-counter", wire.PNCounter{}, b)
		checkRoundTrip(t, "mlog", wire.MLog{}, b)
		checkRoundTrip(t, "or-set-space", wire.OrSetSpace{}, b)
		checkRoundTrip(t, "or-set-space-time", wire.OrSetSpaceTime{}, b)
	})
}

// editCodec is a codec with the edit form of Check (store.Codec).
type editCodec interface {
	Check(b []byte) error
	CheckEdit(enc, base []byte, runs []delta.CopyRun) error
}

// patchBuilder writes a patch (internal/delta's format) opcode by opcode,
// keeping the target it rebuilds.
type patchBuilder struct {
	base, target, ops []byte
}

func (p *patchBuilder) insert(lit []byte) {
	if len(lit) == 0 {
		return
	}
	p.ops = append(p.ops, 0)
	p.ops = binary.AppendUvarint(p.ops, uint64(len(lit)))
	p.ops = append(p.ops, lit...)
	p.target = append(p.target, lit...)
}

func (p *patchBuilder) copy(off, n int) {
	if n <= 0 {
		return
	}
	p.ops = append(p.ops, 1)
	p.ops = binary.AppendUvarint(p.ops, uint64(off))
	p.ops = binary.AppendUvarint(p.ops, uint64(n))
	p.target = append(p.target, p.base[off:off+n]...)
}

func (p *patchBuilder) patch() []byte {
	out := binary.AppendUvarint(nil, uint64(len(p.base)))
	out = binary.AppendUvarint(out, uint64(len(p.target)))
	return append(out, p.ops...)
}

// lastElem is the element of the last whole pair in b past its count, 0
// when it has none.
func lastElem(b []byte) int64 {
	if len(b) < 20 {
		return 0
	}
	k := (len(b) - 4) / 16
	return int64(binary.BigEndian.Uint64(b[4+16*(k-1):]))
}

// editOf builds, by plan, a patch from base, a canonical pair encoding,
// and returns the encoding it rebuilds. plan's first byte picks the
// count: written correct, copied from base, or written one too high or
// too low. Then each triple (op, a, b) appends one piece: a pair-aligned
// copy of 1–8 of base's pairs from rank a; an unaligned copy of 1+b
// bytes from offset a·len(base)/256; a literal pair whose element is the
// last pair's plus int8(a), so it may land out of order; or an aligned
// copy shrunk by a%16 bytes at its start (b even) or end (b odd), which
// go out as literal bytes.
func editOf(base, plan []byte) (enc, patch []byte) {
	p := &patchBuilder{base: base}
	m := (len(base) - 4) / 16
	head := byte(0)
	if len(plan) > 0 {
		head, plan = plan[0]%4, plan[1:]
	}
	if head == 1 {
		p.copy(0, 4)
	} else {
		p.insert(make([]byte, 4)) // written below
	}
	for ; len(plan) >= 3; plan = plan[3:] {
		op, a, b := plan[0]%4, int(plan[1]), int(plan[2])
		switch {
		case op == 1:
			off := a * len(base) / 256
			p.copy(off, min(1+b, len(base)-off))
		case op == 2:
			var pair [16]byte
			binary.BigEndian.PutUint64(pair[:], uint64(lastElem(p.target)+int64(int8(a))))
			binary.BigEndian.PutUint64(pair[8:], uint64(b))
			p.insert(pair[:])
		case m > 0:
			j := a % m
			off, n := 4+16*j, 16*min(1+b%8, m-j)
			cut := 0
			if op == 3 {
				cut = min(a%16, n)
			}
			switch {
			case cut > 0 && b%2 == 0:
				p.insert(base[off : off+cut])
				p.copy(off+cut, n-cut)
			case cut > 0:
				p.copy(off, n-cut)
				p.insert(base[off+n-cut : off+n])
			default:
				p.copy(off, n)
			}
		}
	}
	if head != 1 {
		count := uint32((len(p.target) - 4) / 16)
		switch head {
		case 2:
			count++
		case 3:
			count--
		}
		binary.BigEndian.PutUint32(p.target, count)
		binary.BigEndian.PutUint32(p.ops[2:], count) // the literal's bytes
	}
	return p.target, p.patch()
}

// logEditOf builds, by plan, a patch from base, a canonical log
// encoding, in an append's shape — a count, new entries, then base's
// entries — and returns the encoding it rebuilds. plan's first byte picks
// the count: written correct, copied from base, or written one too high
// or too low. Its second picks where the copy of base's entries starts:
// at them, past the first of them, or nowhere — they go out as literal
// bytes — or one byte early, in place of the new entries' last byte, as
// a diff extends a copy when that byte is base's count's last. Each pair
// (a, b) after those is one new entry, in order, with a message of b%8
// bytes b and the timestamp of the entry after it, or base's newest for
// the last, plus int8(a): out of order when int8(a) ≤ 0.
func logEditOf(base, plan []byte) (enc, patch []byte) {
	var head, from byte
	if len(plan) >= 2 {
		head, from, plan = plan[0]%4, plan[1]%4, plan[2:]
	}
	m := int(binary.BigEndian.Uint32(base))
	var t core.Timestamp // the timestamp of the entry after the next one written
	second := 4          // where base's second entry starts
	if m > 0 {
		t = core.Timestamp(binary.BigEndian.Uint64(base[4:]))
		second = 16 + int(binary.BigEndian.Uint32(base[12:]))
	}
	entries := make([][]byte, len(plan)/2)
	for i := len(entries) - 1; i >= 0; i-- {
		a, b := plan[2*i], plan[2*i+1]
		t += core.Timestamp(int8(a))
		e := binary.BigEndian.AppendUint64(nil, uint64(t))
		e = binary.BigEndian.AppendUint32(e, uint32(b%8))
		entries[i] = append(e, bytes.Repeat([]byte{b}, int(b%8))...)
	}
	p := &patchBuilder{base: base}
	count := uint32(m + len(entries))
	switch head {
	case 1:
		p.copy(0, 4)
	case 2:
		count++
	case 3:
		count--
	}
	if head != 1 {
		p.insert(binary.BigEndian.AppendUint32(nil, count))
	}
	lit := bytes.Join(entries, nil)
	switch {
	case from == 1:
		p.insert(lit)
		p.copy(second, len(base)-second)
	case from == 2 && len(lit) > 0:
		p.insert(lit[:len(lit)-1])
		p.copy(3, len(base)-3)
	case from == 3:
		p.insert(lit)
		p.insert(base[4:])
	default:
		p.insert(lit)
		p.copy(4, len(base)-4)
	}
	return p.target, p.patch()
}

// checkEditMatches holds c's CheckEdit of enc, which patch rebuilds from
// base, a canonical encoding, given the patch's copy runs, to c's Check.
func checkEditMatches(t *testing.T, name string, c editCodec, base, enc, patch []byte) {
	t.Helper()
	if got, err := delta.Apply(base, patch); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("%s: the patch does not rebuild the edit: %v", name, err)
	}
	runs, _, err := delta.CopyRuns(nil, patch)
	if err != nil {
		t.Fatal(err)
	}
	want, got := c.Check(enc), c.CheckEdit(enc, base, runs)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: CheckEdit(%x, runs %v) = %v, Check = %v", name, enc, runs, got, want)
	}
}

// FuzzCheckEditMatchesCheck: for a canonical OR-set encoding base (a
// random set of n pairs, by seed) and an encoding a patch builds from it
// (editOf's plan: aligned, unaligned and shrunk copies and literal
// pairs, behind a count written, copied or forged), each OR-set codec's
// CheckEdit, given the patch's copy runs, accepts exactly what its Check
// accepts; and so does the log's, for a canonical log encoding (a random
// log of n entries) and an append a patch builds from it (logEditOf: new
// entries in or out of order, behind a count written, copied or forged,
// in front of a copy of base's entries from where they start, from past
// the first, from the count's last byte, or of none). The committed
// corpus (testdata/fuzz) names each case: for the sets, a pair out of
// order at either edge of a copied run or inside an unaligned one,
// forged counts, shrunk runs, and edits that stay in order; for the log
// (log-*), one and several entries appended, a new entry whose timestamp
// equals or falls below the base's newest, counts one high and one low,
// a copy that does not start at base's entries, and an empty base.
func FuzzCheckEditMatchesCheck(f *testing.F) {
	f.Add(int64(1), uint8(6), []byte{0, 0, 0, 1, 2, 5, 3, 0, 4, 2})
	f.Fuzz(func(t *testing.T, seed int64, n uint8, plan []byte) {
		if len(plan) > 64 {
			plan = plan[:64]
		}
		base := wire.OrSetSpace{}.Encode(randSet(rand.New(rand.NewSource(seed)), int(n%40)))
		enc, patch := editOf(base, plan)
		checkEditMatches(t, "or-set-space", wire.OrSetSpace{}, base, enc, patch)
		checkEditMatches(t, "or-set-space-time", wire.OrSetSpaceTime{}, base, enc, patch)
		base = wire.MLog{}.Encode(logOf(rand.New(rand.NewSource(seed)), int(n%40)))
		enc, patch = logEditOf(base, plan)
		checkEditMatches(t, "mlog", wire.MLog{}, base, enc, patch)
	})
}
