package wire_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
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
	})
}
