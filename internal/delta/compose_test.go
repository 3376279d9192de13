package delta_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/delta"
	"repro/internal/wire"
)

// applyChain applies patches in order, the sequence Compose must equal.
func applyChain(base []byte, patches [][]byte) ([]byte, error) {
	out := base
	for _, p := range patches {
		var err error
		if out, err = delta.Apply(out, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// randomEdit returns a copy of b with a few random deletions, insertions
// and byte flips, the edit shapes TestRandomizedRoundTrip uses.
func randomEdit(rng *rand.Rand, b []byte) []byte {
	out := slices.Clone(b)
	for edits := 1 + rng.Intn(4); edits > 0; edits-- {
		if len(out) == 0 {
			out = append(out, 'x')
			continue
		}
		at := rng.Intn(len(out))
		switch rng.Intn(3) {
		case 0:
			out = slices.Delete(out, at, min(at+rng.Intn(64), len(out)))
		case 1:
			ins := make([]byte, rng.Intn(64))
			rng.Read(ins)
			out = slices.Insert(out, at, ins...)
		case 2:
			out[at] ^= byte(1 + rng.Intn(255))
		}
	}
	return out
}

// TestComposeMatchesChain is the property test: for chains of Make
// patches over random edits, applying the composition to the base equals
// applying the chain in sequence — for the whole chain, for every
// sub-chain, and for a composition that itself sits at the bottom of the
// next chain, the way the store re-composes onto one snapshot.
func TestComposeMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		states := [][]byte{make([]byte, rng.Intn(4096))}
		for i := range states[0] {
			states[0][i] = byte('a' + rng.Intn(4))
		}
		var patches [][]byte
		for n := 1 + rng.Intn(40); n > 0; n-- {
			next := randomEdit(rng, states[len(states)-1])
			patches = append(patches, delta.Make(states[len(states)-1], next))
			states = append(states, next)
		}
		for lo := 0; lo < len(patches); lo += 1 + rng.Intn(8) {
			hi := lo + 1 + rng.Intn(len(patches)-lo)
			composed, err := delta.Compose(patches[lo:hi]...)
			if err != nil {
				t.Fatalf("trial %d: Compose(patches[%d:%d]): %v", trial, lo, hi, err)
			}
			if cap(composed) != len(composed) {
				t.Fatalf("trial %d: composed patch has cap %d for len %d", trial, cap(composed), len(composed))
			}
			got, err := delta.Apply(states[lo], composed)
			if err != nil {
				t.Fatalf("trial %d: Apply(Compose(patches[%d:%d])): %v", trial, lo, hi, err)
			}
			if !bytes.Equal(got, states[hi]) {
				t.Fatalf("trial %d: composition of patches[%d:%d] builds %d bytes, the chain %d", trial, lo, hi, len(got), len(states[hi]))
			}
		}
		// Re-composition: the composed prefix at the bottom of the rest.
		mid := len(patches) / 2
		prefix, err := delta.Compose(patches[:mid+1]...)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := delta.Compose(append([][]byte{prefix}, patches[mid+1:]...)...)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := delta.Apply(states[0], whole); err != nil || !bytes.Equal(got, states[len(states)-1]) {
			t.Fatalf("trial %d: re-composed chain does not rebuild the last state (err %v)", trial, err)
		}
	}
}

// TestComposeOfScatteredAddsStaysSmall: or-set adds land all over the
// encoding, so a fresh diff from an old snapshot is expensive, but the
// composition of 31 add patches costs about what the patches cost — the
// property the store's chain-full rule rests on.
func TestComposeOfScatteredAddsStaysSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := sortedPairs(rng, 2800)
	prev := wire.OrSetSpace{}.Encode(ps)
	var patches [][]byte
	sum := 0
	for i := 0; i < 31; i++ {
		ps = insertSorted(rng, ps, 1)
		next := wire.OrSetSpace{}.Encode(ps)
		p := delta.Make(prev, next)
		patches = append(patches, p)
		sum += len(p)
		prev = next
	}
	composed, err := delta.Compose(patches...)
	if err != nil {
		t.Fatal(err)
	}
	if len(composed) > sum {
		t.Fatalf("composition of 31 adds is %d bytes, the patches %d", len(composed), sum)
	}
	if 4*len(composed) >= len(prev) {
		t.Fatalf("composition of 31 adds is %d bytes of a %d-byte state", len(composed), len(prev))
	}
	t.Logf("31 adds to a %d-byte or-set: patches %d B, composed %d B", len(prev), sum, len(composed))
}

// TestComposeRejectsBrokenChains: a chain whose links do not line up, a
// corrupt patch anywhere in it, or an empty chain is refused.
func TestComposeRejectsBrokenChains(t *testing.T) {
	a := []byte("the first state, sixteen plus bytes long")
	b := []byte("the second state, sixteen plus bytes long and more")
	c := []byte("a third state that shares little")
	ab, bc := delta.Make(a, b), delta.Make(b, c)
	if _, err := delta.Compose(); !errors.Is(err, delta.ErrCorrupt) {
		t.Fatalf("empty chain: %v", err)
	}
	if _, err := delta.Compose(bc, ab); !errors.Is(err, delta.ErrCorrupt) {
		t.Fatalf("out-of-order chain: %v", err)
	}
	for i := range ab {
		if _, err := delta.Compose(ab[:i], bc); !errors.Is(err, delta.ErrCorrupt) {
			t.Fatalf("bottom patch truncated to %d bytes: %v", i, err)
		}
	}
	for i := range bc {
		if _, err := delta.Compose(ab, bc[:i]); !errors.Is(err, delta.ErrCorrupt) {
			t.Fatalf("top patch truncated to %d bytes: %v", i, err)
		}
	}
	huge := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(len(c))), delta.MaxTarget+1)
	if _, err := delta.Compose(bc, huge); !errors.Is(err, delta.ErrCorrupt) {
		t.Fatalf("target beyond MaxTarget: %v", err)
	}
}

// FuzzCompose: arbitrary patches compose to an error, never a panic, and
// whenever the chain applies to a base of its announced length, the
// composition succeeds and builds the same bytes; whenever it does not,
// the composition fails.
func FuzzCompose(f *testing.F) {
	a := []byte("seed base content, sixteen plus bytes")
	b := []byte("seed base content, sixteen plus bytes edited")
	c := []byte("edited: seed base content, sixteen plus")
	f.Add(delta.Make(a, b), delta.Make(b, c), delta.Identity(len(c)))
	f.Add([]byte{0, 0}, []byte{0, 0}, []byte{0, 0})
	f.Add([]byte{3, 2, 1, 1, 2}, []byte{2, 4, 1, 0, 2, 1, 0, 2}, []byte{4, 1, 0, 1, 'z'})
	f.Add(delta.Make(a, b), []byte{37, 1, 1, 0, 5}, []byte{})
	f.Fuzz(func(t *testing.T, p1, p2, p3 []byte) {
		for _, chain := range [][][]byte{{p1}, {p1, p2}, {p1, p2, p3}} {
			composed, err := delta.Compose(chain...)
			baseLen, n := binary.Uvarint(p1)
			if n <= 0 || baseLen > 1<<12 {
				continue
			}
			base := make([]byte, baseLen)
			for i := range base {
				base[i] = byte(i*7 + 1)
			}
			want, chainErr := applyChain(base, chain)
			if (err == nil) != (chainErr == nil) {
				t.Fatalf("%d-patch chain: Compose error %v, sequential Apply error %v", len(chain), err, chainErr)
			}
			if err != nil {
				continue
			}
			got, err := delta.Apply(base, composed)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%d-patch chain: composition builds %q (err %v), the chain %q", len(chain), got, err, want)
			}
		}
	})
}
