package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/delta"
)

// checkNext builds target's tree from base's and patch, and fails unless
// it is the tree built from scratch, level for level.
func checkNext(t testing.TB, base, target, patch []byte) {
	t.Helper()
	var hs hasher
	bt := hs.tree(base, nil)
	runs, baseLen, err := delta.CopyRuns(nil, patch)
	if err != nil || baseLen != len(base) {
		t.Fatalf("CopyRuns: base %d of %d: %v", baseLen, len(base), err)
	}
	hs = hasher{}
	got := bt.next(&hs, target, runs, nil)
	want := (&hasher{}).tree(target, nil)
	if !sameTree(got, want) {
		t.Fatalf("incremental tree (%d chunks, root %v) differs from the cold one (%d chunks, root %v) for a %d-byte target",
			len(got.ends), got.root, len(want.ends), want.root, len(target))
	}
	// Built in a recycled tree's storage, here another encoding's, either
	// way, the tree is the same.
	hs = hasher{}
	if again := bt.next(&hs, target, runs, (&hasher{}).tree(patch, nil)); !sameTree(again, want) {
		t.Fatalf("incremental tree built in a recycled one differs from the cold one for a %d-byte target", len(target))
	}
	if again := (&hasher{}).tree(target, (&hasher{}).tree(base, nil)); !sameTree(again, want) {
		t.Fatalf("cold tree built in a recycled one differs from a new one for a %d-byte target", len(target))
	}
	if want.root != StateAddr(target) {
		t.Fatal("StateAddr differs from the cold tree's root")
	}
}

// sameTree reports whether a and b have the same levels.
func sameTree(a, b *chunkTree) bool {
	return a.root == b.root && slices.Equal(a.ends, b.ends) && slices.Equal(a.chunks, b.chunks) &&
		slices.Equal(a.groups, b.groups) && slices.Equal(a.sums, b.sums)
}

// logOf encodes n log entries (count, then timestamp, length and message
// per entry, newest first), as the mergeable log's codec does.
func logOf(rng *rand.Rand, n int) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(n))
	for i := n; i > 0; i-- {
		b = appendEntry(b, rng, uint64(i))
	}
	return b
}

func appendEntry(b []byte, rng *rand.Rand, ts uint64) []byte {
	msg := fmt.Sprintf("entry %d %x", ts, rng.Uint32())
	b = binary.BigEndian.AppendUint64(b, ts)
	b = binary.BigEndian.AppendUint32(b, uint32(len(msg)))
	return append(b, msg...)
}

// setOf encodes sorted 16-byte pairs behind their count, as the or-set
// codecs do.
func setOf(pairs [][16]byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(pairs)))
	for _, p := range pairs {
		b = append(b, p[:]...)
	}
	return b
}

func randomPairs(rng *rand.Rand, n int) [][16]byte {
	ps := make([][16]byte, n)
	for i := range ps {
		binary.BigEndian.PutUint64(ps[i][:], uint64(i)*1000+uint64(rng.Intn(1000)))
		binary.BigEndian.PutUint64(ps[i][8:], rng.Uint64())
	}
	return ps
}

// TestStateAddrIncrementalMatchesCold: over codec-shaped edits, the tree
// built from a base's tree and the patch is the tree built from scratch.
// The edits are log prepends, or-set inserts and removes that change the
// count header, scattered in-place pair writes, chains of edits composed
// into one patch, and empty, sub-minimum and above-maximum states.
func TestStateAddrIncrementalMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	t.Run("log prepends", func(t *testing.T) {
		for _, n := range []int{0, 1, 20, 400, 3000} {
			base := logOf(rng, n)
			for k := 1; k <= 3; k++ {
				target := binary.BigEndian.AppendUint32(nil, uint32(n+k))
				for i := n + k; i > n; i-- {
					target = appendEntry(target, rng, uint64(i))
				}
				target = append(target, base[4:]...)
				checkNext(t, base, target, delta.Make(base, target))
			}
		}
	})
	t.Run("or-set inserts and removes", func(t *testing.T) {
		for _, n := range []int{10, 300, 3000} {
			pairs := randomPairs(rng, n)
			for trial := 0; trial < 20; trial++ {
				base := setOf(pairs)
				next := slices.Clone(pairs)
				if at := rng.Intn(len(next)); trial%2 == 0 {
					next = slices.Delete(next, at, at+1)
				} else {
					var p [16]byte
					copy(p[:], next[at][:])
					p[15]++
					next = slices.Insert(next, at+1, p)
				}
				target := setOf(next)
				checkNext(t, base, target, delta.Make(base, target))
				pairs = next
			}
		}
	})
	t.Run("scattered pair writes", func(t *testing.T) {
		base := setOf(randomPairs(rng, 3000))
		for trial := 0; trial < 20; trial++ {
			target := slices.Clone(base)
			for w := rng.Intn(8) + 1; w > 0; w-- {
				at := 4 + 16*rng.Intn(3000)
				rng.Read(target[at : at+16])
			}
			checkNext(t, base, target, delta.Make(base, target))
		}
	})
	t.Run("composed patches", func(t *testing.T) {
		pairs := randomPairs(rng, 2000)
		first := setOf(pairs)
		prev := first
		var chain [][]byte
		for step := 0; step < 12; step++ {
			at := rng.Intn(len(pairs))
			switch step % 3 {
			case 0:
				pairs = slices.Delete(pairs, at, at+1)
			case 1:
				pairs = slices.Insert(pairs, at, randomPairs(rng, 3)...)
			default:
				rng.Read(pairs[at][8:])
			}
			cur := setOf(pairs)
			chain = append(chain, delta.Make(prev, cur))
			composed, err := delta.Compose(chain...)
			if err != nil {
				t.Fatal(err)
			}
			checkNext(t, first, cur, composed)
			prev = cur
		}
	})
	t.Run("sizes", func(t *testing.T) {
		random := func(n int) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		// Zeros never cut, so they run to chunkMax.
		for _, pair := range [][2][]byte{
			{nil, nil},
			{nil, random(100)},
			{random(100), nil},
			{random(300), random(511)},
			{random(chunkMin), append(random(chunkMin), 1)},
			{make([]byte, 3*chunkMax+7), make([]byte, 3*chunkMax+8)},
			{make([]byte, 3*chunkMax), append([]byte{1}, make([]byte, 3*chunkMax)...)},
			{random(20 << 10), random(30 << 10)},
		} {
			base, target := pair[0], pair[1]
			checkNext(t, base, target, delta.Make(base, target))
			edited := slices.Concat(base[:len(base)/2], []byte("edit"), base[len(base)/2:])
			checkNext(t, base, edited, delta.Make(base, edited))
		}
	})
}

// FuzzChunkBoundaries: chunks tile the input, none is shorter than
// chunkMin but the last or longer than chunkMax, and chunking from any
// cut reproduces the cuts after it. Splicing ins into data at at, the
// incremental tree is the cold one.
func FuzzChunkBoundaries(f *testing.F) {
	rng := rand.New(rand.NewSource(4402))
	for _, n := range []int{0, 700, 5000, 20000} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b, uint16(n/3), []byte("spliced"))
	}
	f.Add(make([]byte, 10000), uint16(0), []byte{1, 2, 3})
	f.Add(logOf(rng, 300), uint16(4), []byte("prepended entry"))
	f.Fuzz(func(t *testing.T, data []byte, at uint16, ins []byte) {
		tree := (&hasher{}).tree(data, nil)
		start := 0
		for i, end := range tree.ends {
			n := end - start
			if n <= 0 || n > chunkMax || n < chunkMin && i < len(tree.ends)-1 {
				t.Fatalf("chunk %d is %d bytes", i, n)
			}
			rest := (&hasher{}).tree(data[start:], nil)
			for j, e := range rest.ends {
				if e+start != tree.ends[i+j] {
					t.Fatalf("chunking from cut %d gives cut %d, want %d", start, e+start, tree.ends[i+j])
				}
			}
			start = end
		}
		if start != len(data) {
			t.Fatalf("chunks end at %d of %d bytes", start, len(data))
		}
		pos := min(int(at), len(data))
		target := slices.Concat(data[:pos], ins, data[pos:])
		checkNext(t, data, target, delta.Make(data, target))
	})
}

// TestStateAddrPinned pins the gear table and the addresses of a few
// encodings: any change to chunking, tags or tree shape moves them, and
// with them every commit hash a log or a peer holds.
func TestStateAddrPinned(t *testing.T) {
	var table []byte
	for _, g := range gear {
		table = binary.BigEndian.AppendUint64(table, g)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(table)); got != pinnedGear {
		t.Errorf("gear table digest %s, want %s", got, pinnedGear)
	}
	rng := rand.New(rand.NewSource(4403))
	random := make([]byte, 48<<10)
	rng.Read(random)
	for _, c := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"empty", nil, pinnedEmpty},
		{"short", []byte("peepul"), pinnedShort},
		{"zeros", make([]byte, 10000), pinnedZeros},
		{"random", random, pinnedRandom},
		{"log", logOf(rng, 2000), pinnedLog},
	} {
		if h := StateAddr(c.enc); fmt.Sprintf("%x", h[:]) != c.want {
			t.Errorf("%s: address %x, want %s", c.name, h[:], c.want)
		}
	}
}

const (
	pinnedGear   = "d9115b773fb8b4e050a05f2ab309ff2e0dc8daa8be15444285c3efadb2bc4faa"
	pinnedEmpty  = "454349e422f05297191ead13e21d3db520e5abef52055e4964b82fb213f593a1"
	pinnedShort  = "68bd7bb8057f18b53f8bb13e6818fa3cdc3a85e15ab9c060c37eab65749b4737"
	pinnedZeros  = "860e2ab095d48d600e2b45cc0cf9fc7dab0f76f822ed53a1d7167f9b8382771e"
	pinnedRandom = "ca54c2793e7bb0aec0c47ee5aaaa7cda326e0a3e2b9d8a589aa606c097c9de19"
	pinnedLog    = "b76b1c6cf4153ad7e2fee8e2ea7a61d71c4ae71b0caebe006ac521002ca97ec3"
)

// BenchmarkStateAddr times addressing a 48 KiB encoding from scratch, and
// from its base's tree after a one-entry log prepend, against plain
// SHA-256 of the same bytes; and addressing a 300-byte state, one chunk.
func BenchmarkStateAddr(b *testing.B) {
	rng := rand.New(rand.NewSource(4404))
	base := logOf(rng, 1)
	for len(base) < 48<<10 {
		base = logOf(rng, len(base)/10)
	}
	base = base[:48<<10]
	target := slices.Concat(base[:4], []byte("a prepended entry of 36 bytes ....."), base[4:])
	patch := delta.Make(base, target)
	runs, _, _ := delta.CopyRuns(nil, patch)
	bt := (&hasher{}).tree(base, nil)
	b.Run("sha256", func(b *testing.B) {
		b.SetBytes(int64(len(base)))
		for range b.N {
			sha256.Sum256(base)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(int64(len(base)))
		for range b.N {
			StateAddr(base)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		b.SetBytes(int64(len(target)))
		for range b.N {
			var hs hasher
			bt.next(&hs, target, runs, nil)
		}
	})
	small := base[:300]
	b.Run("small-sha256", func(b *testing.B) {
		b.SetBytes(int64(len(small)))
		for range b.N {
			sha256.Sum256(small)
		}
	})
	b.Run("small", func(b *testing.B) {
		b.SetBytes(int64(len(small)))
		b.ReportAllocs()
		for range b.N {
			StateAddr(small)
		}
	})
}
