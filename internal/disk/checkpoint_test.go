package disk

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// TestMergeBackMatchesForwardMerge: the in-place backward merge an open
// uses to fold a delta into its base yields exactly the entries the
// forward merge that writes checkpoints does — upper superseding lower on
// equal hashes — whatever the overlap, and however little room is left
// past lower beyond what upper needs.
func TestMergeBackMatchesForwardMerge(t *testing.T) {
	const width = 40 // a 32-byte hash, then a payload telling the sides apart
	rng := rand.New(rand.NewSource(1))
	entries := func(hashes [][]byte, tag byte) []byte {
		sort.Slice(hashes, func(i, j int) bool { return bytes.Compare(hashes[i], hashes[j]) < 0 })
		var out []byte
		for _, h := range hashes {
			out = append(out, h...)
			out = append(out, bytes.Repeat([]byte{tag}, width-len(h))...)
		}
		return out
	}
	hash := func() []byte {
		h := make([]byte, 32)
		rng.Read(h)
		return h
	}
	for trial := 0; trial < 200; trial++ {
		var lo, up [][]byte
		for i, n := 0, rng.Intn(60); i < n; i++ {
			lo = append(lo, hash())
		}
		for i, n := 0, rng.Intn(20); i < n; i++ {
			if len(lo) > 0 && rng.Intn(3) == 0 {
				up = append(up, append([]byte(nil), lo[rng.Intn(len(lo))]...)) // superseded
			} else {
				up = append(up, hash())
			}
		}
		dedup := map[string]bool{}
		var u [][]byte
		for _, h := range up {
			if !dedup[string(h)] {
				dedup[string(h)] = true
				u = append(u, h)
			}
		}
		lower, upper := entries(lo, 'L'), entries(u, 'U')
		want := mergeEntries(nil, lower, upper, width)

		at, slack := rng.Intn(8), rng.Intn(3)*width
		buf := make([]byte, at+len(lower)+len(upper)+slack)
		copy(buf[at:], lower)
		if got := mergeBack(buf, at, len(lower), upper, width); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d lower at %d, %d upper, slack %d): backward merge differs from forward merge", trial, len(lo), at, len(u), slack)
		}
	}
}
