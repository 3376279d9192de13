package disk

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/store"
	"repro/internal/wire"
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

// TestCheckpointTailCarriesHeadSets: a checkpoint's branch entries carry
// whole head sets and clockless tracking branches, and come back exactly.
// The single-head format's parser — a branch count, then per branch a
// name, one head and a clock, then nothing — reads the tail as no branch
// followed by trailing bytes, so an older build refuses the checkpoint
// rather than misread it.
func TestCheckpointTailCarriesHeadSets(t *testing.T) {
	sh := newShadow()
	sh.nextID = 65
	sh.branches["node"] = store.BranchRecord{Heads: []store.Hash{{1}, {2}, {3}}, Replica: 64, Clock: 9}
	sh.branches["remote/peer"] = store.BranchRecord{Heads: []store.Hash{{4}}, Replica: store.NoClock}
	record, _ := encodeCheckpoint(map[string]string{"datatype": "pn-counter"}, &sh, false)
	ck, err := decodeCheckpoint(record[0], bytes.Clone(record[1:]))
	if err != nil {
		t.Fatal(err)
	}
	if !maps.EqualFunc(ck.branches, sh.branches, func(a, b store.BranchRecord) bool {
		return slices.Equal(a.Heads, b.Heads) && a.Replica == b.Replica && a.Clock == b.Clock
	}) {
		t.Fatalf("tail branches %+v, want %+v", ck.branches, sh.branches)
	}

	// The tail is what follows the two empty index sections.
	r := wire.NewReader(record[1+4+4:])
	for n := r.Len(2); n > 0; n-- {
		_, _ = r.String(), r.String()
	}
	r.Int64()
	for n := r.Len(4 + 32 + 16); n > 0; n-- {
		_ = r.String()
		r.Hash()
		r.Int64()
		r.Int64()
	}
	if err := r.Close(); err == nil {
		t.Fatal("the single-head parser accepts a head-set tail")
	}
}
