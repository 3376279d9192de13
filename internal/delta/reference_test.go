package delta_test

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/queue"
	"repro/internal/wire"
)

// makeReference is the encoder Make replaced, kept verbatim as a test-only
// oracle: it indexes every aligned 16-byte window of the whole base and
// scans the whole target. It pins two things — that patches written by
// older builds still Apply, and that trimming before matching never made a
// patch larger (the stored-bytes bound of the benchmark rides on that).
func makeReference(base, target []byte) []byte {
	const (
		opInsert      = 0x00
		opCopy        = 0x01
		blockSize     = 16
		maxChainProbe = 8
	)
	appendInsert := func(patch, lit []byte) []byte {
		if len(lit) == 0 {
			return patch
		}
		patch = append(patch, opInsert)
		patch = binary.AppendUvarint(patch, uint64(len(lit)))
		return append(patch, lit...)
	}
	blockHash := func(b []byte) uint64 {
		h := uint64(14695981039346656037)
		for _, c := range b {
			h = (h ^ uint64(c)) * 1099511628211
		}
		return h
	}

	patch := make([]byte, 0, 2*binary.MaxVarintLen64+len(target)/8+16)
	patch = binary.AppendUvarint(patch, uint64(len(base)))
	patch = binary.AppendUvarint(patch, uint64(len(target)))
	if len(base) < blockSize || len(target) < blockSize {
		return appendInsert(patch, target)
	}
	index := make(map[uint64][]int, len(base)/blockSize)
	for off := 0; off+blockSize <= len(base); off += blockSize {
		h := blockHash(base[off : off+blockSize])
		if c := index[h]; len(c) < maxChainProbe {
			index[h] = append(c, off)
		}
	}
	insertStart := 0
	i := 0
	for i+blockSize <= len(target) {
		bestOff, bestStart, bestLen := -1, 0, 0
		for _, off := range index[blockHash(target[i:i+blockSize])] {
			if !bytes.Equal(base[off:off+blockSize], target[i:i+blockSize]) {
				continue
			}
			end, bend := i+blockSize, off+blockSize
			for end < len(target) && bend < len(base) && target[end] == base[bend] {
				end++
				bend++
			}
			start, bstart := i, off
			for start > insertStart && bstart > 0 && target[start-1] == base[bstart-1] {
				start--
				bstart--
			}
			if l := end - start; l > bestLen {
				bestOff, bestStart, bestLen = bstart, start, l
			}
		}
		if bestLen >= blockSize {
			patch = appendInsert(patch, target[insertStart:bestStart])
			patch = append(patch, opCopy)
			patch = binary.AppendUvarint(patch, uint64(bestOff))
			patch = binary.AppendUvarint(patch, uint64(bestLen))
			i = bestStart + bestLen
			insertStart = i
		} else {
			i++
		}
	}
	return appendInsert(patch, target[insertStart:])
}

// The corpora below are encodings internal/wire's codecs produce, so the
// edits land where real commits put them.

func randMsg(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// lamport builds a timestamp the way the store's clocks do.
func lamport(counter int64, replica int64) core.Timestamp {
	return core.Timestamp(counter<<16 | replica)
}

// sortedPairs returns n pairs with distinct ascending elements.
func sortedPairs(rng *rand.Rand, n int) orset.SpaceState {
	ps := make(orset.SpaceState, n)
	e := int64(0)
	for i := range ps {
		e += 1 + rng.Int63n(1000)
		ps[i] = orset.Pair{E: e, T: lamport(1+rng.Int63n(1<<20), rng.Int63n(4))}
	}
	return ps
}

// insertSorted returns ps with k fresh pairs merged in element order.
func insertSorted(rng *rand.Rand, ps orset.SpaceState, k int) orset.SpaceState {
	out := slices.Clone(ps)
	have := make(map[int64]bool, len(ps))
	for _, p := range ps {
		have[p.E] = true
	}
	for ; k > 0; k-- {
		e := 1 + rng.Int63n(out[len(out)-1].E+1000)
		for have[e] {
			e++
		}
		have[e] = true
		out = append(out, orset.Pair{E: e, T: lamport(1<<20+rng.Int63n(1<<10), rng.Int63n(4))})
	}
	slices.SortFunc(out, func(a, b orset.Pair) int { return cmp.Compare(a.E, b.E) })
	return out
}

type corpusCase struct {
	name         string
	base, target []byte
}

func codecCorpora(rng *rand.Rand) []corpusCase {
	var cs []corpusCase
	add := func(name string, base, target []byte) {
		cs = append(cs, corpusCase{name, base, target})
	}
	pairs := wire.OrSetSpace{}.Encode
	for _, n := range []int{1, 10, 100, 1000} {
		// mlog: newest entry first, so an append prepends one record.
		log := make(mlog.State, n)
		for i := range log {
			log[i] = mlog.Entry{T: lamport(int64(n-i), 1), Msg: randMsg(rng, 8+rng.Intn(40))}
		}
		grown := append(mlog.State{{T: lamport(int64(n+1), 1), Msg: randMsg(rng, 24)}}, log...)
		add(fmt.Sprintf("mlog-prepend/%d", n), wire.MLog{}.Encode(log), wire.MLog{}.Encode(grown))

		ps := sortedPairs(rng, n)
		for _, k := range []int{1, 2, 8, 64} {
			add(fmt.Sprintf("orset-sorted-insert-%d/%d", k, n), pairs(ps), pairs(insertSorted(rng, ps, k)))
		}
		// A sorted set losing one element, and one re-added with a newer
		// timestamp (same length, a few bytes differ).
		at := rng.Intn(n)
		add(fmt.Sprintf("orset-sorted-remove/%d", n), pairs(ps), pairs(slices.Delete(slices.Clone(ps), at, at+1)))
		bumped := slices.Clone(ps)
		bumped[at].T += lamport(5, 0)
		add(fmt.Sprintf("orset-bump-timestamp/%d", n), pairs(ps), pairs(bumped))

		// Unsorted or-set / g-set: one pair appended at the tail.
		add(fmt.Sprintf("orset-unsorted-append/%d", n), pairs(ps), pairs(append(slices.Clone(ps), orset.Pair{E: rng.Int63n(1 << 30), T: lamport(1<<24, 2)})))

		// Queue: the oldest popped from the front, a fresh one pushed at
		// the back (the count stays put), and each alone.
		q := make([]queue.Pair, n+1)
		for i := range q {
			q[i] = queue.Pair{T: lamport(int64(i+1), 1), V: rng.Int63n(1 << 20)}
		}
		enc := func(ps []queue.Pair) []byte { return wire.Queue{}.Encode(queue.FromSlice(ps)) }
		add(fmt.Sprintf("queue-push-pop/%d", n), enc(q[:n]), enc(q[1:]))
		add(fmt.Sprintf("queue-push/%d", n), enc(q[:n]), enc(q))
		add(fmt.Sprintf("queue-pop/%d", n), enc(q[:n]), enc(q[1:n]))
	}
	for _, size := range []int{64, 4 << 10, 64 << 10} {
		base := make([]byte, size)
		rng.Read(base)
		for _, edits := range []int{1, 8, 64} {
			target := slices.Clone(base)
			for e := 0; e < edits; e++ {
				target[rng.Intn(size)] ^= byte(1 + rng.Intn(255))
			}
			add(fmt.Sprintf("scattered-%d/%d", edits, size), base, target)
		}
		other := make([]byte, size)
		rng.Read(other)
		add(fmt.Sprintf("disjoint/%d", size), base, other)
		add(fmt.Sprintf("identical/%d", size), base, slices.Clone(base))
	}
	return cs
}

// TestMakeNoLargerThanReference is the size oracle: on every codec-shaped
// corpus the patch round-trips and is no longer than the one the old
// whole-base encoder produced.
func TestMakeNoLargerThanReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, c := range codecCorpora(rand.New(rand.NewSource(seed))) {
			patch := roundTrip(t, c.base, c.target)
			if ref := makeReference(c.base, c.target); len(patch) > len(ref) {
				t.Errorf("seed %d %s: patch is %d bytes, reference encoder's %d", seed, c.name, len(patch), len(ref))
			}
			if cap(patch) != len(patch) {
				t.Errorf("seed %d %s: patch has cap %d for len %d", seed, c.name, cap(patch), len(patch))
			}
		}
	}
}

// TestApplyReadsReferencePatches: patches the old encoder wrote (they sit
// in durable logs and arrive from peers running older builds) still
// rebuild their target.
func TestApplyReadsReferencePatches(t *testing.T) {
	for _, c := range codecCorpora(rand.New(rand.NewSource(11))) {
		got, err := delta.Apply(c.base, makeReference(c.base, c.target))
		if err != nil {
			t.Fatalf("%s: Apply(reference patch): %v", c.name, err)
		}
		if !bytes.Equal(got, c.target) {
			t.Fatalf("%s: reference patch rebuilds a different target", c.name)
		}
	}
}
