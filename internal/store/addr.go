package store

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"slices"
	"sort"

	"repro/internal/delta"
)

// State addresses: a chunk tree over the encoding.
//
// A state's content address is not the SHA-256 of its whole encoding,
// which would make every commit hash O(state) bytes for an edit of a few
// dozen. The encoding is cut into content-defined chunks (FastCDC's gear
// rolling hash: Xia et al., USENIX ATC 2016), each chunk is hashed, the
// chunk hashes are cut into groups where a chunk hash ends one, each
// group is hashed, and the address is the hash of the group hashes.
// Every level carries its own domain tag, so no chunk can pose as a group
// or a group as a root.
//
// Whether a position ends a chunk depends only on the bytes from that
// chunk's start: cuts are tested from chunkMin bytes past the start, on a
// gear hash of the gearWindow bytes ending at the position, and chunkMax
// counts from the start. Whether a chunk ends a group depends only on
// its own hash. So an edit moves
// only the cuts near it, and an address can be computed from the base
// state's tree and a patch's copy runs (chunkTree.next): a chunk whose
// bytes the patch copies whole from a base chunk, starting at that
// chunk's start, is the base chunk, and a group made of base chunks that
// formed a base group is that group. Only the chunks and groups around
// the edit are hashed again.

// Chunking bounds: a chunk is at least chunkMin bytes (the last may be
// shorter) and at most chunkMax, and ends at the first hit past chunkMin
// (chunkLen), one position in 2^cutBits, so chunks average
// chunkMin+2^cutBits bytes, 1.5 KiB. Only the bytes past chunkMin are
// scanned, so a cold pass costs SHA-256 of the encoding plus a gear step
// for a third of its bytes; a shorter chunkMin would scan more, a longer
// one (against the same 2^cutBits) would let the cuts after an edit fall
// out of step with the base's for longer. A chunk hash ends a group when
// its last byte is a multiple of groupFanout, so groups average 16
// chunks.
const (
	chunkMin    = 1024
	chunkMax    = 4096
	cutBits     = 9
	cutBelow    = 1 << (64 - cutBits)
	groupFanout = 16
	gearWindow  = 64
)

// Domain tags: the first byte hashed at each level of the tree.
var (
	tagChunk = []byte{'c'}
	tagGroup = []byte{'g'}
	tagRoot  = []byte{'r'}
)

// gear is the rolling hash's byte table: entry i is the first eight
// bytes of SHA-256("peepul gear" || i). TestStateAddrPinned pins it.
var gear = func() (t [256]uint64) {
	for i := range t {
		sum := sha256.Sum256(append([]byte("peepul gear"), byte(i)))
		t[i] = binary.BigEndian.Uint64(sum[:])
	}
	return t
}()

// chunkLen returns the length of the chunk that starts at b[0]: up to the
// first hit past chunkMin, or chunkMax bytes. A position is a hit when the
// gear hash of the gearWindow bytes ending there is below cutBelow; the
// hash h = h<<1 + gear[byte] shifts out every byte older than that, so it
// is warmed up over the window before chunkMin and needs no state from
// any earlier chunk.
func chunkLen(b []byte) int {
	if len(b) <= chunkMin {
		return len(b)
	}
	b = b[:min(len(b), chunkMax)]
	g := &gear
	var h uint64
	for _, c := range b[chunkMin-gearWindow : chunkMin] {
		h = h<<1 + g[c]
	}
	i := chunkMin
	// Four bytes a step, with one test for all four; the step with a cut
	// is redone a byte at a time below.
	for ; i+4 <= len(b); i += 4 {
		q := b[i : i+4 : i+4]
		h1 := h<<1 + g[q[0]]
		h2 := h1<<1 + g[q[1]]
		h3 := h2<<1 + g[q[2]]
		h4 := h3<<1 + g[q[3]]
		if min(h1, h2, h3, h4) < cutBelow {
			break
		}
		h = h4
	}
	for ; i < len(b); i++ {
		if h = h<<1 + g[b[i]]; h < cutBelow {
			return i + 1
		}
	}
	return len(b)
}

// chunkTree is an encoding's address together with the levels below it,
// the summary an incremental address starts from. Hashes are stored flat,
// sha256.Size bytes each.
type chunkTree struct {
	root   Hash
	ends   []int  // each chunk's end offset in the encoding
	chunks []byte // each chunk's hash
	groups []int  // each group's end, as an index into the chunks
	sums   []byte // each group's hash
	// from is next's record of the base chunk each chunk is, -1 for one
	// hashed afresh, kept so that a recycled tree reuses it.
	from []int
	// A tree of one chunk in one group — every state under chunkMin —
	// keeps its levels here instead of in allocations of their own.
	end1   [1]int
	chunk1 [sha256.Size]byte
	group1 [1]int
	sum1   [sha256.Size]byte
}

// reset empties t to be built again, for about n chunks, keeping its
// storage: a recycled tree's levels, or the inline ones while one chunk
// is expected.
func (t *chunkTree) reset(n int) {
	if t.ends == nil && n <= 1 {
		t.ends, t.chunks, t.groups, t.sums = t.end1[:0], t.chunk1[:0], t.group1[:0], t.sum1[:0]
	}
	t.ends = slices.Grow(t.ends[:0], n)
	t.chunks = slices.Grow(t.chunks[:0], n*sha256.Size)
}

// StateAddr returns the content address of the state encoded as enc: the
// root of its chunk tree.
func StateAddr(enc []byte) Hash {
	var hs hasher
	return hs.tree(enc, nil).root
}

// hasher builds chunk trees with one SHA-256 digest and counts the bytes
// it feeds the digest.
type hasher struct {
	d   hash.Hash
	fed int64
}

// sum appends the hash of tag || data to dst.
func (hs *hasher) sum(dst, tag, data []byte) []byte {
	if hs.d == nil {
		hs.d = sha256.New()
	}
	hs.d.Reset()
	hs.d.Write(tag)
	hs.d.Write(data)
	hs.fed += int64(len(tag) + len(data))
	return hs.d.Sum(dst)
}

// tree builds enc's chunk tree from scratch, in t's storage (a recycled
// tree, which reset empties) or, when t is nil, in a new tree.
func (hs *hasher) tree(enc []byte, t *chunkTree) *chunkTree {
	if t == nil {
		t = new(chunkTree)
	}
	t.reset(len(enc)/(chunkMin+1<<cutBits) + 1)
	for pos := 0; pos < len(enc); {
		end := pos + chunkLen(enc[pos:])
		t.ends = append(t.ends, end)
		t.chunks = hs.sum(t.chunks, tagChunk, enc[pos:end])
		pos = end
	}
	hs.group(t, nil, nil)
	return t
}

// next builds the chunk tree of enc, which patch runs build from the
// encoding b summarizes, in t's storage as tree does; t must not be b. It
// equals tree(enc) bit for bit and hashes only what the copy runs do not
// carry over whole from b.
func (b *chunkTree) next(hs *hasher, enc []byte, runs []delta.CopyRun, t *chunkTree) *chunkTree {
	n := len(b.ends) + 1
	if t == nil {
		t = new(chunkTree)
	}
	t.reset(n)
	// from[i] is the base chunk new chunk i is, or -1 for a chunk hashed
	// afresh.
	from := slices.Grow(t.from[:0], n)
	for pos, ri := 0, 0; pos < len(enc); {
		for ri < len(runs) && runs[ri].At+runs[ri].Len <= pos {
			ri++
		}
		if ri < len(runs) && runs[ri].At <= pos {
			r := runs[ri]
			// Base offset off is enc offset off+shift within the run.
			shift := r.At - r.Off
			first := b.chunkAt(pos - shift)
			j := first
			// The whole base chunk must be copied, and the base's last
			// chunk, cut by its end rather than its bytes, is the same
			// chunk only where enc ends too.
			for ; j >= 0 && j < len(b.ends) && b.ends[j]+shift <= r.At+r.Len; j++ {
				if j == len(b.ends)-1 && b.ends[j]+shift != len(enc) {
					break
				}
				t.ends = append(t.ends, b.ends[j]+shift)
				from = append(from, j)
			}
			if j > first {
				t.chunks = append(t.chunks, b.chunks[first*sha256.Size:j*sha256.Size]...)
				pos = b.ends[j-1] + shift
				continue
			}
		}
		end := pos + chunkLen(enc[pos:])
		t.ends = append(t.ends, end)
		t.chunks = hs.sum(t.chunks, tagChunk, enc[pos:end])
		from = append(from, -1)
		pos = end
	}
	t.from = from
	hs.group(t, b, from)
	return t
}

// group fills in t's groups and root from its chunks. With a base b and
// from (next's), a group made of the chunks of one of b's groups, in
// order, reuses that group's hash.
func (hs *hasher) group(t, b *chunkTree, from []int) {
	n := len(t.ends)
	t.groups = slices.Grow(t.groups[:0], n/groupFanout+1)
	t.sums = slices.Grow(t.sums[:0], (n/groupFanout+1)*sha256.Size)
	for start, i := 0, 0; i < n; i++ {
		if c := t.chunk(i); i < n-1 && c[len(c)-1]%groupFanout != 0 {
			continue
		}
		t.groups = append(t.groups, i+1)
		if g := b.sameGroup(from, start, i+1); g >= 0 {
			t.sums = append(t.sums, b.sum(g)...)
		} else {
			t.sums = hs.sum(t.sums, tagGroup, t.chunks[start*sha256.Size:(i+1)*sha256.Size])
		}
		start = i + 1
	}
	hs.sum(t.root[:0], tagRoot, t.sums)
}

// sameGroup returns the index of b's group that new chunks [start, end)
// are, by from (next's), or -1.
func (b *chunkTree) sameGroup(from []int, start, end int) int {
	if b == nil || from[start] < 0 {
		return -1
	}
	first := from[start]
	for i := start; i < end; i++ {
		if from[i] != first+i-start {
			return -1
		}
	}
	g := 0
	if first > 0 {
		g = sort.SearchInts(b.groups, first)
		if g == len(b.groups) || b.groups[g] != first {
			return -1
		}
		g++
	}
	if g == len(b.groups) || b.groups[g] != first+end-start {
		return -1
	}
	return g
}

// chunkAt returns the index of the chunk that starts at off, or -1.
func (b *chunkTree) chunkAt(off int) int {
	if off == 0 {
		return 0
	}
	if j := sort.SearchInts(b.ends, off); j < len(b.ends) && b.ends[j] == off {
		return j + 1
	}
	return -1
}

// size is the length of the encoding t summarizes.
func (t *chunkTree) size() int {
	if len(t.ends) == 0 {
		return 0
	}
	return t.ends[len(t.ends)-1]
}

func (b *chunkTree) chunk(j int) []byte { return b.chunks[j*sha256.Size : (j+1)*sha256.Size] }
func (b *chunkTree) sum(g int) []byte   { return b.sums[g*sha256.Size : (g+1)*sha256.Size] }

// addrLocked returns enc's address and chunk tree: from base's tree and
// patch, a patch from base's encoding to enc, when both are given, else
// from scratch (addrRunsLocked). Callers hold s.mu.
func (s *Store[S, Op, Val]) addrLocked(enc []byte, base *chunkTree, patch []byte, into *chunkTree) (Hash, *chunkTree) {
	if base != nil && patch != nil {
		var buf [8]delta.CopyRun // a patch of an edit or two has a few
		if runs, baseLen, err := delta.CopyRuns(buf[:0], patch); err == nil && baseLen == base.size() {
			return s.addrRunsLocked(enc, base, runs, into)
		}
	}
	return s.addrRunsLocked(enc, nil, nil, into)
}

// addrRunsLocked returns enc's address and chunk tree: from base's tree
// and runs, the runs enc copies from base's encoding, when base is
// given, else from scratch. The tree is built in into's storage, a
// recycled tree that is not base, or in a new one when into is nil. It
// counts the bytes it hashes. Callers hold s.mu.
func (s *Store[S, Op, Val]) addrRunsLocked(enc []byte, base *chunkTree, runs []delta.CopyRun, into *chunkTree) (Hash, *chunkTree) {
	var hs hasher
	var t *chunkTree
	// A one-chunk base has nothing to lend but its one chunk, so a small
	// state is cheaper to address from scratch.
	if base != nil && len(base.ends) > 1 {
		t = base.next(&hs, enc, runs, into)
	} else {
		t = hs.tree(enc, into)
	}
	s.metrics.hashBytes.Add(hs.fed)
	return t.root, t
}
