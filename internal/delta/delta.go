// Package delta implements the binary delta encoding the store's pack
// layer chains state objects with: a patch is a sequence of copy/insert
// opcodes that rebuilds a target byte string from a base byte string,
// the way Git packfiles delta-chain objects against a nearby version.
// Patches are pure data — Apply validates every offset and length against
// the base and the announced target size, so a corrupted or hostile patch
// yields an error, never an out-of-bounds read or an oversized
// allocation.
//
// The format is deliberately small. A patch opens with two uvarints, the
// base length and the target length (Apply refuses a patch whose base
// length does not match the base it is given), followed by opcodes:
//
//	0x00 <uvarint n> <n bytes>      insert the next n literal bytes
//	0x01 <uvarint off> <uvarint n>  copy n bytes from base offset off
//
// # Patch construction
//
// Make is a greedy block-matching encoder whose work follows the edit,
// not the state. It first trims the bytes base and target share at both
// ends (a vectorized compare, then a word-at-a-time XOR to locate the
// first difference) and emits each end as one ordinary copy opcode when
// it is at least blockSize long. Only the blockSize-aligned base windows
// that overlap the unmatched base middle are indexed, and only the target
// middle is scanned for windows matching them. Every match is still
// extended as far as it goes in both directions over the whole base and
// target, so a copy found in the middle runs across the trim boundary
// exactly as it would have with the whole base indexed (a record inserted
// into a sorted list typically shares its leading zero bytes with the
// record that follows it; a matcher confined to the middles would pay
// those bytes as literals on every commit). The cost is O(memcmp) for
// the shared ends plus O(middle) for index and scan: a commit that
// prepends one record to a 72 KB log compares 72 KB and hashes a few dozen
// bytes. An edit that changes both the first and the last block (a count
// header plus a record appended at the tail) leaves nothing to trim and
// costs what indexing the whole base costs. The price of the narrow index
// is that middle bytes which also occur in base outside its middle (a
// repeated record, a longer run of a periodic input) go out as literals.
//
// Make always produces a valid patch; when base and target share nothing,
// the patch degenerates to one insert of the whole target (plus the
// header).
//
// # Patch composition
//
// Compose folds a chain of patches into one patch from the first one's
// base, in O(opcodes) and without rebuilding any intermediate state. The
// store uses it to rebase a state whose chain is full onto the chain's
// snapshot: a fresh Make against a snapshot hundreds of edits old costs
// what indexing the whole base costs whenever the edits are scattered.
package delta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrCorrupt is wrapped by every Apply failure.
var ErrCorrupt = errors.New("delta: corrupt patch")

// MaxTarget bounds the target length a patch may announce — the same
// 64 MiB ceiling the wire layer puts on one full encoded state, so a
// patch can never be used to reassemble (or allocate for) anything a
// full-state transfer could not have shipped. The store falls back to
// snapshots for states beyond it.
const MaxTarget = 64 << 20

// Opcode tags.
const (
	opInsert = 0x00
	opCopy   = 0x01
)

// blockSize is the match granularity of Make: base windows of this size
// are indexed, and only matches at least this long are worth a copy
// opcode (a copy costs up to 1+2·binary.MaxVarintLen64 bytes).
const blockSize = 16

// maxChainProbe bounds how many base offsets of equal content Make
// considers per target window, and maxBucket how many windows of any
// content one index bucket holds, so adversarially repetitive or
// colliding inputs stay O(n).
const (
	maxChainProbe = 8
	maxBucket     = 32
)

// Make encodes target as a patch against base. The result is always a
// valid input for Apply(base, ·); it is never larger than
// len(target)+2·binary.MaxVarintLen64+header bytes beyond the target
// itself, so callers comparing against storing target verbatim can simply
// compare lengths. The returned slice has cap == len: the store keeps
// patches resident for as long as their commit lives.
func Make(base, target []byte) []byte {
	patch, _ := MakeShared(base, target, 0)
	return patch
}

// MakeShared returns Make(base, target) for a target whose last tail
// bytes are base's last tail bytes — what an encoder that copied them
// from base knows without looking — and trims that run without comparing
// it, so a patch from a state to one that prepends to it costs O(edit).
// It also returns how many bytes it read to build the patch: the length
// of the shared ends it compared, and of the middles it indexed and
// scanned.
func MakeShared(base, target []byte, tail int) ([]byte, int) {
	// Most patches are a few dozen bytes; they are assembled on the stack
	// and leave as one exact-size allocation.
	var scratch [256]byte
	patch := binary.AppendUvarint(scratch[:0], uint64(len(base)))
	patch = binary.AppendUvarint(patch, uint64(len(target)))
	if len(base) < blockSize || len(target) < blockSize {
		return clip(appendInsert(patch, target)), 0
	}

	// Trim: a shared run shorter than a block is not worth a copy opcode
	// and stays part of the middle, so the scan below sees it. The
	// common suffix is the given tail and what the compare finds before
	// it.
	pre := commonPrefix(base, target)
	read := pre
	if pre < blockSize {
		pre = 0
	}
	tail = max(min(tail, len(base)-pre, len(target)-pre), 0)
	suf := tail + commonSuffix(base[pre:len(base)-tail], target[pre:len(target)-tail])
	read += suf - tail
	if suf < blockSize {
		suf = 0
	}
	baseEnd, targetEnd := len(base)-suf, len(target)-suf
	read += baseEnd - pre + targetEnd - pre
	patch = appendCopy(patch, 0, pre)

	// Scan the target middle against the base windows that overlap the
	// base middle. Extension reads all of base and target, so a match may
	// run out of the middle into the shared suffix.
	index := newBlockIndex(base, pre, baseEnd)
	insertStart, i := pre, pre
	for len(index.next) > 0 && i < targetEnd && i+blockSize <= len(target) {
		bestOff, bestStart, bestLen := -1, 0, 0
		window := target[i : i+blockSize]
		for w := index.first(window); w != 0; w = index.next[w-1] {
			off := index.offset(w)
			if !bytes.Equal(base[off:off+blockSize], window) {
				continue
			}
			end := i + blockSize
			end += commonPrefix(base[off+blockSize:], target[end:])
			// Backward only into the pending insert run.
			back := commonSuffix(base[:off], target[insertStart:i])
			if l := end - i + back; l > bestLen {
				bestOff, bestStart, bestLen = off-back, i-back, l
			}
		}
		if bestLen >= blockSize {
			patch = appendInsert(patch, target[insertStart:bestStart])
			patch = appendCopy(patch, bestOff, bestLen)
			i = bestStart + bestLen
			insertStart = i
		} else {
			i++
		}
	}

	// What is left of the shared suffix (all of it unless a copy ran into
	// it) is one more copy when it is still worth one.
	rest := max(insertStart, targetEnd)
	if len(target)-rest < blockSize {
		rest = len(target)
	}
	patch = appendInsert(patch, target[insertStart:rest])
	patch = appendCopy(patch, baseEnd+rest-targetEnd, len(target)-rest)
	return clip(patch), read
}

// clip returns patch in a buffer of exactly its length.
func clip(patch []byte) []byte {
	out := make([]byte, len(patch))
	copy(out, patch)
	return out
}

// chunkSize is the stride commonPrefix and commonSuffix skip equal runs
// in (one vectorized bytes.Equal each) before locating the first
// difference a word at a time.
const chunkSize = 256

// commonPrefix returns the length of the longest common prefix of a and
// b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	i := 0
	for i+chunkSize <= n && bytes.Equal(a[i:i+chunkSize], b[i:i+chunkSize]) {
		i += chunkSize
	}
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix returns the length of the longest common suffix of a and
// b.
func commonSuffix(a, b []byte) int {
	n := min(len(a), len(b))
	a, b = a[len(a)-n:], b[len(b)-n:]
	i := n
	for i >= chunkSize && bytes.Equal(a[i-chunkSize:i], b[i-chunkSize:i]) {
		i -= chunkSize
	}
	for ; i >= 8; i -= 8 {
		if x := binary.LittleEndian.Uint64(a[i-8:]) ^ binary.LittleEndian.Uint64(b[i-8:]); x != 0 {
			return n - i + bits.LeadingZeros64(x)/8
		}
	}
	for i > 0 && a[i-1] == b[i-1] {
		i--
	}
	return n - i
}

// blockIndex maps window contents to the blockSize-aligned base offsets
// holding them: a chained hash table in two flat arrays. Windows are
// numbered from 1 (0 ends a chain); chains run in ascending offset order.
type blockIndex struct {
	lo    int      // base offset of window 1
	shift uint     // 64 - log2(len(heads))
	heads []uint32 // bucket → first window
	next  []uint32 // window-1 → next window in its bucket
}

// newBlockIndex indexes the aligned windows of base that overlap
// base[from:to]. A bucket keeps at most maxChainProbe windows of equal
// content and at most maxBucket windows in all; later ones are dropped.
func newBlockIndex(base []byte, from, to int) blockIndex {
	lo := from / blockSize * blockSize
	hi := min((to+blockSize-1)/blockSize*blockSize, len(base)/blockSize*blockSize)
	n := min((hi-lo)/blockSize, math.MaxInt32)
	if n <= 0 {
		return blockIndex{}
	}
	logSize := max(bits.Len(uint(n)), 1) // table at least as large as n
	table := make([]uint32, 1<<logSize+n)
	ix := blockIndex{lo: lo, shift: uint(64 - logSize), heads: table[:1<<logSize], next: table[1<<logSize:]}
	for w := 1; w <= n; w++ {
		window := base[ix.offset(uint32(w)):][:blockSize]
		slot := &ix.heads[blockHash(window)>>ix.shift]
		equal, steps, full := 0, 0, false
		for *slot != 0 && !full {
			if bytes.Equal(base[ix.offset(*slot):][:blockSize], window) {
				equal++
			}
			steps++
			full = equal == maxChainProbe || steps == maxBucket
			slot = &ix.next[*slot-1]
		}
		if !full {
			*slot = uint32(w)
		}
	}
	return ix
}

// first returns the first window of the bucket window hashes to.
func (ix *blockIndex) first(window []byte) uint32 {
	return ix.heads[blockHash(window)>>ix.shift]
}

// offset returns the base offset of window w.
func (ix *blockIndex) offset(w uint32) int { return ix.lo + int(w-1)*blockSize }

// Identity returns the patch that rebuilds an n-byte base unchanged —
// one copy of the whole base. Stores ship it for commits that pin
// exactly their parent's state (deduplicated no-op operations), where
// the base's length is known without materializing the bytes.
func Identity(n int) []byte {
	patch := make([]byte, 0, 2*binary.MaxVarintLen64+4)
	patch = binary.AppendUvarint(patch, uint64(n))
	patch = binary.AppendUvarint(patch, uint64(n))
	if n == 0 {
		return patch
	}
	patch = append(patch, opCopy)
	patch = binary.AppendUvarint(patch, 0)
	return binary.AppendUvarint(patch, uint64(n))
}

// appendCopy emits one copy opcode for base[off:off+n] (nothing for n == 0).
func appendCopy(patch []byte, off, n int) []byte {
	if n == 0 {
		return patch
	}
	patch = append(patch, opCopy)
	patch = binary.AppendUvarint(patch, uint64(off))
	return binary.AppendUvarint(patch, uint64(n))
}

// appendInsert emits one insert opcode for lit (nothing for empty lit).
func appendInsert(patch, lit []byte) []byte {
	if len(lit) == 0 {
		return patch
	}
	patch = append(patch, opInsert)
	patch = binary.AppendUvarint(patch, uint64(len(lit)))
	return append(patch, lit...)
}

// blockHash mixes one blockSize-byte window into 64 bits whose high bits
// pick the index bucket — two loads and three multiplies, and collisions
// only cost a failed byte comparison.
func blockHash(b []byte) uint64 {
	h := binary.LittleEndian.Uint64(b)*0x9e3779b97f4a7c15 + binary.LittleEndian.Uint64(b[8:])*0xc2b2ae3d27d4eb4f
	return (h ^ h>>32) * 0xff51afd7ed558ccd
}

// Apply rebuilds the target from base and patch. Every opcode is
// validated *before* it produces output: copies must lie inside base,
// no opcode may push the output past the announced target length, the
// announced length is capped at MaxTarget, and the announced base
// length must match len(base) — so a hostile patch can neither read out
// of bounds nor drive allocation beyond MaxTarget, however many
// whole-base copy opcodes it stacks. It is ApplyTo with no buffer to
// write into.
func Apply(base, patch []byte) ([]byte, error) {
	return ApplyTo(nil, base, patch)
}

// ApplyTo is Apply writing the target into dst's storage when cap(dst)
// covers the announced target length; dst's contents are ignored, and it
// must not overlap base or patch. Otherwise it allocates the target with
// an eighth more room, so that a caller recycling the result has room
// for a growing state's next version too. It validates exactly as Apply
// does.
func ApplyTo(dst, base, patch []byte) ([]byte, error) {
	baseLen, n := binary.Uvarint(patch)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad base length", ErrCorrupt)
	}
	patch = patch[n:]
	if baseLen != uint64(len(base)) {
		return nil, fmt.Errorf("%w: patch is against a %d-byte base, have %d bytes", ErrCorrupt, baseLen, len(base))
	}
	targetLen, n := binary.Uvarint(patch)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad target length", ErrCorrupt)
	}
	if targetLen > MaxTarget {
		return nil, fmt.Errorf("%w: announced target of %d bytes exceeds the %d limit", ErrCorrupt, targetLen, MaxTarget)
	}
	patch = patch[n:]
	out := dst[:0]
	if dst == nil || uint64(cap(dst)) < targetLen {
		// Every opcode below is checked against the remaining room before
		// appending, so out never grows past targetLen; still cap the
		// prealloc at what the patch could plausibly produce, so a forged
		// length paired with a tiny patch does not get a large buffer for
		// free.
		prealloc := targetLen + targetLen/8
		if lim := uint64(len(base)+len(patch)) * 8; prealloc > lim {
			prealloc = lim
		}
		out = make([]byte, 0, prealloc)
	}
	for len(patch) > 0 {
		op := patch[0]
		patch = patch[1:]
		room := targetLen - uint64(len(out))
		switch op {
		case opInsert:
			l, n := binary.Uvarint(patch)
			if n <= 0 || l > uint64(len(patch)-n) {
				return nil, fmt.Errorf("%w: truncated insert", ErrCorrupt)
			}
			if l > room {
				return nil, fmt.Errorf("%w: output exceeds announced %d bytes", ErrCorrupt, targetLen)
			}
			patch = patch[n:]
			out = append(out, patch[:l]...)
			patch = patch[l:]
		case opCopy:
			off, n := binary.Uvarint(patch)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad copy offset", ErrCorrupt)
			}
			patch = patch[n:]
			l, n := binary.Uvarint(patch)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad copy length", ErrCorrupt)
			}
			patch = patch[n:]
			if off > uint64(len(base)) || l > uint64(len(base))-off {
				return nil, fmt.Errorf("%w: copy [%d,%d) outside %d-byte base", ErrCorrupt, off, off+l, len(base))
			}
			if l > room {
				return nil, fmt.Errorf("%w: output exceeds announced %d bytes", ErrCorrupt, targetLen)
			}
			out = append(out, base[off:off+l]...)
		default:
			return nil, fmt.Errorf("%w: unknown opcode %#x", ErrCorrupt, op)
		}
	}
	if uint64(len(out)) != targetLen {
		return nil, fmt.Errorf("%w: output is %d bytes, %d announced", ErrCorrupt, len(out), targetLen)
	}
	return out, nil
}
