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
// costs what indexing the whole base costs — unless the caller names the
// runs it copied (MakeShared): an encoder that spliced its parent's
// encoding around the edit knows them, and then only the bytes between
// the runs are indexed and scanned, so an element inserted into a sorted
// set behind its changed count costs a few dozen bytes however large the
// set. The price of the narrow index is that middle bytes which also
// occur in base outside its middle (a repeated record, a longer run of a
// periodic input) go out as literals.
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
	"slices"
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
	patch, _ := MakeShared(base, target, nil)
	return patch
}

// MakeShared returns Make(base, target) for a target whose runs — what an
// encoder that copied target[At:At+Len] from base[Off:Off+Len] knows
// without looking — it does not compare. The runs must ascend by At
// without overlapping and lie inside both inputs; when they do not,
// MakeShared ignores them all. It also returns how many bytes it read to build the
// patch: the length of the shared ends it compared, and of the middles
// it indexed and scanned.
//
// A run at either end is trimmed as Make trims a shared end, and each
// trimmed end and every copy extends from a run across its seams by
// comparing the bytes beyond it, so a run costs nothing however long it
// is. When a run lies inside the middle Make would index and scan, as an
// element inserted into a sorted set behind its changed count does,
// MakeShared indexes only the base windows no single run holds whole and
// scans the target only between runs, taking the run itself as the copy
// Make would find there. The patch is then Make's whenever no 16-byte
// string occurs twice in target and Make's index of base keeps every
// window (at most maxChainProbe equal windows and maxBucket windows in a
// bucket): a repeat elsewhere in base is the one copy Make could find that
// MakeShared does not look at. It is a valid patch in any case. With more
// than maxLocal windows to index between runs, MakeShared indexes the
// whole middle as Make does and returns Make's patch.
func MakeShared(base, target []byte, runs []CopyRun) ([]byte, int) {
	// Most patches are a few dozen bytes; they are assembled on the stack
	// and leave as one exact-size allocation.
	var scratch [256]byte
	patch := binary.AppendUvarint(scratch[:0], uint64(len(base)))
	patch = binary.AppendUvarint(patch, uint64(len(target)))
	if len(base) < blockSize || len(target) < blockSize {
		return clip(appendInsert(patch, target)), 0
	}
	s := scan{matcher: matcher{base: base, target: target, runs: checkRuns(runs, len(base), len(target))}}

	// Trim: a shared run shorter than a block is not worth a copy opcode
	// and stays part of the middle, so the scan below sees it.
	pre, read := s.forward(0, 0)
	if pre < blockSize {
		pre = 0
	}
	suf, compared := s.backward(len(base), len(target), pre, pre)
	read += compared
	if suf < blockSize {
		suf = 0
	}
	baseEnd, targetEnd := len(base)-suf, len(target)-suf
	patch = appendCopy(patch, 0, pre)

	// Scan the target middle against the base windows that overlap the
	// base middle. Extension reads all of base and target, so a match may
	// run out of the middle into the shared suffix.
	lo, n := windowRange(pre, baseEnd, len(base))
	var index blockIndex
	var localBuf [maxLocal]localWindow
	local, isLocal := s.localWindows(localBuf[:0], lo, n, pre, targetEnd)
	if isLocal {
		read += blockSize * len(local)
	} else {
		index = newBlockIndex(base, lo, n)
		read += baseEnd - pre + targetEnd - pre
	}
	s.insertStart, s.i = pre, pre
	for k := 0; n > 0 && s.i < targetEnd && s.i+blockSize <= len(target); {
		s.bestOff, s.bestStart, s.bestLen = -1, 0, 0
		window := target[s.i : s.i+blockSize]
		if isLocal {
			read++
			for k < len(s.runs) && s.runs[k].At+s.runs[k].Len <= s.i {
				k++
			}
			s.offerLocal(local, window, s.runWindow(k, lo, n))
		} else {
			for w := index.first(window); w != 0; w = index.next[w-1] {
				s.consider(index.offset(w), false)
			}
		}
		if s.bestLen >= blockSize {
			patch = appendInsert(patch, target[s.insertStart:s.bestStart])
			patch = appendCopy(patch, s.bestOff, s.bestLen)
			s.i = s.bestStart + s.bestLen
			s.insertStart = s.i
		} else {
			s.i++
		}
	}

	// What is left of the shared suffix (all of it unless a copy ran into
	// it) is one more copy when it is still worth one.
	rest := max(s.insertStart, targetEnd)
	if len(target)-rest < blockSize {
		rest = len(target)
	}
	patch = appendInsert(patch, target[s.insertStart:rest])
	patch = appendCopy(patch, baseEnd+rest-targetEnd, len(target)-rest)
	return clip(patch), read
}

// maxLocal bounds the base windows MakeShared indexes between runs in a
// list it searches whole at every target position; past it, it indexes
// the whole middle.
const maxLocal = 32

// localWindow is an aligned base window MakeShared indexes between runs.
type localWindow struct {
	off  int
	hash uint64
}

// scan is MakeShared's matcher and its greedy scan's state: the target
// position, the start of the pending insert, and the best copy found at
// the position so far.
type scan struct {
	matcher
	i, insertStart              int
	bestOff, bestStart, bestLen int
}

// consider offers the base window at off as a copy of the target window
// at s.i, extended both ways; known says the window is a run's, equal
// without a compare. The longest copy wins, the first offered on a tie.
func (s *scan) consider(off int, known bool) {
	if !known && !bytes.Equal(s.base[off:off+blockSize], s.target[s.i:s.i+blockSize]) {
		return
	}
	fwd, _ := s.forward(off+blockSize, s.i+blockSize)
	// Backward only into the pending insert run.
	back, _ := s.backward(off, s.i, 0, s.insertStart)
	if l := blockSize + fwd + back; l > s.bestLen {
		s.bestOff, s.bestStart, s.bestLen = off-back, s.i-back, l
	}
}

// runWindow returns the base window in Make's index, n windows from lo,
// that run k lines the target window at s.i up with, when the run holds
// that target window whole; else -1.
func (s *scan) runWindow(k, lo, n int) int {
	if k == len(s.runs) {
		return -1
	}
	r := s.runs[k]
	if w := r.Off + s.i - r.At; r.At <= s.i && s.i+blockSize <= r.At+r.Len &&
		w%blockSize == 0 && w >= lo && w < lo+n*blockSize {
		return w
	}
	return -1
}

// offerLocal offers the local windows whose hash is window's, and the
// run's window runOff when it is one, in base order, as Make's chains
// offer theirs.
func (s *scan) offerLocal(local []localWindow, window []byte, runOff int) {
	h := blockHash(window)
	for _, lw := range local {
		if runOff >= 0 && runOff < lw.off {
			s.consider(runOff, true)
			runOff = -1
		}
		if lw.hash == h {
			s.consider(lw.off, false)
		}
	}
	if runOff >= 0 {
		s.consider(runOff, true)
	}
}

// matcher compares base and target knowing runs, the stretches of target
// copied from base: ascending, in bounds, not overlapping, none empty.
type matcher struct {
	base, target []byte
	runs         []CopyRun
}

// checkRuns returns runs when they are what matcher needs for a base and
// a target of these lengths, and nil otherwise.
func checkRuns(runs []CopyRun, baseLen, targetLen int) []CopyRun {
	end := 0
	for _, r := range runs {
		if r.Len <= 0 || r.At < end || r.Off < 0 || r.Len > targetLen-r.At || r.Len > baseLen-r.Off {
			return nil
		}
		end = r.At + r.Len
	}
	return runs
}

// runBefore returns the index of the last run that starts before target
// offset t, or -1.
func (m *matcher) runBefore(t int) int {
	lo, hi := 0, len(m.runs)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); m.runs[h].At < t {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo - 1
}

// forward returns the length of the longest common prefix of base[b:] and
// target[t:], and how many of its bytes it compared: a run that lines
// the two up where the prefix has reached is skipped to its end.
func (m *matcher) forward(b, t int) (n, compared int) {
	limit := min(len(m.base)-b, len(m.target)-t)
	k := max(m.runBefore(t+1), 0) // the run holding t, or the next one
	for n < limit {
		stop := limit
		for k < len(m.runs) && m.runs[k].At+m.runs[k].Len <= t+n {
			k++
		}
		if k < len(m.runs) {
			r := m.runs[k]
			switch {
			case r.At > t+n:
				stop = min(stop, r.At-t)
			case r.At-r.Off == t-b:
				n = min(r.At+r.Len-t, limit)
				continue
			default:
				stop = min(stop, r.At+r.Len-t)
			}
		}
		c := commonPrefix(m.base[b+n:b+stop], m.target[t+n:t+stop])
		n += c
		compared += c
		if n < stop {
			break
		}
	}
	return n, compared
}

// backward returns the length of the longest common suffix of
// base[blo:b] and target[tlo:t], and how many of its bytes it compared,
// skipping runs as forward does.
func (m *matcher) backward(b, t, blo, tlo int) (n, compared int) {
	limit := min(b-blo, t-tlo)
	k := m.runBefore(t) // the run holding t-1, or the one before it
	for n < limit {
		stop := limit
		for k >= 0 && m.runs[k].At >= t-n {
			k--
		}
		if k >= 0 {
			r := m.runs[k]
			switch {
			case r.At+r.Len < t-n:
				stop = min(stop, t-r.At-r.Len)
			case r.At-r.Off == t-b:
				n = min(t-r.At, limit)
				continue
			default:
				stop = min(stop, t-r.At)
			}
		}
		c := commonSuffix(m.base[b-stop:b-n], m.target[t-stop:t-n])
		n += c
		compared += c
		if n < stop {
			break
		}
	}
	return n, compared
}

// localWindows appends to dst, when a run lies inside the target middle
// [pre, targetEnd), the n aligned base windows from lo that no single
// run's base range holds whole, each with its hash, and reports true;
// it reports false when no run lies there or dst's capacity cannot hold
// them.
func (m *matcher) localWindows(dst []localWindow, lo, n, pre, targetEnd int) ([]localWindow, bool) {
	if !slices.ContainsFunc(m.runs, func(r CopyRun) bool { return r.At < targetEnd && r.At+r.Len > pre }) {
		return dst, false
	}
	var spans [8][2]int
	held := spans[:0] // [first, end) of the windows a run's base range holds
	for _, r := range m.runs {
		if first, end := (r.Off+blockSize-1)/blockSize*blockSize, (r.Off+r.Len)/blockSize*blockSize; first < end {
			held = append(held, [2]int{first, end})
		}
	}
	slices.SortFunc(held, func(x, y [2]int) int { return x[0] - y[0] })
	w, end := lo, lo+n*blockSize
	for _, h := range append(held, [2]int{end, end}) {
		for ; w < min(h[0], end); w += blockSize {
			if len(dst) == cap(dst) {
				return dst, false
			}
			dst = append(dst, localWindow{off: w, hash: blockHash(m.base[w : w+blockSize])})
		}
		w = max(w, h[1])
	}
	return dst, true
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

// windowRange returns the first of the blockSize-aligned windows of a
// baseLen-byte base that overlap base[from:to], and how many there are.
func windowRange(from, to, baseLen int) (lo, n int) {
	lo = from / blockSize * blockSize
	hi := min((to+blockSize-1)/blockSize*blockSize, baseLen/blockSize*blockSize)
	return lo, max(min((hi-lo)/blockSize, math.MaxInt32), 0)
}

// newBlockIndex indexes the n aligned windows of base from lo on. A
// bucket keeps at most maxChainProbe windows of equal content and at most
// maxBucket windows in all; later ones are dropped.
func newBlockIndex(base []byte, lo, n int) blockIndex {
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
