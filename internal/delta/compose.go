package delta

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// Compose returns one patch equivalent to a chain: for every base the
// first patch applies to,
//
//	Apply(base, Compose(p1, …, pn)) == Apply(…Apply(base, p1)…, pn)
//
// and Compose fails, with an error wrapping ErrCorrupt, exactly when that
// sequence of Apply calls would for a base of the announced length. No
// intermediate target is rebuilt: the work is O(opcodes), not O(state).
//
// The top patch's output is mapped down the chain one patch at a time:
// each of its copies, a range of the previous patch's output, is split
// into the literal and copy runs of that patch which produce the range.
// Every patch is walked once, the bottom one — in a store, the largest —
// included. Runs are offsets into the patches, never slices, so the run
// lists hold no pointers for the garbage collector to scan. Their length
// is bounded by the composed target's, as Apply's output is.
//
// The returned slice has cap == len.
func Compose(patches ...[]byte) ([]byte, error) {
	if len(patches) == 0 {
		return nil, fmt.Errorf("%w: nothing to compose", ErrCorrupt)
	}
	sc := scratchPool.Get().(*composeScratch)
	defer scratchPool.Put(sc)
	top := len(patches) - 1
	cur, baseLen, targetLen, err := parseRuns(sc.cur[:0], patches[top], top)
	if err != nil {
		return nil, fmt.Errorf("patch %d: %w", top, err)
	}
	next, tab := sc.next[:0], &sc.tab
	defer func() { sc.cur, sc.next = cur, next }()
	for j := top - 1; j >= 0; j-- {
		var below uint64
		tab.runs, below, tab.targetLen, err = parseRuns(tab.runs[:0], patches[j], j)
		if err != nil {
			return nil, fmt.Errorf("patch %d: %w", j, err)
		}
		if tab.targetLen != baseLen {
			return nil, fmt.Errorf("%w: patch %d builds %d bytes, patch %d is against %d", ErrCorrupt, j, tab.targetLen, j+1, baseLen)
		}
		baseLen = below
		tab.index()
		next = next[:0]
		for _, r := range cur {
			if r.src >= 0 {
				next = appendRun(next, r)
			} else {
				next = tab.mapCopy(next, r.off, r.n)
			}
		}
		cur, next = next, cur
	}

	// The patch is sized first and leaves as one exact-size allocation: a
	// chain-full state's composition carries every literal since its
	// snapshot, up to a quarter of the state, which append's growth would
	// allocate several times over.
	size := uvarintLen(baseLen) + uvarintLen(targetLen)
	for i := 0; i < len(cur); {
		if cur[i].src < 0 {
			size += 1 + uvarintLen(uint64(cur[i].off)) + uvarintLen(uint64(cur[i].n))
			i++
			continue
		}
		n := 0
		for ; i < len(cur) && cur[i].src >= 0; i++ {
			n += cur[i].n
		}
		size += 1 + uvarintLen(uint64(n)) + n
	}
	patch := binary.AppendUvarint(make([]byte, 0, size), baseLen)
	patch = binary.AppendUvarint(patch, targetLen)
	for i := 0; i < len(cur); {
		if cur[i].src < 0 {
			patch = appendCopy(patch, cur[i].off, cur[i].n)
			i++
			continue
		}
		j, n := i, 0
		for ; j < len(cur) && cur[j].src >= 0; j++ {
			n += cur[j].n
		}
		patch = append(patch, opInsert)
		patch = binary.AppendUvarint(patch, uint64(n))
		for ; i < j; i++ {
			r := cur[i]
			patch = append(patch, patches[r.src][r.off:r.off+r.n]...)
		}
	}
	return patch, nil
}

// composeScratch is the run lists of one Compose, kept for the next: a
// store composes a chain each time one fills, and the lists of its
// bottom patch grow with the state. The runs hold offsets, not slices,
// so a pooled list pins no patch.
type composeScratch struct {
	cur, next []run
	tab       runTable
}

var scratchPool = sync.Pool{New: func() any { return new(composeScratch) }}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// run is one stretch of a patch's output, n > 0 bytes long: a copy of the
// patch's base at off when src < 0, else n literal bytes at offset off of
// patches[src].
type run struct {
	src, off, n int
}

// appendRun appends r to runs, extending the last run instead when r
// continues it.
func appendRun(runs []run, r run) []run {
	if k := len(runs) - 1; k >= 0 && runs[k].src == r.src && runs[k].off+runs[k].n == r.off {
		runs[k].n += r.n
		return runs
	}
	return append(runs, r)
}

// runTable is one patch's runs with their output end offsets, the
// lookup mapCopy splits a copy from the patch above through.
type runTable struct {
	runs      []run
	ends      []int
	targetLen uint64
}

// index recomputes ends for the runs parseRuns just filled in.
func (t *runTable) index() {
	t.ends = t.ends[:0]
	end := 0
	for _, r := range t.runs {
		end += r.n
		t.ends = append(t.ends, end)
	}
}

// mapCopy appends the runs of t's output range [off, off+n) to runs. The
// range lies inside the output: parseRuns checked it against the
// announced base length, which Compose checked against t's target.
func (t *runTable) mapCopy(runs []run, off, n int) []run {
	i := sort.SearchInts(t.ends, off+1)
	for n > 0 {
		r := t.runs[i]
		skip := off - (t.ends[i] - r.n)
		take := min(r.n-skip, n)
		runs = appendRun(runs, run{src: r.src, off: r.off + skip, n: take})
		off += take
		n -= take
		i++
	}
	return runs
}

// parseRuns appends the runs of patch, which is patches[src], to runs and
// returns its announced base and target lengths. It validates exactly
// what Apply validates, in the same order, except that copies are checked
// against the announced base length rather than a base in hand.
func parseRuns(runs []run, patch []byte, src int) (out []run, baseLen, targetLen uint64, err error) {
	baseLen, n := binary.Uvarint(patch)
	if n <= 0 {
		return nil, 0, 0, fmt.Errorf("%w: bad base length", ErrCorrupt)
	}
	pos := n
	targetLen, n = binary.Uvarint(patch[pos:])
	if n <= 0 {
		return nil, 0, 0, fmt.Errorf("%w: bad target length", ErrCorrupt)
	}
	if targetLen > MaxTarget {
		return nil, 0, 0, fmt.Errorf("%w: announced target of %d bytes exceeds the %d limit", ErrCorrupt, targetLen, MaxTarget)
	}
	pos += n
	var built uint64
	for pos < len(patch) {
		op := patch[pos]
		pos++
		room := targetLen - built
		switch op {
		case opInsert:
			l, n := binary.Uvarint(patch[pos:])
			if n <= 0 || l > uint64(len(patch)-pos-n) {
				return nil, 0, 0, fmt.Errorf("%w: truncated insert", ErrCorrupt)
			}
			if l > room {
				return nil, 0, 0, fmt.Errorf("%w: output exceeds announced %d bytes", ErrCorrupt, targetLen)
			}
			pos += n
			if l > 0 {
				runs = appendRun(runs, run{src: src, off: pos, n: int(l)})
			}
			pos += int(l)
			built += l
		case opCopy:
			off, n := binary.Uvarint(patch[pos:])
			if n <= 0 {
				return nil, 0, 0, fmt.Errorf("%w: bad copy offset", ErrCorrupt)
			}
			pos += n
			l, n := binary.Uvarint(patch[pos:])
			if n <= 0 {
				return nil, 0, 0, fmt.Errorf("%w: bad copy length", ErrCorrupt)
			}
			pos += n
			if off > baseLen || l > baseLen-off {
				return nil, 0, 0, fmt.Errorf("%w: copy [%d,%d) outside %d-byte base", ErrCorrupt, off, off+l, baseLen)
			}
			if l > room {
				return nil, 0, 0, fmt.Errorf("%w: output exceeds announced %d bytes", ErrCorrupt, targetLen)
			}
			if l > 0 {
				runs = appendRun(runs, run{src: -1, off: int(off), n: int(l)})
			}
			built += l
		default:
			return nil, 0, 0, fmt.Errorf("%w: unknown opcode %#x", ErrCorrupt, op)
		}
	}
	if built != targetLen {
		return nil, 0, 0, fmt.Errorf("%w: output is %d bytes, %d announced", ErrCorrupt, built, targetLen)
	}
	return runs, baseLen, targetLen, nil
}

// CopyRun is a stretch of a target copied from its base:
// target[At:At+Len] is base[Off:Off+Len]. CopyRuns reads a patch's; an
// encoder that copied them hands them to MakeShared.
type CopyRun struct {
	At, Off, Len int
}

// CopyRuns appends patch's copy runs to dst in target order, and returns
// them with the base length the patch announces. It validates the patch
// as Compose does, so it fails exactly where Apply would on a base of
// that length. Adjacent copies of adjacent base bytes come back as one
// run.
func CopyRuns(dst []CopyRun, patch []byte) ([]CopyRun, int, error) {
	sc := scratchPool.Get().(*composeScratch)
	defer scratchPool.Put(sc)
	runs, baseLen, _, err := parseRuns(sc.cur[:0], patch, 0)
	if err != nil {
		return dst, 0, err
	}
	sc.cur = runs
	at := 0
	for _, r := range runs {
		if r.src < 0 {
			dst = append(dst, CopyRun{At: at, Off: r.off, Len: r.n})
		}
		at += r.n
	}
	return dst, int(baseLen), nil
}
