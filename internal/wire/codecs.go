package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/alphamap"
	"repro/internal/chat"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/delta"
	"repro/internal/ewflag"
	"repro/internal/gmap"
	"repro/internal/gset"
	"repro/internal/lwwreg"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/queue"
)

// IncCounter is the codec for the increment-only counter.
type IncCounter struct{}

// Encode serializes the counter.
func (IncCounter) Encode(s int64) []byte {
	var w Writer
	w.PutInt64(s)
	return w.Bytes()
}

// Decode deserializes the counter.
func (IncCounter) Decode(b []byte) (int64, error) {
	r := NewReader(b)
	v := r.Int64()
	return v, r.Close()
}

// PNCounter is the codec for the PN-counter.
type PNCounter struct{}

// Encode serializes the PN-counter.
func (c PNCounter) Encode(s counter.PNState) []byte {
	enc, _ := c.AppendEncode(make([]byte, 0, c.encodedLen(s)), s, counter.PNState{}, nil, nil)
	return enc
}

func (PNCounter) encodedLen(counter.PNState) int { return 16 }

// AppendEncode appends Encode(next) to dst (store.Codec's append form).
// The state is two integers, so nothing of prev is worth copying, and it
// reports no run.
func (c PNCounter) AppendEncode(dst []byte, next, _ counter.PNState, _ []byte, runs []delta.CopyRun) ([]byte, []delta.CopyRun) {
	w := Writer{buf: grow(dst, c.encodedLen(next))}
	w.PutInt64(next.P)
	w.PutInt64(next.N)
	return w.Bytes(), runs
}

// Check reports whether b is a PN-counter encoding: exactly two
// integers. Every such buffer decodes and re-encodes to itself.
func (PNCounter) Check(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("%w: pn-counter of %d bytes, want 16", ErrMalformed, len(b))
	}
	return nil
}

// Decode deserializes the PN-counter.
func (PNCounter) Decode(b []byte) (counter.PNState, error) {
	r := NewReader(b)
	s := counter.PNState{P: r.Int64(), N: r.Int64()}
	return s, r.Close()
}

// DWFlag is the codec for the disable-wins flag.
type DWFlag struct{}

// Encode serializes the flag.
func (DWFlag) Encode(s ewflag.DWState) []byte {
	var w Writer
	w.PutInt64(s.Disables)
	w.PutBool(s.Flag)
	return w.Bytes()
}

// Decode deserializes the flag.
func (DWFlag) Decode(b []byte) (ewflag.DWState, error) {
	r := NewReader(b)
	s := ewflag.DWState{Disables: r.Int64(), Flag: r.Bool()}
	return s, r.Close()
}

// EWFlag is the codec for the enable-wins flag.
type EWFlag struct{}

// Encode serializes the flag.
func (EWFlag) Encode(s ewflag.State) []byte {
	var w Writer
	w.PutInt64(s.Enables)
	w.PutBool(s.Flag)
	return w.Bytes()
}

// Decode deserializes the flag.
func (EWFlag) Decode(b []byte) (ewflag.State, error) {
	r := NewReader(b)
	s := ewflag.State{Enables: r.Int64(), Flag: r.Bool()}
	return s, r.Close()
}

// LWWReg is the codec for the last-writer-wins register.
type LWWReg struct{}

// Encode serializes the register.
func (LWWReg) Encode(s lwwreg.State) []byte {
	var w Writer
	w.PutTimestamp(s.T)
	w.PutInt64(s.V)
	return w.Bytes()
}

// Decode deserializes the register.
func (LWWReg) Decode(b []byte) (lwwreg.State, error) {
	r := NewReader(b)
	s := lwwreg.State{T: r.Timestamp(), V: r.Int64()}
	return s, r.Close()
}

// GSet is the codec for the grow-only set.
type GSet struct{}

// Encode serializes the set.
func (GSet) Encode(s gset.State) []byte {
	w := sizedWriter(4 + 8*len(s))
	w.PutLen(len(s))
	for _, e := range s {
		w.PutInt64(e)
	}
	return w.Bytes()
}

// Decode deserializes the set.
func (GSet) Decode(b []byte) (gset.State, error) {
	r := NewReader(b)
	n := r.Len(8)
	s := make(gset.State, 0, n)
	for i := 0; i < n; i++ {
		if s = append(s, r.Int64()); i > 0 && s[i] <= s[i-1] && r.err == nil {
			return nil, orderError("set element", i)
		}
	}
	return s, r.Close()
}

// GMap is the codec for the grow-only map.
type GMap struct{}

// Encode serializes the map.
func (GMap) Encode(s gmap.State) []byte {
	n := 4 + 20*len(s)
	for _, e := range s {
		n += len(e.K)
	}
	w := sizedWriter(n)
	w.PutLen(len(s))
	for _, e := range s {
		w.PutString(e.K)
		w.PutTimestamp(e.T)
		w.PutInt64(e.V)
	}
	return w.Bytes()
}

// Decode deserializes the map.
func (GMap) Decode(b []byte) (gmap.State, error) {
	r := NewReader(b)
	n := r.Len(20)
	s := make(gmap.State, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, gmap.Entry{K: r.String(), T: r.Timestamp(), V: r.Int64()})
		if i > 0 && s[i].K <= s[i-1].K && r.err == nil {
			return nil, orderError("map key", i)
		}
	}
	return s, r.Close()
}

// MLog is the codec for the mergeable log.
type MLog struct{}

// Encode serializes the log.
func (c MLog) Encode(s mlog.State) []byte {
	enc, _ := c.AppendEncode(make([]byte, 0, c.encodedLen(s)), s, nil, nil, nil)
	return enc
}

func (MLog) encodedLen(s mlog.State) int {
	n := 4 + 12*len(s)
	for _, e := range s {
		n += len(e.Msg)
	}
	return n
}

// AppendEncode appends Encode(next) to dst (store.Codec's append form).
// When prevEnc is non-nil it is Encode(prev): the entries next shares
// with prev at its end — after an append, all of prev — are copied from
// prevEnc as one run, and only the entries before them are encoded. It
// appends that run, the encoding's last bytes, to runs.
//
// When next's last len(prev) entries are prev's own memory, as after
// appends to prev (mlog's shared blocks), they are shared with no walk.
// Otherwise an entry is shared when its timestamp and message are prev's;
// a message both states point at is not compared byte by byte.
func (c MLog) AppendEncode(dst []byte, next, prev mlog.State, prevEnc []byte, runs []delta.CopyRun) ([]byte, []delta.CopyRun) {
	shared, tail := 0, 0 // entries and encoded bytes at the end of both
	switch {
	case prevEnc == nil || len(prevEnc) < 4:
	case len(prev) > 0 && len(prev) <= len(next) &&
		unsafe.SliceData(next[len(next)-len(prev):]) == unsafe.SliceData(prev):
		shared, tail = len(prev), len(prevEnc)-4
	default:
		for shared < len(next) && shared < len(prev) {
			a, b := next[len(next)-1-shared], prev[len(prev)-1-shared]
			if a.T != b.T || len(a.Msg) != len(b.Msg) ||
				unsafe.StringData(a.Msg) != unsafe.StringData(b.Msg) && a.Msg != b.Msg {
				break
			}
			shared++
			tail += 12 + len(a.Msg)
		}
		// An encoding too short for the entries is not prev's; then
		// nothing is copied from it.
		if tail > len(prevEnc)-4 {
			shared, tail = 0, 0
		}
	}
	head := next[:len(next)-shared]
	at := len(dst)
	w := Writer{buf: growRecycled(dst, c.encodedLen(head)+tail)}
	w.PutLen(len(next))
	for _, e := range head {
		w.PutTimestamp(e.T)
		w.PutString(e.Msg)
	}
	runs = appendRun(runs, len(w.buf)-at, len(prevEnc)-tail, tail)
	w.buf = append(w.buf, prevEnc[len(prevEnc)-tail:]...)
	return w.Bytes(), runs
}

// Check reports whether b is a canonical log encoding, in one pass
// that allocates nothing: the count, then exactly that many entries in
// strictly descending timestamp order, the log's invariant. Any other
// buffer either fails to decode or decodes to a state that breaks the
// invariant its merge relies on.
func (MLog) Check(b []byte) error {
	r := Reader{buf: b}
	n := r.Len(12)
	var prev core.Timestamp
	for i := 0; i < n && r.err == nil; i++ {
		t := r.Timestamp()
		r.skipString()
		if i > 0 && t >= prev && r.err == nil {
			return orderError("log entry", i)
		}
		prev = t
	}
	return r.Close()
}

// Decode deserializes the log, rejecting what Check rejects.
func (MLog) Decode(b []byte) (mlog.State, error) {
	r := NewReader(b)
	n := r.Len(12)
	s := make(mlog.State, 0, n)
	for i := 0; i < n; i++ {
		e := mlog.Entry{T: r.Timestamp(), Msg: r.String()}
		if i > 0 && e.T >= s[i-1].T && r.err == nil {
			return nil, orderError("log entry", i)
		}
		s = append(s, e)
	}
	return s, r.Close()
}

// pairsLen is the encoded size of n OR-set pairs behind their count.
func pairsLen(n int) int { return 4 + 16*n }

// appendPairs appends the count and the pairs to dst, the Queue codec's
// shape: one growth for the collection, then an indexed loop of
// fixed-width stores.
func appendPairs(dst []byte, ps []orset.Pair) []byte {
	at := len(dst)
	dst = grow(dst, pairsLen(len(ps)))[:at+pairsLen(len(ps))]
	b := dst[at:]
	binary.BigEndian.PutUint32(b, uint32(len(ps)))
	for i, p := range ps {
		binary.BigEndian.PutUint64(b[4+16*i:], uint64(p.E))
		binary.BigEndian.PutUint64(b[12+16*i:], uint64(p.T))
	}
	return dst
}

func encodePairs(ps []orset.Pair) []byte {
	return appendPairs(make([]byte, 0, pairsLen(len(ps))), ps)
}

// decodePairs consumes a count and its pairs: one length check for the
// collection, then an indexed loop of fixed-width loads.
func decodePairs(r *Reader) []orset.Pair {
	n := r.Len(16)
	if !r.need(16 * n) {
		return nil
	}
	b := r.buf[r.off : r.off+16*n]
	r.off += 16 * n
	ps := make([]orset.Pair, n)
	for i := range ps {
		ps[i] = orset.Pair{
			E: int64(binary.BigEndian.Uint64(b[16*i:])),
			T: core.Timestamp(binary.BigEndian.Uint64(b[16*i+8:])),
		}
	}
	return ps
}

// OrSet is the codec for the unoptimized OR-set.
type OrSet struct{}

// Encode serializes the set.
func (OrSet) Encode(s orset.State) []byte { return encodePairs(s) }

// Decode deserializes the set, whose pairs must ascend by (E, T).
func (OrSet) Decode(b []byte) (orset.State, error) {
	r := NewReader(b)
	ps := decodePairs(r)
	for i := 1; i < len(ps); i++ {
		if p, q := ps[i-1], ps[i]; q.E < p.E || q.E == p.E && q.T <= p.T {
			return nil, orderError("set pair", i)
		}
	}
	return orset.State(ps), r.Close()
}

// OrSetSpace is the codec for the space-efficient OR-set.
type OrSetSpace struct{}

// Encode serializes the set.
func (OrSetSpace) Encode(s orset.SpaceState) []byte { return encodePairs(s) }

func (OrSetSpace) encodedLen(s orset.SpaceState) int { return pairsLen(len(s)) }

// AppendEncode appends Encode(next) to dst (store.Codec's append form).
// When prevEnc, Encode(prev), is given and next is prev with one pair
// added, replaced or removed — as after an add, a refresh or a remove —
// it copies the pairs on either side of that pair from prevEnc and
// appends those runs to runs; comparing the two sets to find the pair
// reads them at memory speed. Otherwise it encodes next whole and
// reports no run.
func (OrSetSpace) AppendEncode(dst []byte, next, prev orset.SpaceState, prevEnc []byte, runs []delta.CopyRun) ([]byte, []delta.CopyRun) {
	if len(prevEnc) == pairsLen(len(prev)) {
		if k, p, ok := sliceEdit(prev, next); ok {
			return appendPairsEdit(dst, prevEnc, len(next), k, p, runs)
		}
	}
	return appendPairs(growRecycled(dst, pairsLen(len(next))), next), runs
}

// sliceEdit is orset.Edit for sorted slices: whether next is prev with
// at most one pair added, replaced or removed, the first pair the two
// differ in, and next's pair there (zero for a removal).
func sliceEdit(prev, next []orset.Pair) (k int, p orset.Pair, ok bool) {
	grow := len(next) - len(prev)
	if grow < -1 || grow > 1 {
		return 0, p, false
	}
	k = samePairs(prev, next)
	switch {
	case grow == 1:
		return k, next[k], bytes.Equal(pairBytes(next[k+1:]), pairBytes(prev[k:]))
	case grow == -1:
		return k, p, bytes.Equal(pairBytes(next[k:]), pairBytes(prev[k+1:]))
	case k == len(next):
		return k, p, true
	default:
		return k, next[k], bytes.Equal(pairBytes(next[k+1:]), pairBytes(prev[k+1:]))
	}
}

// samePairs returns how many pairs a and b begin with in common.
func samePairs(a, b []orset.Pair) int {
	const chunk = 64 // pairs compared at once
	n := min(len(a), len(b))
	k := 0
	for k+chunk <= n && bytes.Equal(pairBytes(a[k:k+chunk]), pairBytes(b[k:k+chunk])) {
		k += chunk
	}
	for k < n && a[k] == b[k] {
		k++
	}
	return k
}

// pairBytes is ps's memory: two int64 fields per pair, no padding.
func pairBytes(ps []orset.Pair) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ps))), 16*len(ps))
}

// appendPairsEdit appends to dst the encoding of n pairs that is prevEnc's
// with the pair of rank k added, replaced by p, or removed — which, n
// tells against prevEnc's count — and appends to runs what it copied
// from prevEnc: the pairs before rank k, with the count when it stays,
// and those after. k at prevEnc's count with n equal to it copies
// prevEnc whole.
func appendPairsEdit(dst, prevEnc []byte, n, k int, p orset.Pair, runs []delta.CopyRun) ([]byte, []delta.CopyRun) {
	was := (len(prevEnc) - 4) / 16
	at := len(dst)
	dst = growRecycled(dst, pairsLen(n))[:at+pairsLen(n)]
	enc := dst[at:]
	head := 4 + 16*k // the pairs before rank k end here in both
	from := 4        // the run before the pair starts here
	if n == was {
		from = 0
	} else {
		binary.BigEndian.PutUint32(enc, uint32(n))
	}
	copy(enc[from:head], prevEnc[from:head])
	runs = appendRun(runs, from, from, head-from)
	if n < was || n == was && k == was {
		// A removal, or nothing: the pairs after rank k close up on it.
		rest := head + 16*(was-n)
		copy(enc[head:], prevEnc[rest:])
		return dst, appendRun(runs, head, rest, len(prevEnc)-rest)
	}
	binary.BigEndian.PutUint64(enc[head:], uint64(p.E))
	binary.BigEndian.PutUint64(enc[head+8:], uint64(p.T))
	rest := head + 16*(1-n+was) // after a replaced pair, or where an added one went
	copy(enc[head+16:], prevEnc[rest:])
	return dst, appendRun(runs, head+16, rest, len(prevEnc)-rest)
}

// appendRun appends the run enc[at:at+n] = prevEnc[off:off+n] to runs,
// unless it is empty.
func appendRun(runs []delta.CopyRun, at, off, n int) []delta.CopyRun {
	if n == 0 {
		return runs
	}
	return append(runs, delta.CopyRun{At: at, Off: off, Len: n})
}

// Check reports whether b is a canonical space-efficient OR-set
// encoding, in one pass that allocates nothing: the count, then exactly
// that many pairs in strictly ascending element order, the order the
// set's binary search and linear merge rely on. The pairs are fixed
// width, so every other buffer fails to decode.
func (OrSetSpace) Check(b []byte) error { return checkPairs(b) }

// CheckEdit is Check for an encoding enc that runs copy from base, a
// canonical encoding (store.Codec's edit form): it returns nil exactly
// when Check(enc) does, comparing only what an edit can have put out of
// order (checkPairsEdit).
func (OrSetSpace) CheckEdit(enc, base []byte, runs []delta.CopyRun) error {
	return checkPairsEdit(enc, base, runs)
}

// checkPairs is the OR-set codecs' Check: a count that matches the
// length, and pairs in strictly ascending element order.
func checkPairs(b []byte) error {
	n, err := pairCount(b)
	if err != nil {
		return err
	}
	return pairsAscend(b, 1, n)
}

// checkPairsEdit is checkPairs for an encoding enc whose runs copy from
// base, a canonical encoding: a run that keeps base's pair boundaries
// (At and Off a whole number of pairs apart) holds base's pairs, in
// base's order, so a pair is compared with its predecessor only where
// the two are not both inside one such run — at a run's edges and in the
// literal bytes between runs. After the count, the work is the edit's,
// not the set's.
func checkPairsEdit(enc, base []byte, runs []delta.CopyRun) error {
	n, err := pairCount(enc)
	if err != nil {
		return err
	}
	i := 1 // every pair before i is compared or inside a run with its predecessor
	for _, r := range runs {
		if (r.At-r.Off)%16 != 0 || min(r.At, r.Off, r.Len) < 0 || r.At+r.Len > len(enc) || r.Off+r.Len > len(base) {
			continue
		}
		// The run holds pairs [first, end) whole.
		first, end := (r.At+11)/16, (r.At+r.Len-4)/16
		if end-first < 2 {
			continue
		}
		if err := pairsAscend(enc, i, first+1); err != nil {
			return err
		}
		i = max(i, end)
	}
	return pairsAscend(enc, i, n)
}

// pairCount returns the count b opens with, checking that exactly that
// many pairs follow it.
func pairCount(b []byte) (int, error) {
	r := Reader{buf: b}
	n := r.Len(16)
	if r.need(16 * n) {
		r.off += 16 * n
	}
	return n, r.Close()
}

// pairsAscend checks that each pair of b from rank from to rank to holds
// a larger element than the pair before it.
func pairsAscend(b []byte, from, to int) error {
	from = max(from, 1)
	if from >= to {
		return nil
	}
	prev := int64(binary.BigEndian.Uint64(b[4+16*(from-1):]))
	for i := from; i < to; i++ {
		e := int64(binary.BigEndian.Uint64(b[4+16*i:]))
		if e <= prev {
			return orderError("set pair", i)
		}
		prev = e
	}
	return nil
}

// Decode deserializes the set, rejecting what Check rejects.
func (OrSetSpace) Decode(b []byte) (orset.SpaceState, error) {
	r := NewReader(b)
	ps := decodePairs(r)
	if err := r.Close(); err != nil {
		return nil, err
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].E <= ps[i-1].E {
			return nil, orderError("set pair", i)
		}
	}
	return ps, nil
}

func orderError(item string, i int) error {
	return fmt.Errorf("%w: %s %d is out of order", ErrMalformed, item, i)
}

// OrSetSpaceTime is the codec for the tree-backed OR-set. The tree is
// serialized as its in-order pair sequence and rebuilt perfectly balanced,
// which preserves observable behaviour (the paper's convergence modulo
// observable behaviour makes tree shape unobservable).
type OrSetSpaceTime struct{}

// Encode serializes the set.
func (c OrSetSpaceTime) Encode(s orset.TreeState) []byte {
	enc, _ := c.AppendEncode(make([]byte, 0, c.encodedLen(s)), s, nil, nil, nil)
	return enc
}

func (OrSetSpaceTime) encodedLen(s orset.TreeState) int { return pairsLen(orset.Len(s)) }

// AppendEncode appends Encode(next) to dst (store.Codec's append form),
// as OrSetSpace's does: when prevEnc, Encode(prev), is given and next is
// prev with one pair added, replaced or removed, it copies the pairs
// around that pair from prevEnc and appends those runs to runs. The
// pair and its rank come from orset.Edit, which skips the subtrees next
// shares with prev, so after a Do only the encoding's copy is O(n).
// Otherwise it encodes next whole and reports no run.
func (OrSetSpaceTime) AppendEncode(dst []byte, next, prev orset.TreeState, prevEnc []byte, runs []delta.CopyRun) ([]byte, []delta.CopyRun) {
	n := orset.Len(next)
	if len(prevEnc) == pairsLen(orset.Len(prev)) {
		if k, p, ok := orset.Edit(prev, next); ok {
			return appendPairsEdit(dst, prevEnc, n, k, p, runs)
		}
	}
	w := Writer{buf: growRecycled(dst, pairsLen(n))}
	w.PutLen(n)
	orset.Walk(next, func(p orset.Pair) {
		w.PutInt64(p.E)
		w.PutTimestamp(p.T)
	})
	return w.Bytes(), runs
}

// Check reports whether b is a canonical tree-backed OR-set encoding:
// OrSetSpace's encoding, which Decode rebuilds a balanced tree from and
// Encode walks back in order.
func (OrSetSpaceTime) Check(b []byte) error { return checkPairs(b) }

// CheckEdit is OrSetSpace's: Check in O(edit) for an encoding that runs
// copy from a canonical base.
func (OrSetSpaceTime) CheckEdit(enc, base []byte, runs []delta.CopyRun) error {
	return checkPairsEdit(enc, base, runs)
}

// Decode deserializes the set, whose pairs must ascend strictly by
// element: the tree is rebuilt from them as given, and its searches
// rely on that order.
func (OrSetSpaceTime) Decode(b []byte) (orset.TreeState, error) {
	r := NewReader(b)
	ps := decodePairs(r)
	if err := r.Close(); err != nil {
		return nil, err
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].E <= ps[i-1].E {
			return nil, orderError("set pair", i)
		}
	}
	return orset.BuildBalanced(orset.SpaceState(ps)), nil
}

// Queue is the codec for the replicated functional queue. The queue is
// serialized oldest-first; decoding rebuilds the two-list representation
// with everything in the front list, an observationally equivalent state.
// The merge tells elements apart by enqueue timestamp, so Decode rejects
// a timestamp that repeats. It does not require ascending timestamps:
// a merge puts the elements both sides kept before those either side
// enqueued since their base, so a replica can hold a younger element
// ahead of an older, concurrent one.
type Queue struct{}

// Encode serializes the queue.
func (Queue) Encode(s queue.State) []byte {
	n := s.Len()
	buf := make([]byte, 4+16*n)
	binary.BigEndian.PutUint32(buf, uint32(n))
	s.Walk(func(i int, p queue.Pair) {
		binary.BigEndian.PutUint64(buf[4+16*i:], uint64(p.T))
		binary.BigEndian.PutUint64(buf[12+16*i:], uint64(p.V))
	})
	return buf
}

// Decode deserializes the queue.
func (Queue) Decode(b []byte) (queue.State, error) {
	r := NewReader(b)
	n := r.Len(16)
	ps := make([]queue.Pair, 0, n)
	ts := make([]core.Timestamp, 0, n)
	for i := 0; i < n; i++ {
		p := queue.Pair{T: r.Timestamp(), V: r.Int64()}
		ps = append(ps, p)
		ts = append(ts, p.T)
	}
	if err := r.Close(); err != nil {
		return queue.State{}, err
	}
	slices.Sort(ts)
	for i := 1; i < n; i++ {
		if ts[i] == ts[i-1] {
			return queue.State{}, fmt.Errorf("%w: queue timestamp %d repeats", ErrMalformed, ts[i])
		}
	}
	return queue.FromSlice(ps), nil
}

// AlphaMap is the codec for α-map states over any inner state codec —
// one generic codec serves every composition instance (chat, α-map of
// counters, α-map of OR-sets, …).
type AlphaMap[S any] struct {
	// Inner serializes the value states the map binds.
	Inner InnerCodec[S]
}

// InnerCodec is a Codec of this package (PNCounter, MLog, OrSetSpace,
// OrSetSpaceTime) that can also size its encoding up front,
// encodedLen(s) = len(Encode(s)), and has the append form the store
// encodes commits with (store.Codec), appending the runs it copied to a
// run list — what lets AlphaMap encode a whole map, inner states
// included, in one exact-size allocation, with no prevEnc and so no run.
type InnerCodec[S any] interface {
	Codec[S]
	encodedLen(S) int
	AppendEncode(dst []byte, next, prev S, prevEnc []byte, runs []delta.CopyRun) ([]byte, []delta.CopyRun)
}

// Encode serializes the map as length-prefixed (key, inner payload)
// pairs in binding order.
func (c AlphaMap[S]) Encode(s alphamap.State[S]) []byte {
	n := 4 + 8*len(s)
	for _, e := range s {
		n += len(e.K) + c.Inner.encodedLen(e.V)
	}
	w := sizedWriter(n)
	w.PutLen(len(s))
	var zero S
	for _, e := range s {
		w.PutString(e.K)
		at := len(w.buf)
		w.PutLen(0) // patched below, once the inner payload's length is known
		w.buf, _ = c.Inner.AppendEncode(w.buf, e.V, zero, nil, nil)
		binary.BigEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
	}
	return w.Bytes()
}

// Decode deserializes the map, whose keys must ascend strictly: the
// map's lookups binary-search them.
func (c AlphaMap[S]) Decode(b []byte) (alphamap.State[S], error) {
	r := NewReader(b)
	n := r.Len(8)
	s := make(alphamap.State[S], 0, n)
	for i := 0; i < n; i++ {
		k := r.String()
		payload := r.Bytes()
		if r.Err() != nil {
			break
		}
		if i > 0 && k <= s[i-1].K {
			return nil, orderError("map key", i)
		}
		inner, err := c.Inner.Decode(payload)
		if err != nil {
			return nil, err
		}
		s = append(s, alphamap.Entry[S]{K: k, V: inner})
	}
	return s, r.Close()
}

// Chat is the codec for the IRC-style chat (an α-map of mergeable logs).
type Chat struct{}

// Encode serializes the chat state.
func (Chat) Encode(s chat.State) []byte {
	return AlphaMap[mlog.State]{Inner: MLog{}}.Encode(s)
}

// Decode deserializes the chat state.
func (Chat) Decode(b []byte) (chat.State, error) {
	return AlphaMap[mlog.State]{Inner: MLog{}}.Decode(b)
}
