// Package wire provides compact binary codecs for every MRDT state in the
// library. The versioned store uses encoding for content addressing and
// space accounting; the network replication layer (peepul)
// additionally needs decoding to ship states between geo-distributed
// replicas, which is how the paper's system model deploys MRDTs (replicas
// exchange branch states, not operations).
//
// The format is deliberately simple: fixed-width big-endian integers and
// length-prefixed strings, concatenated in state order. Every Decode
// validates lengths and returns an error on truncated or trailing input.
// The or-set-space, or-set-spacetime, log and PN-counter codecs also
// have Check, which the store calls instead of a round trip: Check(b) is nil
// exactly when Decode(b) succeeds and re-encodes to b, and it allocates
// nothing. The two OR-set codecs and the log also have the store's edit form,
// CheckEdit(enc, base, runs), Check for an encoding a patch built from
// a canonical base, given the runs it copies from base: it compares a
// pair with its predecessor only where the two are not both inside one
// run that keeps base's pair boundaries, so an import checks a patched
// state in the work of the edit. The log's CheckEdit reads, for an
// append's shape — one run copying all of base's entries to the end —
// only the count, the new entries and the seam. The same four codecs have
// the store's append form, AppendEncode(dst, inPlace, next, prev,
// prevEnc, runs), which writes Encode(next) at the end of a buffer the
// store recycles, may leave unwritten the inPlace bytes at its end that
// a run from prevEnc's end covers, and appends to runs each run of it
// copied from prevEnc, prev's encoding: the log copies the entries an
// append leaves in place and writes none of the bytes in place, the two
// OR-sets copy the pairs around the one pair an add, a refresh or a
// remove changed and write their whole encoding, and the counter encodes
// next whole and reports none. Their Decode and Check keep no part of their
// input (strings are copied), the condition on which the store may
// overwrite a buffer they have read.
// The g-set, g-map, or-set, or-set-space, or-set-spacetime and log
// codecs reject a state out of the order their datatype's searches and
// merges rely on.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/store"
)

// ErrMalformed is wrapped by all decoding errors.
var ErrMalformed = errors.New("wire: malformed payload")

// Codec serializes and deserializes states of type S. It is the store's
// codec interface: one codec value serves content addressing, import
// round-trips and wire transfer alike.
type Codec[S any] = store.Codec[S]

// Writer accumulates a payload.
type Writer struct {
	buf []byte
}

// sizedWriter returns a Writer with room for exactly n bytes. A codec that
// sizes its output first encodes in one allocation and returns a slice
// with cap == len, so the snapshots the store keeps resident carry no
// slack.
func sizedWriter(n int) Writer { return Writer{buf: make([]byte, 0, n)} }

// grow returns dst with room for n more bytes. A buffer too small is
// replaced by one of the size needed, rounded up only to the allocator's
// size class (slices.Grow of an empty slice), which takes no memory the
// allocation would not take anyway.
func grow(dst []byte, n int) []byte {
	if n <= cap(dst)-len(dst) {
		return dst
	}
	return append(slices.Grow([]byte(nil), len(dst)+n), dst...)
}

// recycled returns the buffer store.Codec's append form writes an n-byte
// encoding at the end of, and how many bytes at its end are known to
// hold the encoding's already: dst and inPlace when dst has room, else a
// new buffer with an eighth more room in front, for the states after
// this one, and none.
func recycled(dst []byte, n, inPlace int) ([]byte, int) {
	if n <= len(dst) {
		return dst, inPlace
	}
	b := slices.Grow([]byte(nil), n+n/8)
	return b[:cap(b)], 0
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// PutInt64 appends a fixed-width integer.
func (w *Writer) PutInt64(v int64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v))
}

// PutTimestamp appends a timestamp.
func (w *Writer) PutTimestamp(t core.Timestamp) { w.PutInt64(int64(t)) }

// PutBool appends a boolean.
func (w *Writer) PutBool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// PutString appends a length-prefixed string.
func (w *Writer) PutString(s string) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// PutLen appends a collection length.
func (w *Writer) PutLen(n int) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(n))
}

// Reader consumes a payload.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrMalformed, n, r.off, len(r.buf))
		return false
	}
	return true
}

// Int64 consumes a fixed-width integer.
func (r *Reader) Int64() int64 {
	if !r.need(8) {
		return 0
	}
	v := int64(binary.BigEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// Timestamp consumes a timestamp.
func (r *Reader) Timestamp() core.Timestamp { return core.Timestamp(r.Int64()) }

// Bool consumes a boolean.
func (r *Reader) Bool() bool {
	if !r.need(1) {
		return false
	}
	v := r.buf[r.off]
	r.off++
	if v > 1 {
		r.err = fmt.Errorf("%w: bad bool byte %d", ErrMalformed, v)
		return false
	}
	return v == 1
}

// Len consumes a collection length, bounding it by the remaining payload
// so corrupt lengths cannot trigger huge allocations.
func (r *Reader) Len(elemMin int) int {
	if !r.need(4) {
		return 0
	}
	n := int(binary.BigEndian.Uint32(r.buf[r.off:]))
	r.off += 4
	if elemMin > 0 && n > (len(r.buf)-r.off)/elemMin {
		r.err = fmt.Errorf("%w: length %d exceeds remaining payload", ErrMalformed, n)
		return 0
	}
	return n
}

// String consumes a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len(1)
	if r.err != nil || !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// skipString consumes a length-prefixed string without copying it.
func (r *Reader) skipString() {
	if n := r.Len(1); r.err == nil && r.need(n) {
		r.off += n
	}
}

// Close verifies the payload was fully consumed and returns the first
// error.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf)-r.off)
	}
	return nil
}
