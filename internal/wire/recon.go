// Recon codec: the range-fingerprint set-reconciliation frames of the
// sync protocol. A client probes a hash range with its fingerprint and
// count; the server answers with a match, an empty-range marker, the
// range's items, or a split into two fingerprinted halves. Recursion on
// mismatched halves resolves the exact symmetric difference in
// O(diff · log n) frames, after which a want list and an exact delta
// finish the exchange. As everywhere in this package, every count read
// off the wire is validated before it sizes an allocation.

package wire

import (
	"fmt"
	"io"

	"repro/internal/recon"
	"repro/internal/store"
)

// Recon frames. The probe/answer pairs reference
// half-open hash ranges [x, y) where a zero y means "unbounded above"
// (so the zero pair spans the whole keyspace).
const (
	// FrameReconFP probes a range: x, y, fingerprint, count.
	FrameReconFP FrameKind = 11
	// FrameReconMatch answers a probe whose fingerprint and count both
	// matched: the ranges hold identical sets. No payload.
	FrameReconMatch FrameKind = 12
	// FrameReconEmptyRange answers a probe for a range the responder
	// holds nothing in: everything the prober has there is missing on the
	// responder. No payload.
	FrameReconEmptyRange FrameKind = 13
	// FrameReconItems answers a probe by enumerating the responder's
	// items in the range (sent when the count is small enough that
	// enumeration beats recursion).
	FrameReconItems FrameKind = 14
	// FrameReconSplit answers a probe by splitting the range at a median
	// item: mid, then fingerprint and count of [x, mid) and [mid, y).
	FrameReconSplit FrameKind = 15
	// FrameReconWant closes the descent: the exact commit hashes the
	// sender is missing. The receiver answers with a delta stream
	// containing those commits (plus any it installed during the
	// exchange).
	FrameReconWant FrameKind = 16
	// FrameReconSpan probes a whole node pair at once: a fingerprint
	// folded over every hosted object's commit set, name and head, plus
	// the total commit count. A matching responder answers
	// FrameReconMatch — one round trip to confirm a converged mesh pair —
	// and a differing one answers with its own span, telling the prober
	// to run per-object syncs.
	FrameReconSpan FrameKind = 17
)

// MaxReconItems bounds the item count of one FrameReconItems payload; a
// responder enumerates only small ranges, so a larger announcement is a
// protocol violation, not a big allocation.
const MaxReconItems = 4096

// PutFingerprint appends a fixed-width range fingerprint.
func (w *Writer) PutFingerprint(f recon.Fingerprint) { w.buf = append(w.buf, f[:]...) }

// PutItem appends a fixed-width recon key (locality prefix ‖ address).
func (w *Writer) PutItem(it recon.Item) { w.buf = append(w.buf, it[:]...) }

// Item consumes a fixed-width recon key.
func (r *Reader) Item() recon.Item {
	var it recon.Item
	if !r.need(len(it)) {
		return it
	}
	copy(it[:], r.buf[r.off:])
	r.off += len(it)
	return it
}

// Fingerprint consumes a fixed-width range fingerprint.
func (r *Reader) Fingerprint() recon.Fingerprint {
	var f recon.Fingerprint
	if !r.need(len(f)) {
		return f
	}
	copy(f[:], r.buf[r.off:])
	r.off += len(f)
	return f
}

// ReconRange is a fingerprinted key range: the FrameReconFP payload, and
// twice over the FrameReconSplit payload.
type ReconRange struct {
	X, Y  recon.Item
	FP    recon.Fingerprint
	Count int
}

// EncodeReconRange serializes a range probe (FrameReconFP payload).
func EncodeReconRange(rr ReconRange) []byte {
	var w Writer
	w.PutItem(rr.X)
	w.PutItem(rr.Y)
	w.PutFingerprint(rr.FP)
	w.PutLen(rr.Count)
	return w.Bytes()
}

// DecodeReconRange parses a range probe.
func DecodeReconRange(b []byte) (ReconRange, error) {
	r := NewReader(b)
	var rr ReconRange
	rr.X = r.Item()
	rr.Y = r.Item()
	rr.FP = r.Fingerprint()
	rr.Count = r.Len(0)
	if err := r.Close(); err != nil {
		return ReconRange{}, err
	}
	if rr.Count > MaxDeltaCommits {
		return ReconRange{}, fmt.Errorf("%w: range announces %d items, limit %d", ErrMalformed, rr.Count, MaxDeltaCommits)
	}
	return rr, nil
}

// ReconSplit is a range bisected at a median item, each half
// fingerprinted: the FrameReconSplit payload. The halves are [x, Mid)
// and [Mid, y) of the probed range.
type ReconSplit struct {
	Mid              recon.Item
	FPLo, FPHi       recon.Fingerprint
	CountLo, CountHi int
}

// EncodeReconSplit serializes a split answer.
func EncodeReconSplit(sp ReconSplit) []byte {
	var w Writer
	w.PutItem(sp.Mid)
	w.PutFingerprint(sp.FPLo)
	w.PutLen(sp.CountLo)
	w.PutFingerprint(sp.FPHi)
	w.PutLen(sp.CountHi)
	return w.Bytes()
}

// DecodeReconSplit parses a split answer.
func DecodeReconSplit(b []byte) (ReconSplit, error) {
	r := NewReader(b)
	var sp ReconSplit
	sp.Mid = r.Item()
	sp.FPLo = r.Fingerprint()
	sp.CountLo = r.Len(0)
	sp.FPHi = r.Fingerprint()
	sp.CountHi = r.Len(0)
	if err := r.Close(); err != nil {
		return ReconSplit{}, err
	}
	if sp.CountLo > MaxDeltaCommits || sp.CountHi > MaxDeltaCommits {
		return ReconSplit{}, fmt.Errorf("%w: split announces %d+%d items, limit %d", ErrMalformed, sp.CountLo, sp.CountHi, MaxDeltaCommits)
	}
	return sp, nil
}

// EncodeReconItems serializes a range enumeration (FrameReconItems
// payload).
func EncodeReconItems(items []recon.Item) []byte {
	var w Writer
	w.PutLen(len(items))
	for _, it := range items {
		w.PutItem(it)
	}
	return w.Bytes()
}

// DecodeReconItems parses a range enumeration. The count is bounded by
// MaxReconItems and the preallocation by the bytes actually present.
func DecodeReconItems(b []byte) ([]recon.Item, error) {
	r := NewReader(b)
	n := r.Len(len(recon.Item{}))
	if r.Err() == nil && n > MaxReconItems {
		return nil, fmt.Errorf("%w: %d items exceeds limit %d", ErrMalformed, n, MaxReconItems)
	}
	out := make([]recon.Item, 0, min(n, maxHashPrealloc))
	for i := 0; i < n; i++ {
		out = append(out, r.Item())
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReconAnswer is a responder's answer to one range probe: Match and
// EmptyRange carry nothing, Items the responder's members of the range,
// Split its bisection. It travels as a frame of its own kind in reply to
// a FrameReconFP, or — for the root probe a hello carries — as the hello
// ack's second field (EncodeReconAnswer).
type ReconAnswer struct {
	Kind  FrameKind
	Items []recon.Item
	Split ReconSplit
}

// payload returns the answer's single frame field, nil for the kinds
// that carry none.
func (a ReconAnswer) payload() []byte {
	switch a.Kind {
	case FrameReconItems:
		return EncodeReconItems(a.Items)
	case FrameReconSplit:
		return EncodeReconSplit(a.Split)
	}
	return nil
}

// WriteReconAnswer frames an answer as its own message.
func WriteReconAnswer(w io.Writer, a ReconAnswer) error {
	if p := a.payload(); p != nil {
		return WriteMsg(w, a.Kind, p)
	}
	return WriteMsg(w, a.Kind)
}

// ParseReconAnswer validates a frame read in reply to a probe and
// decodes its payload. Any kind but the four answers is refused.
func ParseReconAnswer(kind FrameKind, fields [][]byte) (ReconAnswer, error) {
	want := 1
	switch kind {
	case FrameReconMatch, FrameReconEmptyRange:
		want = 0
	case FrameReconItems, FrameReconSplit:
	default:
		return ReconAnswer{}, fmt.Errorf("%w: kind %d is not a recon answer", ErrMalformed, kind)
	}
	if len(fields) != want {
		return ReconAnswer{}, fmt.Errorf("%w: answer kind %d carries %d fields, want %d", ErrMalformed, kind, len(fields), want)
	}
	a := ReconAnswer{Kind: kind}
	var err error
	switch kind {
	case FrameReconItems:
		a.Items, err = DecodeReconItems(fields[0])
	case FrameReconSplit:
		a.Split, err = DecodeReconSplit(fields[0])
	}
	if err != nil {
		return ReconAnswer{}, err
	}
	return a, nil
}

// EncodeReconAnswer serializes an answer into one field: the kind byte,
// then the payload the standalone frame would carry.
func EncodeReconAnswer(a ReconAnswer) []byte {
	return append([]byte{byte(a.Kind)}, a.payload()...)
}

// DecodeReconAnswer parses an EncodeReconAnswer field with the same
// checks as ParseReconAnswer; bytes after a payload-free kind are
// refused.
func DecodeReconAnswer(b []byte) (ReconAnswer, error) {
	if len(b) == 0 {
		return ReconAnswer{}, fmt.Errorf("%w: empty recon answer", ErrMalformed)
	}
	kind, rest := FrameKind(b[0]), b[1:]
	var fields [][]byte
	if kind == FrameReconItems || kind == FrameReconSplit {
		fields = [][]byte{rest}
	} else if len(rest) > 0 {
		return ReconAnswer{}, fmt.Errorf("%w: %d trailing bytes after answer kind %d", ErrMalformed, len(rest), kind)
	}
	return ParseReconAnswer(kind, fields)
}

// EncodeReconWant serializes the want list that ends a descent
// (FrameReconWant payload).
func EncodeReconWant(want []store.Hash) []byte {
	var w Writer
	w.PutLen(len(want))
	for _, h := range want {
		w.PutHash(h)
	}
	return w.Bytes()
}

// DecodeReconWant parses a want list. The count is bounded by
// MaxDeltaCommits — a want can legitimately span a whole diverged
// history — with preallocation still capped independently.
func DecodeReconWant(b []byte) ([]store.Hash, error) {
	r := NewReader(b)
	n := r.Len(len(store.Hash{}))
	if r.Err() == nil && n > MaxDeltaCommits {
		return nil, fmt.Errorf("%w: want of %d commits exceeds limit %d", ErrMalformed, n, MaxDeltaCommits)
	}
	out := make([]store.Hash, 0, min(n, maxHashPrealloc))
	for i := 0; i < n; i++ {
		out = append(out, r.Hash())
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReconSpan is a whole-node digest: the fold of every hosted object's
// commit-set fingerprint, name and head, plus the total commit count
// (the FrameReconSpan payload, which opens with the protocol version).
type ReconSpan struct {
	FP    recon.Fingerprint
	Count int
}

// EncodeReconSpan serializes a node-span probe.
func EncodeReconSpan(sp ReconSpan) []byte {
	var w Writer
	w.putVersion()
	w.PutFingerprint(sp.FP)
	w.PutLen(sp.Count)
	return w.Bytes()
}

// DecodeReconSpan parses a node-span probe.
func DecodeReconSpan(b []byte) (ReconSpan, error) {
	r := NewReader(b)
	r.checkVersion()
	var sp ReconSpan
	sp.FP = r.Fingerprint()
	sp.Count = r.Len(0)
	if err := r.Close(); err != nil {
		return ReconSpan{}, err
	}
	return sp, nil
}
