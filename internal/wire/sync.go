// Sync codec: the framing and commit/hello encodings of the replica
// sync protocol. Messages are kind-tagged with length-prefixed fields;
// commit deltas stream as bounded chunks so a sync never materializes one
// history-sized buffer. Every count or length read off the wire is
// validated against a hard cap before it sizes an allocation.

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/store"
)

// FrameKind tags one protocol message.
type FrameKind byte

// Protocol frames. Kinds 1, 2 and 7 belonged to retired dialects (the
// one-shot full-history request and response, and full-state commit
// chunks); they are never reused, so a frame of those kinds is refused
// as an unknown request.
const (
	FrameErr         FrameKind = 3 // error text (any phase)
	FrameHello       FrameKind = 4 // hello + root recon probe
	FrameHelloAck    FrameKind = 5 // hello + root probe answer
	FrameDeltaHeader FrameKind = 6 // head set + announced commit count
	FrameDeltaEnd    FrameKind = 8 // end of commit stream
	// FrameHelloMiss answers a hello for an object the responder does not
	// host (or hosts under a different datatype): the pair skips that
	// object and the session continues with the client's next hello.
	FrameHelloMiss FrameKind = 9
	// FramePackedCommits is one chunk of a delta: commits whose state
	// travels either whole or as a binary patch against the first
	// parent's state.
	FramePackedCommits FrameKind = 10
	// FrameLinkBatch opens one batch of a link's commit stream, which the
	// dialer writes after its connect session's exchanges: a Hello naming
	// the sender, the object and its datatype, with Head the name of the
	// graft point's head set, followed by a delta of the commits
	// (WriteDeltaPacked) under that same head set. With no field it is a heartbeat: an idle link's proof of life
	// against the reader's idle deadline, followed by nothing.
	FrameLinkBatch FrameKind = 18
	// FrameLanded ends an object's exchange on the serving side: the
	// server, having replied, integrated the client's delta. It carries
	// no field; a server whose integrate fails sends FrameErr instead.
	FrameLanded FrameKind = 19
)

// Version is the sync protocol version. The hello and the span probe
// payloads open with it, so the first frame a peer decodes tells it
// whether the two sides speak the same protocol. Version 4 named head
// sets: a hello's Head is a store.HeadSetHash and a delta header lists
// the set's members. Version 5 keeps that and ends each exchange with
// FrameLanded after the server's reply, so a version-4 peer is refused
// at its first frame instead of leaving the client waiting for a frame
// it never sends. Version 6 keeps the frames and changes what a commit's
// state hash means: the root of the state's chunk tree
// (store.StateAddr), where version 5 hashed the whole encoding. The two
// name the same history with different commit hashes, so a version-5
// peer is refused at its first frame instead of reconciling hashes that
// can never match.
const Version byte = 6

// ErrVersion is wrapped by decoding errors of a payload that opens with
// a protocol version other than Version.
var ErrVersion = errors.New("unsupported protocol version")

// putVersion appends the protocol version byte.
func (w *Writer) putVersion() { w.buf = append(w.buf, Version) }

// checkVersion consumes the protocol version byte; any value but
// Version fails the payload with ErrVersion.
func (r *Reader) checkVersion() {
	if !r.need(1) {
		return
	}
	v := r.buf[r.off]
	r.off++
	if v != Version {
		r.err = fmt.Errorf("%w %d", ErrVersion, v)
	}
}

// Wire limits. Chunk constants shape writes; Max* constants are enforced
// on reads.
const (
	// MaxFieldBytes bounds one message field.
	MaxFieldBytes = 64 << 20
	// maxFields bounds the field count of one message (a hello and its
	// root probe).
	maxFields = 2
	// commitChunkBytes is the target payload size of one
	// FramePackedCommits chunk; WriteDeltaPacked flushes a chunk once it
	// crosses this size.
	commitChunkBytes = 256 << 10
	// commitChunkMax bounds commits per chunk even when states are tiny.
	commitChunkMax = 512
	// MaxDeltaCommits bounds the commit count a delta may announce.
	MaxDeltaCommits = 1 << 20
	// MaxDeltaBytes bounds the cumulative chunk payload of one delta.
	MaxDeltaBytes = 256 << 20
	// maxCommitPrealloc caps slice preallocation sized from a
	// wire-supplied commit count.
	maxCommitPrealloc = 4096
	// maxHashPrealloc caps slice preallocation sized from a wire-supplied
	// hash count.
	maxHashPrealloc = 1024
)

// ErrFraming is wrapped by message-framing failures.
var ErrFraming = errors.New("wire: framing error")

// PeerError is an error the remote side reported over the wire.
type PeerError struct{ Msg string }

// Error renders the peer's message.
func (e *PeerError) Error() string { return "wire: peer error: " + e.Msg }

// FrameMeter is the observability hook of the framing layer: a stream
// that also implements it has every complete framed message reported —
// kind plus total on-the-wire bytes (header, length prefixes, fields).
// ReadMsg and WriteMsg type-assert their stream for it, so metering
// needs no wrapper types and unmetered streams pay one interface check.
type FrameMeter interface {
	FrameRead(kind FrameKind, bytes int)
	FrameWrote(kind FrameKind, bytes int)
}

// WriteMsg frames a message: kind byte, field count, then length-prefixed
// fields.
func WriteMsg(w io.Writer, kind FrameKind, fields ...[]byte) error {
	var hdr []byte
	hdr = append(hdr, byte(kind))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(fields)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	total := len(hdr)
	for _, f := range fields {
		var lp [4]byte
		binary.BigEndian.PutUint32(lp[:], uint32(len(f)))
		if _, err := w.Write(lp[:]); err != nil {
			return err
		}
		if _, err := w.Write(f); err != nil {
			return err
		}
		total += len(lp) + len(f)
	}
	if m, ok := w.(FrameMeter); ok {
		m.FrameWrote(kind, total)
	}
	return nil
}

// fieldChunkBytes bounds how much of an announced field is allocated
// ahead of the bytes actually arriving: a hostile length prefix costs at
// most one chunk of memory, not MaxFieldBytes, because the buffer only
// grows as data is really received.
const fieldChunkBytes = 1 << 20

// readField reads one size-announced field without trusting the
// announcement for allocation: bytes are read in bounded chunks and the
// field grows only as data actually arrives.
func readField(r io.Reader, size int) ([]byte, error) {
	field := make([]byte, 0, min(size, fieldChunkBytes))
	for len(field) < size {
		n := min(size-len(field), fieldChunkBytes)
		start := len(field)
		field = append(field, make([]byte, n)...)
		if _, err := io.ReadFull(r, field[start:]); err != nil {
			return nil, err
		}
	}
	return field, nil
}

// ReadMsg reads one framed message, capping the field count and each
// field's size; a field's bytes are read incrementally, so an announced
// size never drives an allocation larger than the data that actually
// arrives (plus one bounded chunk). Field-count validation per kind is
// the caller's job. A clean end of stream before any header byte
// surfaces as bare io.EOF, so session loops can tell "peer hung up"
// from a framing violation.
func ReadMsg(r io.Reader) (FrameKind, [][]byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: %w", ErrFraming, err)
	}
	kind := FrameKind(hdr[0])
	count := int(binary.BigEndian.Uint32(hdr[1:]))
	if count > maxFields {
		return 0, nil, fmt.Errorf("%w: %d fields exceeds limit", ErrFraming, count)
	}
	fields := make([][]byte, count)
	total := len(hdr)
	for i := range fields {
		var lp [4]byte
		if _, err := io.ReadFull(r, lp[:]); err != nil {
			return 0, nil, fmt.Errorf("%w: %w", ErrFraming, err)
		}
		size := binary.BigEndian.Uint32(lp[:])
		if size > MaxFieldBytes {
			return 0, nil, fmt.Errorf("%w: field of %d bytes exceeds limit", ErrFraming, size)
		}
		// The cause stays in the chain (%w): callers distinguish a framing
		// violation over a healthy connection (hostile bytes) from a read
		// that died of a reset or deadline (plain network trouble).
		field, err := readField(r, int(size))
		if err != nil {
			return 0, nil, fmt.Errorf("%w: %w", ErrFraming, err)
		}
		fields[i] = field
		total += len(lp) + len(field)
	}
	if m, ok := r.(FrameMeter); ok {
		m.FrameRead(kind, total)
	}
	return kind, fields, nil
}

// PutHash appends a fixed-width commit hash.
func (w *Writer) PutHash(h store.Hash) { w.buf = append(w.buf, h[:]...) }

// Hash consumes a fixed-width commit hash.
func (r *Reader) Hash() store.Hash {
	var h store.Hash
	if !r.need(len(h)) {
		return h
	}
	copy(h[:], r.buf[r.off:])
	r.off += len(h)
	return h
}

// PutBytes appends a length-prefixed byte field.
func (w *Writer) PutBytes(b []byte) {
	w.PutLen(len(b))
	w.buf = append(w.buf, b...)
}

// Bytes consumes a length-prefixed byte field.
func (r *Reader) Bytes() []byte {
	n := r.Len(1)
	if r.err != nil || !r.need(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

// Remaining reports the unconsumed payload bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Hello is the negotiation payload of one object's sync: who is asking,
// which named object on the node, the datatype it is expected to hold
// (so mismatched registrations fail cleanly instead of corrupting
// states), and the name of the sender's branch head set.
type Hello struct {
	// Node is the sending node's name.
	Node string
	// Object names the replicated object on the node.
	Object string
	// Datatype is the registered datatype name of the object.
	Datatype string
	// Head is store.HeadSetHash of the sender's branch head set.
	Head store.Hash
}

// EncodeHello serializes a hello (FrameHello / FrameHelloAck payload).
func EncodeHello(h Hello) []byte {
	var w Writer
	w.putVersion()
	w.PutString(h.Node)
	w.PutString(h.Object)
	w.PutString(h.Datatype)
	w.PutHash(h.Head)
	return w.Bytes()
}

// DecodeHello parses a hello payload.
func DecodeHello(b []byte) (Hello, error) {
	r := NewReader(b)
	r.checkVersion()
	var h Hello
	h.Node = r.String()
	h.Object = r.String()
	h.Datatype = r.String()
	h.Head = r.Hash()
	if err := r.Close(); err != nil {
		return Hello{}, err
	}
	return h, nil
}

// State-form tags of the packed commit encoding.
const (
	stateFull  = 0 // full encoded state follows
	statePatch = 1 // binary patch against the first parent's state follows
)

// appendPackedCommit serializes one commit in the packed form: parents,
// a form byte, the state or patch bytes, then generation and timestamp.
func appendPackedCommit(w *Writer, c store.ExportedCommit) {
	w.PutLen(len(c.Parents))
	for _, p := range c.Parents {
		w.PutHash(p)
	}
	if c.Patch != nil {
		w.buf = append(w.buf, statePatch)
		w.PutBytes(c.Patch)
	} else {
		w.buf = append(w.buf, stateFull)
		w.PutBytes(c.State)
	}
	w.PutInt64(int64(c.Gen))
	w.PutTimestamp(c.Time)
}

// readPackedCommit deserializes one packed-form commit.
func readPackedCommit(r *Reader) store.ExportedCommit {
	var c store.ExportedCommit
	np := r.Len(len(store.Hash{}))
	if np > 0 {
		c.Parents = make([]store.Hash, 0, min(np, 4))
		for i := 0; i < np; i++ {
			c.Parents = append(c.Parents, r.Hash())
		}
	}
	if !r.need(1) {
		return c
	}
	form := r.buf[r.off]
	r.off++
	switch form {
	case stateFull:
		c.State = r.Bytes()
	case statePatch:
		if c.Patch = r.Bytes(); len(c.Patch) == 0 && r.err == nil {
			// No valid patch is empty, and a nil Patch would read back as
			// a full state; reject rather than mistranslate.
			r.err = fmt.Errorf("%w: empty patch field", ErrMalformed)
		}
	default:
		r.err = fmt.Errorf("%w: unknown state form %d", ErrMalformed, form)
	}
	c.Gen = int(r.Int64())
	c.Time = r.Timestamp()
	return c
}

// WriteDeltaPacked streams a commit delta: a header frame announcing the
// head set and commit count, then FramePackedCommits chunks of bounded
// size, each commit shipping either its full state or a patch against its
// first parent, then an end frame. The caller's slice is never
// re-buffered whole.
func WriteDeltaPacked(w io.Writer, commits []store.ExportedCommit, heads []store.Hash) error {
	var hdr Writer
	hdr.PutLen(len(heads))
	for _, h := range heads {
		hdr.PutHash(h)
	}
	hdr.PutLen(len(commits))
	if err := WriteMsg(w, FrameDeltaHeader, hdr.Bytes()); err != nil {
		return err
	}
	for start := 0; start < len(commits); {
		var chunk Writer
		n := 0
		for start+n < len(commits) && n < commitChunkMax && len(chunk.buf) < commitChunkBytes {
			appendPackedCommit(&chunk, commits[start+n])
			n++
		}
		if err := WriteMsg(w, FramePackedCommits, chunk.Bytes()); err != nil {
			return err
		}
		start += n
	}
	return WriteMsg(w, FrameDeltaEnd)
}

// ReadDelta consumes one delta stream and returns the commits and head
// set. The announced counts, cumulative chunk bytes, and per-chunk
// contents are all length-checked; a FrameErr from the peer surfaces as
// *PeerError.
func ReadDelta(r io.Reader) ([]store.ExportedCommit, []store.Hash, error) {
	kind, fields, err := ReadMsg(r)
	if err != nil {
		return nil, nil, err
	}
	if kind == FrameErr {
		return nil, nil, peerErr(fields)
	}
	if kind != FrameDeltaHeader || len(fields) != 1 {
		return nil, nil, fmt.Errorf("%w: expected delta header, got kind %d", ErrFraming, kind)
	}
	hr := NewReader(fields[0])
	// Len bounds the count by the bytes that follow it.
	heads := make([]store.Hash, hr.Len(len(store.Hash{})))
	for i := range heads {
		heads[i] = hr.Hash()
	}
	total := hr.Len(0)
	if err := hr.Close(); err != nil {
		return nil, nil, err
	}
	if len(heads) == 0 {
		return nil, nil, fmt.Errorf("%w: delta announces no head", ErrFraming)
	}
	if total > MaxDeltaCommits {
		return nil, nil, fmt.Errorf("%w: delta announces %d commits, limit %d", ErrFraming, total, MaxDeltaCommits)
	}
	commits := make([]store.ExportedCommit, 0, min(total, maxCommitPrealloc))
	bytesRead := 0
	for {
		kind, fields, err := ReadMsg(r)
		if err != nil {
			return nil, nil, err
		}
		switch kind {
		case FramePackedCommits:
			if len(fields) != 1 {
				return nil, nil, fmt.Errorf("%w: commit chunk wants 1 field, got %d", ErrFraming, len(fields))
			}
			bytesRead += len(fields[0])
			if bytesRead > MaxDeltaBytes {
				return nil, nil, fmt.Errorf("%w: delta exceeds %d bytes", ErrFraming, MaxDeltaBytes)
			}
			cr := NewReader(fields[0])
			for cr.Remaining() > 0 {
				c := readPackedCommit(cr)
				if err := cr.Err(); err != nil {
					return nil, nil, err
				}
				if len(commits) >= total {
					return nil, nil, fmt.Errorf("%w: more commits than the %d announced", ErrFraming, total)
				}
				commits = append(commits, c)
			}
		case FrameDeltaEnd:
			if len(commits) != total {
				return nil, nil, fmt.Errorf("%w: got %d commits, %d announced", ErrFraming, len(commits), total)
			}
			return commits, heads, nil
		case FrameErr:
			return nil, nil, peerErr(fields)
		default:
			return nil, nil, fmt.Errorf("%w: unexpected kind %d in delta stream", ErrFraming, kind)
		}
	}
}

func peerErr(fields [][]byte) error {
	msg := "unspecified"
	if len(fields) > 0 {
		msg = string(fields[0])
	}
	return &PeerError{Msg: msg}
}
