package wire_test

// Frame-reader fuzzing. The sync protocol's first line of defense is
// ReadMsg: every byte a peer sends flows through it before any codec
// sees a payload, so hostile or truncated frames must produce a clean
// error — never a panic, never an allocation sized by an unbacked
// length announcement. The delta codec already has fuzz targets
// (internal/delta); these cover the framing layer above it.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/recon"
	"repro/internal/store"
	"repro/internal/wire"
)

// frame builds a well-formed message for the seed corpus.
func frame(kind wire.FrameKind, fields ...[]byte) []byte {
	var buf bytes.Buffer
	if err := wire.WriteMsg(&buf, kind, fields...); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadMsg(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(wire.FrameHello, []byte("payload")))
	f.Add(frame(wire.FrameErr, []byte("oops"), []byte("extra")))
	f.Add(frame(wire.FrameDeltaEnd))
	// Truncated frame: header promises more than the stream holds. Kind 7
	// is the retired full-state commit chunk.
	f.Add(frame(7, bytes.Repeat([]byte{7}, 64))[:12])
	// Hostile field length: announces MaxFieldBytes with 4 bytes behind it.
	hostile := []byte{byte(wire.FrameHello)}
	hostile = binary.BigEndian.AppendUint32(hostile, 1)
	hostile = binary.BigEndian.AppendUint32(hostile, wire.MaxFieldBytes)
	hostile = append(hostile, 1, 2, 3, 4)
	f.Add(hostile)
	// Hostile field count.
	manyFields := []byte{byte(wire.FrameHello)}
	manyFields = binary.BigEndian.AppendUint32(manyFields, 1<<31)
	f.Add(manyFields)
	// The retired capability dialect's hellos carried the root probe as
	// a third field, and acks answered it in their own third field.
	for _, fr := range threeFieldHellos() {
		f.Add(fr)
	}
	// The versioned hello carries the root probe as its second field, and
	// the ack answers it in its own second field.
	for _, fr := range versionedHellos() {
		f.Add(fr)
	}
	// A link's stream: a heartbeat, a batch opener with its delta, the
	// opener truncated, and one carrying a stray second field.
	for _, fr := range linkBatches() {
		f.Add(fr)
	}
	// The end of a serving exchange: a landed frame, one carrying a
	// stray field, and its header cut short.
	landed := frame(wire.FrameLanded)
	f.Add(landed)
	f.Add(frame(wire.FrameLanded, []byte("stray")))
	f.Add(landed[:3])

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, fields, err := wire.ReadMsg(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, wire.ErrFraming) && err != io.EOF {
				t.Fatalf("ReadMsg error is neither ErrFraming nor io.EOF: %v", err)
			}
			return
		}
		// A successful parse must be backed by the input: the fields
		// plus framing can never exceed what was actually supplied.
		total := 5
		for _, fl := range fields {
			total += 4 + len(fl)
		}
		if total > len(data) {
			t.Fatalf("parsed %d framed bytes out of a %d-byte input", total, len(data))
		}
		// And it must round-trip through the writer.
		var buf bytes.Buffer
		if err := wire.WriteMsg(&buf, kind, fields...); err != nil {
			t.Fatalf("re-encoding parsed message: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:total]) {
			t.Fatalf("re-encoded message differs from input prefix")
		}
	})
}

// FuzzDecodeRecon: the recon payloads are decoded from untrusted peers
// in the probe loop, often many per sync, so arbitrary bytes must
// produce a clean ErrMalformed — never a panic, never an allocation
// sized by a hostile count. One fuzz target drives all five codecs: the
// decoders share the length-validating reader, and feeding each the
// others' valid encodings exercises exactly the cross-kind confusion a
// buggy peer would produce.
func FuzzDecodeRecon(f *testing.F) {
	f.Add([]byte{})
	f.Add(wire.EncodeReconRange(wire.ReconRange{
		X: recon.MakeItem(1, [32]byte{1}), Y: recon.MakeItem(2, [32]byte{2}), Count: 7,
	}))
	f.Add(wire.EncodeReconSplit(wire.ReconSplit{
		Mid: recon.MakeItem(3, [32]byte{3}), CountLo: 1, CountHi: 2,
	}))
	f.Add(wire.EncodeReconItems([]recon.Item{{4}, {5}}))
	f.Add(wire.EncodeReconWant([]store.Hash{{6}}))
	f.Add(wire.EncodeReconSpan(wire.ReconSpan{Count: 9}))
	// Hostile count: announces MaxDeltaCommits hashes backed by none.
	hostile := binary.BigEndian.AppendUint32(nil, wire.MaxDeltaCommits)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if rr, err := wire.DecodeReconRange(data); err == nil {
			if !bytes.Equal(wire.EncodeReconRange(rr), data) {
				t.Fatal("decoded range does not re-encode to its input")
			}
		}
		if sp, err := wire.DecodeReconSplit(data); err == nil {
			if !bytes.Equal(wire.EncodeReconSplit(sp), data) {
				t.Fatal("decoded split does not re-encode to its input")
			}
		}
		if items, err := wire.DecodeReconItems(data); err == nil {
			if len(items) > wire.MaxReconItems {
				t.Fatalf("decoder admitted %d items past the cap", len(items))
			}
			if !bytes.Equal(wire.EncodeReconItems(items), data) {
				t.Fatal("decoded items do not re-encode to their input")
			}
		}
		if want, err := wire.DecodeReconWant(data); err == nil {
			if len(want) > wire.MaxDeltaCommits {
				t.Fatalf("decoder admitted %d wants past the cap", len(want))
			}
			if !bytes.Equal(wire.EncodeReconWant(want), data) {
				t.Fatal("decoded want does not re-encode to its input")
			}
		}
		if sp, err := wire.DecodeReconSpan(data); err == nil {
			if !bytes.Equal(wire.EncodeReconSpan(sp), data) {
				t.Fatal("decoded span does not re-encode to its input")
			}
		}
	})
}

// rootAnswers is one root-probe answer of each kind, encoded as the
// hello ack's third field.
func rootAnswers() [][]byte {
	return [][]byte{
		wire.EncodeReconAnswer(wire.ReconAnswer{Kind: wire.FrameReconMatch}),
		wire.EncodeReconAnswer(wire.ReconAnswer{Kind: wire.FrameReconEmptyRange}),
		wire.EncodeReconAnswer(wire.ReconAnswer{Kind: wire.FrameReconItems, Items: []recon.Item{{4}, {5}}}),
		wire.EncodeReconAnswer(wire.ReconAnswer{Kind: wire.FrameReconSplit,
			Split: wire.ReconSplit{Mid: recon.MakeItem(3, [32]byte{3}), CountLo: 80, CountHi: 81}}),
	}
}

// legacyHello is a hello payload of the retired unversioned dialect:
// name, object and datatype strings, the head, then a counted have-list.
func legacyHello(have ...store.Hash) []byte {
	var w wire.Writer
	w.PutString("a")
	w.PutString("o")
	w.PutString("mergeable-log")
	w.PutHash(store.Hash{})
	w.PutLen(len(have))
	for _, h := range have {
		w.PutHash(h)
	}
	return w.Bytes()
}

// threeFieldHellos frames a hello of the retired capability dialect —
// legacy payload, capability bits, root probe — and an ack carrying each
// answer kind, plus a truncated and an unknown answer.
func threeFieldHellos() [][]byte {
	hello := legacyHello()
	caps := binary.BigEndian.AppendUint64(nil, 3)
	root := wire.EncodeReconRange(wire.ReconRange{FP: recon.Fingerprint{7}, Count: 200})
	out := [][]byte{frame(wire.FrameHello, hello, caps, root)}
	for _, a := range hostileAnswers() {
		out = append(out, frame(wire.FrameHelloAck, hello, caps, a))
	}
	return out
}

// hostileAnswers is every root answer kind plus a truncated split and an
// unknown kind.
func hostileAnswers() [][]byte {
	answers := rootAnswers()
	return append(answers, answers[3][:len(answers[3])-4], []byte{byte(wire.FrameHello)})
}

// versionedHellos frames the current hello with its root probe and an
// ack carrying each answer, plus a hello of another protocol version.
func versionedHellos() [][]byte {
	hello := wire.EncodeHello(wire.Hello{Node: "a", Object: "o", Datatype: "pn-counter"})
	root := wire.EncodeReconRange(wire.ReconRange{FP: recon.Fingerprint{7}, Count: 200})
	out := [][]byte{frame(wire.FrameHello, hello, root)}
	for _, a := range hostileAnswers() {
		out = append(out, frame(wire.FrameHelloAck, hello, a))
	}
	other := append([]byte{wire.Version + 1}, hello[1:]...)
	return append(out, frame(wire.FrameHello, other, root))
}

// linkHello is the opener of one link batch: the sender, the object and
// its datatype, and the name of the graft head set.
func linkHello(heads []store.Hash) []byte {
	return wire.EncodeHello(wire.Hello{Node: "a", Object: "o", Datatype: "pn-counter", Head: store.HeadSetHash(heads)})
}

// linkBatches frames a link's traffic: a heartbeat, a batch (opener,
// then its delta of one patched commit) under one head and under two,
// the opener cut short, and an opener with an extra field.
func linkBatches() [][]byte {
	commit := store.ExportedCommit{Parents: []store.Hash{{3}}, Patch: []byte{1, 2}, Gen: 2, Time: 65}
	batch := func(heads []store.Hash) []byte {
		var b bytes.Buffer
		b.Write(frame(wire.FrameLinkBatch, linkHello(heads)))
		if err := wire.WriteDeltaPacked(&b, []store.ExportedCommit{commit}, heads); err != nil {
			panic(err)
		}
		return b.Bytes()
	}
	hello := linkHello([]store.Hash{{4}})
	opener := frame(wire.FrameLinkBatch, hello)
	return [][]byte{
		frame(wire.FrameLinkBatch),
		batch([]store.Hash{{4}}),
		batch([]store.Hash{{4}, {5}}),
		opener[:len(opener)-5],
		frame(wire.FrameLinkBatch, hello, []byte("stray")),
	}
}

// FuzzDecodeHello: the first payloads a server decodes from an untrusted
// peer — a session's hello or a link batch's opener — and the root answer
// a client decodes from the ack must never panic or over-allocate on
// arbitrary bytes.
func FuzzDecodeHello(f *testing.F) {
	f.Add([]byte{})
	// A hello of the retired unversioned dialect, whole and truncated.
	legacy := legacyHello(store.Hash{1}, store.Hash{2})
	f.Add(legacy)
	f.Add(legacy[:len(legacy)-3])
	// The hello's second field and the ack's: the root probe and every
	// answer kind, then a truncated split, an unknown kind and a forged
	// item count.
	f.Add(wire.EncodeReconRange(wire.ReconRange{FP: recon.Fingerprint{7}, Count: 200}))
	answers := rootAnswers()
	for _, a := range answers {
		f.Add(a)
	}
	f.Add(answers[3][:len(answers[3])-4])
	f.Add([]byte{byte(wire.FrameHello)})
	f.Add(binary.BigEndian.AppendUint32([]byte{byte(wire.FrameReconItems)}, wire.MaxReconItems))
	// The versioned hello: whole, truncated, and of another version.
	good := wire.EncodeHello(wire.Hello{Node: "a", Object: "o", Datatype: "mergeable-log", Head: store.Hash{9}})
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append([]byte{wire.Version + 1}, good[1:]...))
	// A link batch opens with a hello naming its graft head: whole and
	// truncated.
	opener := linkHello([]store.Hash{{4}, {5}})
	f.Add(opener)
	f.Add(opener[:len(opener)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := wire.DecodeHello(data); err == nil {
			if !bytes.Equal(wire.EncodeHello(h), data) {
				t.Fatalf("decoded hello does not re-encode to its input")
			}
		}
		if a, err := wire.DecodeReconAnswer(data); err == nil {
			if len(a.Items) > wire.MaxReconItems {
				t.Fatalf("answer admitted %d items past the cap", len(a.Items))
			}
			if !bytes.Equal(wire.EncodeReconAnswer(a), data) {
				t.Fatalf("decoded answer does not re-encode to its input")
			}
		}
	})
}
