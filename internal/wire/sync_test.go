package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

func testCommits(n, stateBytes int) []store.ExportedCommit {
	var prev store.Hash
	commits := make([]store.ExportedCommit, 0, n)
	for i := 0; i < n; i++ {
		state := bytes.Repeat([]byte{byte(i)}, stateBytes)
		c := store.ExportedCommit{
			State: state,
			Gen:   i + 1,
			Time:  core.Timestamp(i * 7),
		}
		if i > 0 {
			c.Parents = []store.Hash{prev}
		}
		prev = store.Hash{byte(i), byte(i >> 8)}
		commits = append(commits, c)
	}
	return commits
}

func sameCommits(a, b []store.ExportedCommit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Parents) != len(b[i].Parents) || !bytes.Equal(a[i].State, b[i].State) ||
			a[i].Gen != b[i].Gen || a[i].Time != b[i].Time {
			return false
		}
		for j := range a[i].Parents {
			if a[i].Parents[j] != b[i].Parents[j] {
				return false
			}
		}
	}
	return true
}

func TestMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, FrameHello, []byte("a"), []byte("bb")); err != nil {
		t.Fatal(err)
	}
	kind, fields, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameHello || len(fields) != 2 || string(fields[0]) != "a" || string(fields[1]) != "bb" {
		t.Fatalf("round trip mismatch: kind=%d fields=%q", kind, fields)
	}
}

func TestReadMsgCapsFieldSize(t *testing.T) {
	var raw []byte
	raw = append(raw, byte(FramePackedCommits))
	raw = binary.BigEndian.AppendUint32(raw, 1)
	raw = binary.BigEndian.AppendUint32(raw, MaxFieldBytes+1)
	if _, _, err := ReadMsg(bytes.NewReader(raw)); !errors.Is(err, ErrFraming) {
		t.Fatalf("oversized field must be rejected, got %v", err)
	}
}

func TestReadMsgCapsFieldCount(t *testing.T) {
	var raw []byte
	raw = append(raw, byte(FrameHello))
	raw = binary.BigEndian.AppendUint32(raw, maxFields+1)
	if _, _, err := ReadMsg(bytes.NewReader(raw)); !errors.Is(err, ErrFraming) {
		t.Fatalf("oversized field count must be rejected, got %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Node: "node-7", Object: "cart", Datatype: "or-set-space", Head: store.Hash{1, 2, 3}}
	enc := EncodeHello(h)
	if enc[0] != Version {
		t.Fatalf("hello opens with byte %d, want the version %d", enc[0], Version)
	}
	got, err := DecodeHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello mismatch: %+v", got)
	}
}

func TestDecodeHelloForgedCountFails(t *testing.T) {
	var w Writer
	w.putVersion()
	w.PutLen(1 << 30) // a node name of a billion bytes with no payload behind it
	if _, err := DecodeHello(w.Bytes()); err == nil {
		t.Fatal("forged name length must fail")
	}
}

// TestDecodeRefusesOtherVersion: the hello and the span probe open with
// the protocol version, and a payload of any other version fails with
// ErrVersion naming it — whatever follows.
func TestDecodeRefusesOtherVersion(t *testing.T) {
	hello := EncodeHello(Hello{Node: "a", Object: "o", Datatype: "pn-counter"})
	span := EncodeReconSpan(ReconSpan{Count: 3})
	for _, v := range []byte{0, 2, Version - 1, Version + 1, 0xff} {
		hello[0], span[0] = v, v
		want := fmt.Sprintf("unsupported protocol version %d", v)
		if _, err := DecodeHello(hello); !errors.Is(err, ErrVersion) || err.Error() != want {
			t.Fatalf("hello of version %d: %v, want %q", v, err, want)
		}
		if _, err := DecodeReconSpan(span); !errors.Is(err, ErrVersion) || err.Error() != want {
			t.Fatalf("span of version %d: %v, want %q", v, err, want)
		}
	}
}

func TestDeltaRoundTripChunked(t *testing.T) {
	// 2000 commits with 1 KiB states: forces several chunks by both the
	// commit-count bound and the byte bound.
	commits := testCommits(2000, 1024)
	head := []store.Hash{{7}}
	var buf bytes.Buffer
	if err := WriteDeltaPacked(&buf, commits, head); err != nil {
		t.Fatal(err)
	}
	// The stream must be made of bounded frames, not one big buffer.
	frames := 0
	rd := bytes.NewReader(buf.Bytes())
	for {
		kind, fields, err := ReadMsg(rd)
		if err != nil {
			t.Fatal(err)
		}
		if kind == FramePackedCommits {
			frames++
			if len(fields[0]) > commitChunkBytes+64<<10 {
				t.Fatalf("chunk of %d bytes exceeds bound", len(fields[0]))
			}
		}
		if kind == FrameDeltaEnd {
			break
		}
	}
	if frames < 4 {
		t.Fatalf("expected several chunks, got %d", frames)
	}
	got, gotHead, err := ReadDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotHead, head) || !sameCommits(commits, got) {
		t.Fatal("delta round trip mismatch")
	}
}

func TestDeltaEmpty(t *testing.T) {
	head := []store.Hash{{1}}
	var buf bytes.Buffer
	if err := WriteDeltaPacked(&buf, nil, head); err != nil {
		t.Fatal(err)
	}
	got, gotHead, err := ReadDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || !slices.Equal(gotHead, head) {
		t.Fatalf("empty delta mismatch: %d commits", len(got))
	}
}

func TestReadDeltaCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	var hdr Writer
	hdr.PutLen(1)
	hdr.PutHash(store.Hash{})
	hdr.PutLen(5) // announce five, deliver none
	if err := WriteMsg(&buf, FrameDeltaHeader, hdr.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMsg(&buf, FrameDeltaEnd); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDelta(&buf); !errors.Is(err, ErrFraming) {
		t.Fatalf("count mismatch must fail, got %v", err)
	}
}

func TestReadDeltaHugeAnnouncementFails(t *testing.T) {
	var buf bytes.Buffer
	var hdr Writer
	hdr.PutLen(1)
	hdr.PutHash(store.Hash{})
	hdr.PutLen(MaxDeltaCommits + 1)
	if err := WriteMsg(&buf, FrameDeltaHeader, hdr.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDelta(&buf); !errors.Is(err, ErrFraming) {
		t.Fatalf("oversized announcement must fail, got %v", err)
	}
}

func TestReadDeltaNeedsAHead(t *testing.T) {
	var buf bytes.Buffer
	var hdr Writer
	hdr.PutLen(0) // no head set
	hdr.PutLen(0)
	if err := WriteMsg(&buf, FrameDeltaHeader, hdr.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDelta(&buf); !errors.Is(err, ErrFraming) {
		t.Fatalf("a headless delta must fail, got %v", err)
	}
}

func TestReadDeltaSurfacesPeerError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, FrameErr, []byte("merge refused")); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadDelta(&buf)
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Msg != "merge refused" {
		t.Fatalf("want PeerError, got %v", err)
	}
}

func TestReadDeltaExtraCommitsFail(t *testing.T) {
	commits := testCommits(3, 8)
	var buf bytes.Buffer
	var hdr Writer
	hdr.PutLen(1)
	hdr.PutHash(store.Hash{})
	hdr.PutLen(2) // announce fewer than shipped
	if err := WriteMsg(&buf, FrameDeltaHeader, hdr.Bytes()); err != nil {
		t.Fatal(err)
	}
	var chunk Writer
	for i := range commits {
		appendPackedCommit(&chunk, commits[i])
	}
	if err := WriteMsg(&buf, FramePackedCommits, chunk.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDelta(&buf); !errors.Is(err, ErrFraming) {
		t.Fatalf("overdelivery must fail, got %v", err)
	}
}

func TestPeerErrorMessage(t *testing.T) {
	err := peerErr(nil)
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Msg != "unspecified" {
		t.Fatalf("empty peer error: %v", err)
	}
	if fmt.Sprint(peerErr([][]byte{[]byte("x")})) != "wire: peer error: x" {
		t.Fatal("peer error rendering")
	}
}

// packedTestCommits mixes full-state and patch-bearing commits.
func packedTestCommits(n int) []store.ExportedCommit {
	commits := testCommits(n, 24)
	for i := range commits {
		if i%3 == 1 {
			commits[i].Patch = append([]byte{0x7f}, commits[i].State...)
			commits[i].State = nil
		}
	}
	return commits
}

func samePackedCommits(a, b []store.ExportedCommit) bool {
	if !sameCommits(a, b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Patch, b[i].Patch) {
			return false
		}
	}
	return true
}

func TestPackedDeltaRoundTrip(t *testing.T) {
	commits := packedTestCommits(40)
	// A multi-head branch ships every member of its head set.
	head := []store.Hash{{1, 2}, {9, 9}, {9, 9, 9}}
	var buf bytes.Buffer
	if err := WriteDeltaPacked(&buf, commits, head); err != nil {
		t.Fatal(err)
	}
	got, gotHead, err := ReadDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotHead, head) || !samePackedCommits(got, commits) {
		t.Fatal("packed delta round trip mismatch")
	}
}

func TestPackedCommitRejectsBadForm(t *testing.T) {
	var w Writer
	w.PutLen(0)              // no parents
	w.buf = append(w.buf, 7) // unknown state form
	w.PutBytes([]byte("x"))
	w.PutInt64(1)
	w.PutTimestamp(0)
	r := NewReader(w.Bytes())
	readPackedCommit(r)
	if r.Err() == nil {
		t.Fatal("unknown state form must fail")
	}
}

func TestPackedCommitRejectsEmptyPatch(t *testing.T) {
	var w Writer
	w.PutLen(0)
	w.buf = append(w.buf, statePatch)
	w.PutBytes(nil) // empty patch field
	w.PutInt64(1)
	w.PutTimestamp(0)
	r := NewReader(w.Bytes())
	readPackedCommit(r)
	if r.Err() == nil {
		t.Fatal("empty patch field must fail")
	}
}
