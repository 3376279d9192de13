package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/recon"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestReconRangeRoundTrip(t *testing.T) {
	in := wire.ReconRange{
		X:     recon.MakeItem(3, [32]byte{1, 2}),
		Y:     recon.MakeItem(9, [32]byte{0xff}),
		FP:    recon.Fingerprint{9, 8, 7},
		Count: 12345,
	}
	out, err := wire.DecodeReconRange(wire.EncodeReconRange(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	// The zero range (whole keyspace) survives too.
	out, err = wire.DecodeReconRange(wire.EncodeReconRange(wire.ReconRange{}))
	if err != nil {
		t.Fatal(err)
	}
	if out != (wire.ReconRange{}) {
		t.Fatalf("zero range round trip: got %+v", out)
	}
}

func TestReconRangeHugeCountFails(t *testing.T) {
	b := wire.EncodeReconRange(wire.ReconRange{Count: wire.MaxDeltaCommits + 1})
	if _, err := wire.DecodeReconRange(b); err == nil {
		t.Fatal("count above MaxDeltaCommits must fail")
	}
}

func TestReconSplitRoundTrip(t *testing.T) {
	in := wire.ReconSplit{
		Mid:     recon.MakeItem(7, [32]byte{0x42}),
		FPLo:    recon.Fingerprint{1},
		CountLo: 10,
		FPHi:    recon.Fingerprint{2},
		CountHi: 11,
	}
	out, err := wire.DecodeReconSplit(wire.EncodeReconSplit(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	in.CountHi = wire.MaxDeltaCommits + 1
	if _, err := wire.DecodeReconSplit(wire.EncodeReconSplit(in)); err == nil {
		t.Fatal("half count above MaxDeltaCommits must fail")
	}
}

func TestReconItemsRoundTrip(t *testing.T) {
	in := []recon.Item{recon.MakeItem(1, [32]byte{1}), recon.MakeItem(2, [32]byte{2}), recon.MakeItem(2, [32]byte{3})}
	out, err := wire.DecodeReconItems(wire.EncodeReconItems(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: %d items, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("item %d: got %v, want %v", i, out[i], in[i])
		}
	}
	empty, err := wire.DecodeReconItems(wire.EncodeReconItems(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty enumeration: %v, %d items", err, len(empty))
	}
}

// TestReconForgedCountsFail pins the allocation defense: a count field
// announcing more elements than the payload carries must be rejected by
// the length-validating reader, and a count above the per-frame cap must
// be rejected even when backed by bytes.
func TestReconForgedCountsFail(t *testing.T) {
	// Items: forge the count prefix upward on a valid 2-item payload.
	b := wire.EncodeReconItems([]recon.Item{{1}, {2}})
	forged := append([]byte(nil), b...)
	forged[3] = 0xEE // count varint/fixed prefix corrupted upward
	if _, err := wire.DecodeReconItems(forged); err == nil {
		t.Fatal("forged item count must fail, not allocate")
	}
	// Want: same shape, same defense.
	w := wire.EncodeReconWant([]store.Hash{{1}})
	forgedW := append([]byte(nil), w...)
	forgedW[3] = 0xEE
	if _, err := wire.DecodeReconWant(forgedW); err == nil {
		t.Fatal("forged want count must fail, not allocate")
	}
	// Items above MaxReconItems are a protocol violation outright.
	big := make([]recon.Item, wire.MaxReconItems+1)
	if _, err := wire.DecodeReconItems(wire.EncodeReconItems(big)); err == nil {
		t.Fatal("items above MaxReconItems must fail")
	}
}

func TestReconWantRoundTrip(t *testing.T) {
	in := []store.Hash{{7}, {8}}
	out, err := wire.DecodeReconWant(wire.EncodeReconWant(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: got %v", out)
	}
}

func TestReconSpanRoundTrip(t *testing.T) {
	in := wire.ReconSpan{FP: recon.Fingerprint{0xAB}, Count: 99}
	out, err := wire.DecodeReconSpan(wire.EncodeReconSpan(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	if _, err := wire.DecodeReconSpan([]byte{1, 2}); err == nil {
		t.Fatal("truncated span must fail")
	}
}

// reconAnswers is one answer of each kind, as a server sends them.
func reconAnswers() []wire.ReconAnswer {
	return []wire.ReconAnswer{
		{Kind: wire.FrameReconMatch},
		{Kind: wire.FrameReconEmptyRange},
		{Kind: wire.FrameReconItems, Items: []recon.Item{recon.MakeItem(1, [32]byte{1}), recon.MakeItem(2, [32]byte{2})}},
		{Kind: wire.FrameReconSplit, Split: wire.ReconSplit{Mid: recon.MakeItem(5, [32]byte{5}), FPLo: recon.Fingerprint{1}, CountLo: 70, FPHi: recon.Fingerprint{2}, CountHi: 71}},
	}
}

// TestReconAnswerRoundTrip: an answer reads back the same from the hello
// ack's field and from a frame of its own.
func TestReconAnswerRoundTrip(t *testing.T) {
	for _, in := range reconAnswers() {
		out, err := wire.DecodeReconAnswer(wire.EncodeReconAnswer(in))
		if err != nil {
			t.Fatalf("kind %d: %v", in.Kind, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("field round trip: got %+v, want %+v", out, in)
		}
		var buf bytes.Buffer
		if err := wire.WriteReconAnswer(&buf, in); err != nil {
			t.Fatal(err)
		}
		kind, fields, err := wire.ReadMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if out, err = wire.ParseReconAnswer(kind, fields); err != nil {
			t.Fatalf("kind %d: %v", in.Kind, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("frame round trip: got %+v, want %+v", out, in)
		}
	}
}

// TestReconAnswerRefusesMalformed: a malformed ack field is an
// ErrMalformed, and a forged item count is refused before anything is
// allocated for it.
func TestReconAnswerRefusesMalformed(t *testing.T) {
	items := wire.EncodeReconAnswer(reconAnswers()[2])
	split := wire.EncodeReconAnswer(reconAnswers()[3])
	forged := binary.BigEndian.AppendUint32([]byte{byte(wire.FrameReconItems)}, wire.MaxReconItems)
	cases := map[string][]byte{
		"empty":                {},
		"unknown kind":         {byte(wire.FrameHello)},
		"match with payload":   {byte(wire.FrameReconMatch), 0},
		"empty with payload":   {byte(wire.FrameReconEmptyRange), 1, 2},
		"items truncated":      items[:len(items)-5],
		"items without count":  items[:1],
		"split truncated":      split[:len(split)-1],
		"split trailing bytes": append(append([]byte(nil), split...), 0),
		"forged item count":    forged,
	}
	for name, b := range cases {
		if _, err := wire.DecodeReconAnswer(b); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("%s: got %v, want ErrMalformed", name, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		wire.DecodeReconAnswer(forged)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
		t.Fatalf("a forged count of %d items allocated %d bytes per decode", wire.MaxReconItems, per)
	}
}
