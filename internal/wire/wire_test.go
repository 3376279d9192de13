package wire_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/alphamap"
	"repro/internal/chat"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/ewflag"
	"repro/internal/gmap"
	"repro/internal/gset"
	"repro/internal/lwwreg"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/queue"
	"repro/internal/wire"
)

func roundTrip[S any](t *testing.T, c wire.Codec[S], s S, eq func(a, b S) bool) {
	t.Helper()
	enc := c.Encode(s)
	dec, err := c.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !eq(dec, s) {
		t.Fatalf("round trip: got %+v, want %+v", dec, s)
	}
}

func TestScalarCodecs(t *testing.T) {
	roundTrip[int64](t, wire.IncCounter{}, 42, func(a, b int64) bool { return a == b })
	roundTrip(t, wire.PNCounter{}, counter.PNState{P: 7, N: 3}, func(a, b counter.PNState) bool { return a == b })
	roundTrip(t, wire.EWFlag{}, ewflag.State{Enables: 5, Flag: true}, func(a, b ewflag.State) bool { return a == b })
	roundTrip(t, wire.LWWReg{}, lwwreg.State{T: 9, V: -1}, func(a, b lwwreg.State) bool { return a == b })
	roundTrip(t, wire.LWWReg{}, lwwreg.State{T: -1}, func(a, b lwwreg.State) bool { return a == b })
}

func TestCollectionCodecs(t *testing.T) {
	roundTrip(t, wire.GSet{}, gset.State{1, 5, 9}, func(a, b gset.State) bool {
		return slices.Equal(a, b)
	})
	roundTrip(t, wire.GSet{}, gset.State(nil), func(a, b gset.State) bool { return len(a) == len(b) })
	roundTrip(t, wire.GMap{},
		gmap.State{{K: "a", T: 1, V: 10}, {K: "b", T: 2, V: 20}},
		func(a, b gmap.State) bool { return slices.Equal(a, b) })
	roundTrip(t, wire.MLog{},
		mlog.State{{T: 9, Msg: "newer"}, {T: 2, Msg: "older"}},
		func(a, b mlog.State) bool { return slices.Equal(a, b) })
	roundTrip(t, wire.OrSet{},
		orset.State{{E: 1, T: 1}, {E: 1, T: 4}},
		func(a, b orset.State) bool { return slices.Equal(a, b) })
	roundTrip(t, wire.OrSetSpace{},
		orset.SpaceState{{E: 1, T: 4}, {E: 2, T: 5}},
		func(a, b orset.SpaceState) bool { return slices.Equal(a, b) })
}

func TestTreeCodecPreservesContentsAndBalance(t *testing.T) {
	var impl orset.OrSetSpaceTime
	s := impl.Init()
	for i := int64(0); i < 100; i++ {
		s, _ = impl.Do(orset.Op{Kind: orset.Add, E: i * 3}, s, core.Timestamp(i+1))
	}
	var c wire.OrSetSpaceTime
	dec, err := c.Decode(c.Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(orset.Flatten(dec), orset.Flatten(s)) {
		t.Fatal("tree contents changed across the wire")
	}
	if !orset.ValidAVL(dec) {
		t.Fatal("decoded tree must be balanced")
	}
}

func TestQueueCodec(t *testing.T) {
	var impl queue.Queue
	s := impl.Init()
	for i := int64(1); i <= 5; i++ {
		s, _ = impl.Do(queue.Op{Kind: queue.Enqueue, V: i * 10}, s, core.Timestamp(i))
	}
	s, _ = impl.Do(queue.Op{Kind: queue.Dequeue}, s, 9)
	var c wire.Queue
	dec, err := c.Decode(c.Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec.ToSlice(), s.ToSlice()) {
		t.Fatal("queue contents changed across the wire")
	}
	// A merge can leave a younger element ahead of an older, concurrent
	// one; only a repeated timestamp is malformed.
	for _, tc := range []struct {
		ts []core.Timestamp
		ok bool
	}{{[]core.Timestamp{5, 3, 7}, true}, {[]core.Timestamp{5, 3, 5}, false}, {[]core.Timestamp{2, 2}, false}} {
		var ps []queue.Pair
		for _, ts := range tc.ts {
			ps = append(ps, queue.Pair{T: ts, V: int64(ts)})
		}
		dec, err := c.Decode(c.Encode(queue.FromSlice(ps)))
		if (err == nil) != tc.ok || tc.ok && !slices.Equal(dec.ToSlice(), ps) {
			t.Fatalf("queue %v: Decode = %v, %v; want accepted %v", tc.ts, dec.ToSlice(), err, tc.ok)
		}
	}
}

func TestChatCodec(t *testing.T) {
	s := chat.State{
		alphamap.Entry[mlog.State]{K: "#go", V: mlog.State{{T: 3, Msg: "hey"}, {T: 1, Msg: "hi"}}},
		alphamap.Entry[mlog.State]{K: "#ml", V: nil},
	}
	var c wire.Chat
	dec, err := c.Decode(c.Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 2 || dec[0].K != "#go" || len(dec[0].V) != 2 || dec[0].V[0].Msg != "hey" {
		t.Fatalf("chat round trip: %+v", dec)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	var c wire.GMap
	full := c.Encode(gmap.State{{K: "key", T: 1, V: 2}})
	for cut := 0; cut < len(full); cut++ {
		if _, err := c.Decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	var c wire.PNCounter
	enc := append(c.Encode(counter.PNState{P: 1, N: 2}), 0xFF)
	if _, err := c.Decode(enc); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeRejectsHugeLengths(t *testing.T) {
	// A corrupt length prefix must not cause a huge allocation; the
	// reader bounds lengths by the remaining payload.
	var w wire.Writer
	w.PutLen(1 << 30)
	var c wire.GSet
	if _, err := c.Decode(w.Bytes()); err == nil {
		t.Fatal("absurd length accepted")
	}
}

func TestGSetCodecQuick(t *testing.T) {
	var c wire.GSet
	f := func(raw []int64) bool {
		slices.Sort(raw)
		raw = slices.Compact(raw)
		dec, err := c.Decode(c.Encode(gset.State(raw)))
		return err == nil && slices.Equal(dec, gset.State(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMLogCodecQuick(t *testing.T) {
	var c wire.MLog
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(logOf(r, r.Intn(20)))
		},
	}
	f := func(s mlog.State) bool {
		dec, err := c.Decode(c.Encode(s))
		return err == nil && slices.Equal(dec, s)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randString(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}
