package wire_test

import (
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/alphamap"
	"repro/internal/chat"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/gmap"
	"repro/internal/gset"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/queue"
	"repro/internal/wire"
)

// twoListQueue returns a queue with elements in both its front and its
// back list, the shape Encode has to stitch together.
func twoListQueue(front, back int) queue.State {
	ps := make([]queue.Pair, front)
	for i := range ps {
		ps[i] = queue.Pair{T: core.Timestamp(i + 1), V: int64(10 * (i + 1))}
	}
	q := queue.FromSlice(ps)
	for i := front; i < front+back; i++ {
		q, _ = queue.Queue{}.Do(queue.Op{Kind: queue.Enqueue, V: int64(10 * (i + 1))}, q, core.Timestamp(i+1))
	}
	return q
}

// TestCollectionEncodingsPinned holds every collection codec to the bytes
// the pre-sizing encoders produced: content addresses, durable logs and
// wire patches all depend on them.
func TestCollectionEncodingsPinned(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"gset", wire.GSet{}.Encode(gset.State{1, 5, 9}),
			"00000003000000000000000100000000000000050000000000000009"},
		{"gmap", wire.GMap{}.Encode(gmap.State{{K: "a", T: 1, V: 10}, {K: "bc", T: 2, V: -20}}),
			"0000000200000001610000000000000001000000000000000a0000000262630000000000000002ffffffffffffffec"},
		{"mlog", wire.MLog{}.Encode(mlog.State{{T: 9, Msg: "newer"}, {T: 2, Msg: ""}}),
			"000000020000000000000009000000056e65776572000000000000000200000000"},
		{"or-set", wire.OrSet{}.Encode(orset.State{{E: 1, T: 1}, {E: 1, T: 4}}),
			"000000020000000000000001000000000000000100000000000000010000000000000004"},
		{"or-set-space", wire.OrSetSpace{}.Encode(orset.SpaceState{{E: 1, T: 4}, {E: 2, T: 5}}),
			"000000020000000000000001000000000000000400000000000000020000000000000005"},
		{"or-set-spacetime", wire.OrSetSpaceTime{}.Encode(orset.BuildBalanced(orset.SpaceState{{E: 1, T: 4}, {E: 2, T: 5}, {E: 7, T: 6}})),
			"00000003000000000000000100000000000000040000000000000002000000000000000500000000000000070000000000000006"},
		{"queue", wire.Queue{}.Encode(twoListQueue(2, 2)),
			"000000040000000000000001000000000000000a000000000000000200000000000000140000000000000003000000000000001e00000000000000040000000000000028"},
		{"chat", wire.Chat{}.Encode(chat.State{{K: "#go", V: mlog.State{{T: 3, Msg: "hi"}}}, {K: "#empty", V: nil}}),
			"000000020000000323676f000000120000000100000000000000030000000268690000000623656d7074790000000400000000"},
		{"alpha-map-of-counters", wire.AlphaMap[counter.PNState]{Inner: wire.PNCounter{}}.Encode(alphamap.State[counter.PNState]{{K: "k", V: counter.PNState{P: 3, N: 1}}}),
			"00000001000000016b0000001000000000000000030000000000000001"},
		{"empty-gset", wire.GSet{}.Encode(nil), "00000000"},
		{"empty-queue", wire.Queue{}.Encode(queue.State{}), "00000000"},
		{"empty-tree", wire.OrSetSpaceTime{}.Encode(nil), "00000000"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s encodes to\n  %s, want\n  %s", c.name, got, c.want)
		}
	}
}

// TestCollectionEncodeAllocatesOnce: every collection codec sizes its
// output first, so Encode is one allocation and the slice the store pins
// (as a snapshot, and in its reassembly slot) has no spare capacity.
func TestCollectionEncodeAllocatesOnce(t *testing.T) {
	const n = 300
	pairs := make(orset.SpaceState, n)
	set := make(gset.State, n)
	kv := make(gmap.State, n)
	log := make(mlog.State, n)
	rooms := make(chat.State, 8)
	counters := make(alphamap.State[counter.PNState], n)
	for i := 0; i < n; i++ {
		pairs[i] = orset.Pair{E: int64(i), T: core.Timestamp(i + 1)}
		set[i] = int64(i)
		kv[i] = gmap.Entry{K: fmt.Sprintf("key-%d", i), T: core.Timestamp(i), V: int64(i)}
		log[i] = mlog.Entry{T: core.Timestamp(n - i), Msg: fmt.Sprintf("message number %d", i)}
		counters[i] = alphamap.Entry[counter.PNState]{K: fmt.Sprintf("c%d", i), V: counter.PNState{P: int64(i)}}
	}
	for i := range rooms {
		rooms[i] = alphamap.Entry[mlog.State]{K: fmt.Sprintf("#room-%d", i), V: log[:n/(i+1)]}
	}
	tree := orset.BuildBalanced(pairs)
	q := twoListQueue(n/2, n/2)

	encoders := []struct {
		name   string
		encode func() []byte
	}{
		{"gset", func() []byte { return wire.GSet{}.Encode(set) }},
		{"gmap", func() []byte { return wire.GMap{}.Encode(kv) }},
		{"mlog", func() []byte { return wire.MLog{}.Encode(log) }},
		{"or-set", func() []byte { return wire.OrSet{}.Encode(orset.State(pairs)) }},
		{"or-set-space", func() []byte { return wire.OrSetSpace{}.Encode(pairs) }},
		{"or-set-spacetime", func() []byte { return wire.OrSetSpaceTime{}.Encode(tree) }},
		{"queue", func() []byte { return wire.Queue{}.Encode(q) }},
		{"chat", func() []byte { return wire.Chat{}.Encode(rooms) }},
		{"alpha-map-of-counters", func() []byte {
			return wire.AlphaMap[counter.PNState]{Inner: wire.PNCounter{}}.Encode(counters)
		}},
		{"alpha-map-of-or-sets", func() []byte {
			return wire.AlphaMap[orset.SpaceState]{Inner: wire.OrSetSpace{}}.Encode(alphamap.State[orset.SpaceState]{{K: "cart", V: pairs}})
		}},
	}
	for _, e := range encoders {
		if enc := e.encode(); cap(enc) != len(enc) {
			t.Errorf("%s: encoding has cap %d for len %d", e.name, cap(enc), len(enc))
		}
		if allocs := testing.AllocsPerRun(20, func() { e.encode() }); allocs != 1 {
			t.Errorf("%s: Encode makes %.0f allocations, want 1", e.name, allocs)
		}
	}
}

// TestCheckAllocatesNothing: a codec's Check validates an encoding in
// place, one pass over the bytes, so the store's import checks a state
// without building it.
func TestCheckAllocatesNothing(t *testing.T) {
	const n = 300
	pairs := make(orset.SpaceState, n)
	log := make(mlog.State, n)
	for i := 0; i < n; i++ {
		pairs[i] = orset.Pair{E: int64(3 * i), T: core.Timestamp(i + 1)}
		log[i] = mlog.Entry{T: core.Timestamp(n - i), Msg: fmt.Sprintf("message number %d", i)}
	}
	checks := []struct {
		name  string
		check func([]byte) error
		enc   []byte
	}{
		{"pn-counter", wire.PNCounter{}.Check, wire.PNCounter{}.Encode(counter.PNState{P: 2})},
		{"mlog", wire.MLog{}.Check, wire.MLog{}.Encode(log)},
		{"or-set-space", wire.OrSetSpace{}.Check, wire.OrSetSpace{}.Encode(pairs)},
	}
	for _, c := range checks {
		if err := c.check(c.enc); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(20, func() { c.check(c.enc) }); allocs != 0 {
			t.Errorf("%s: Check makes %.0f allocations, want 0", c.name, allocs)
		}
	}
}
