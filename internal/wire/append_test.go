package wire_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/chat"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/gmap"
	"repro/internal/gset"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/wire"
)

// appendCodec is a codec with the store's append form (store.Codec).
type appendCodec[S any] interface {
	checkCodec[S]
	AppendEncode(dst []byte, next, prev S, prevEnc []byte) ([]byte, int)
}

var (
	_ appendCodec[mlog.State]       = wire.MLog{}
	_ appendCodec[orset.SpaceState] = wire.OrSetSpace{}
	_ appendCodec[counter.PNState]  = wire.PNCounter{}
)

// checkAppendEncode holds AppendEncode to its contract: it appends
// exactly Encode(next) to dst, given prevEnc = Encode(prev) or, without
// withPrev, nil, and leaves dst's bytes and prevEnc as they were. dst's
// spare capacity may hold anything, as a recycled buffer's does. The run
// it reports copied is the end of both encodings, none without prevEnc,
// and, when wantTail is given, exactly wantTail(next, prev, prevEnc).
func checkAppendEncode[S any](t *testing.T, name string, c appendCodec[S], dst []byte, next, prev S, withPrev bool, wantTail func(next, prev S, prevEnc []byte) int) {
	t.Helper()
	var prevEnc []byte
	if withPrev {
		prevEnc = c.Encode(prev)
	}
	keepDst, keepPrev := slices.Clone(dst), slices.Clone(prevEnc)
	got, tail := c.AppendEncode(dst, next, prev, prevEnc)
	if want := append(slices.Clone(keepDst), c.Encode(next)...); !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendEncode (prevEnc given: %v) appends %x to %d bytes, want %x", name, withPrev, got[len(dst):], len(dst), want[len(dst):])
	}
	if !bytes.Equal(dst, keepDst) {
		t.Fatalf("%s: AppendEncode rewrote dst's %d bytes", name, len(dst))
	}
	if !bytes.Equal(prevEnc, keepPrev) {
		t.Fatalf("%s: AppendEncode rewrote prevEnc", name)
	}
	if tail < 0 || tail > len(prevEnc) || tail > len(got)-len(dst) || !bytes.Equal(got[len(got)-tail:], prevEnc[len(prevEnc)-tail:]) {
		t.Fatalf("%s: AppendEncode reports its last %d bytes copied from a %d-byte prevEnc, and they differ", name, tail, len(prevEnc))
	}
	if withPrev && wantTail != nil {
		if want := wantTail(next, prev, prevEnc); tail != want {
			t.Fatalf("%s: AppendEncode reports %d bytes copied, want %d", name, tail, want)
		}
	}
}

// logTail is the encoded length of the entries two logs share at their
// ends: what MLog copies from prevEnc, whether it finds them by identity
// or by walking.
func logTail(next, prev mlog.State, _ []byte) int {
	n := 0
	for k := 1; k <= len(next) && k <= len(prev) && next[len(next)-k] == prev[len(prev)-k]; k++ {
		n += 12 + len(prev[len(prev)-k].Msg)
	}
	return n
}

// appendCase derives a next state from prev by one of the ways a store
// commit or merge can produce one, picked by how: an operation (Do), a
// second one, an unrelated state, prev itself with one value changed in
// place of its bytes, an empty state, or prev unchanged.
type appendCase[S any] struct {
	name  string
	codec appendCodec[S]
	gen   func(r *rand.Rand, n int) S
	// step returns next from prev; how picks the way.
	step func(r *rand.Rand, prev S, how byte) S
	// tail, when non-nil, is the copied run AppendEncode must report.
	tail func(next, prev S, prevEnc []byte) int
}

func (a appendCase[S]) run(t *testing.T, seed int64, n int, script []byte, dstLen, spare int) {
	r := rand.New(rand.NewSource(seed))
	prev := a.gen(r, n)
	next := prev
	for _, how := range script {
		next = a.step(r, next, how)
	}
	buf := make([]byte, dstLen+spare)
	r.Read(buf)
	for _, withPrev := range []bool{true, false} {
		checkAppendEncode(t, a.name, a.codec, buf[:dstLen], next, prev, withPrev, a.tail)
		checkAppendEncode(t, a.name, a.codec, nil, next, prev, withPrev, a.tail)
	}
}

// sharedLogOf returns a log of n entries which is, when it has any, the
// newest state of a block mlog allocated, as a store's head is: appends
// to it share its memory.
func sharedLogOf(r *rand.Rand, n int) mlog.State {
	s := logOf(r, n)
	if n == 0 {
		return s
	}
	s, _ = mlog.Log{}.Do(mlog.Op{Kind: mlog.Append, Msg: s[0].Msg}, s[1:], s[0].T)
	return s
}

// newest is a timestamp above every entry of s.
func newest(s mlog.State) core.Timestamp {
	if len(s) == 0 {
		return 1
	}
	return s[0].T + 1
}

var (
	logCase = appendCase[mlog.State]{"mlog", wire.MLog{}, sharedLogOf, func(r *rand.Rand, s mlog.State, how byte) mlog.State {
		switch how % 7 {
		case 0, 1:
			next, _ := mlog.Log{}.Do(mlog.Op{Kind: mlog.Append, Msg: randString(r)}, s, newest(s)+core.Timestamp(r.Intn(3)))
			return next
		case 2:
			// Another replica's entries, interleaved by a merge.
			return mlog.Log{}.Merge(nil, s, logOf(r, r.Intn(5)))
		case 3:
			// One message replaced by another of its length: same
			// timestamps, same lengths, other bytes (randString's are
			// lower case).
			next := slices.Clone(s)
			for k := range next {
				if i := (k + r.Intn(len(next))) % len(next); next[i].Msg != "" {
					b := []byte(next[i].Msg)
					b[r.Intn(len(b))] = 'A' + byte(r.Intn(26))
					next[i].Msg = string(b)
					break
				}
			}
			return next
		case 4:
			// The same entries, with messages at other addresses.
			next := slices.Clone(s)
			for i := range next {
				next[i].Msg = string([]byte(next[i].Msg))
			}
			return next
		case 5:
			// An older state of s's block.
			return s[r.Intn(len(s)+1):]
		default:
			return nil
		}
	}, logTail}
	setCase = appendCase[orset.SpaceState]{"or-set-space", wire.OrSetSpace{}, randSet, func(r *rand.Rand, s orset.SpaceState, how byte) orset.SpaceState {
		switch how % 4 {
		case 0:
			next, _ := orset.OrSetSpace{}.Do(orset.Op{Kind: orset.Add, E: r.Int63n(1 << 20)}, s, core.Timestamp(r.Int63n(1<<40)))
			return next
		case 1:
			if len(s) == 0 {
				return s
			}
			next, _ := orset.OrSetSpace{}.Do(orset.Op{Kind: orset.Remove, E: s[r.Intn(len(s))].E}, s, 0)
			return next
		case 2:
			return randSet(r, r.Intn(8))
		default:
			return nil
		}
	}, nil}
	pnCase = appendCase[counter.PNState]{"pn-counter", wire.PNCounter{}, func(r *rand.Rand, n int) counter.PNState {
		return counter.PNState{P: int64(n), N: r.Int63n(100)}
	}, func(r *rand.Rand, s counter.PNState, how byte) counter.PNState {
		kind := counter.Inc
		if how%2 == 1 {
			kind = counter.Dec
		}
		next, _ := counter.PNCounter{}.Do(counter.Op{Kind: kind, N: r.Int63n(10)}, s, 0)
		return next
	}, nil}
)

// FuzzAppendEncodeMatchesEncode: for every codec with the append form,
// AppendEncode(dst, next, prev, prevEnc) is dst followed by Encode(next),
// for next reached from prev by operations, merges, replaced messages,
// copied messages, an older state of prev's block, or an unrelated or
// empty state, with prevEnc given and nil, and a dst empty or holding
// bytes, with spare capacity holding others. The log's prev is the newest
// state of a block, so its appends share prev's memory; the run the log
// reports copied is exactly the encoding of the entries next and prev
// share at their ends.
func FuzzAppendEncodeMatchesEncode(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{}, uint8(0), uint8(0))
	f.Add(int64(2), uint8(5), []byte{0}, uint8(0), uint8(64))
	f.Add(int64(3), uint8(20), []byte{0, 0, 0}, uint8(7), uint8(200))
	f.Add(int64(4), uint8(12), []byte{2, 0}, uint8(3), uint8(0))
	f.Add(int64(5), uint8(12), []byte{3}, uint8(0), uint8(16))
	f.Add(int64(6), uint8(9), []byte{4, 0}, uint8(1), uint8(1))
	f.Add(int64(7), uint8(9), []byte{5}, uint8(4), uint8(4))
	f.Add(int64(8), uint8(30), []byte{1, 0, 2, 3, 4, 5}, uint8(9), uint8(99))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, script []byte, dstLen, spare uint8) {
		if len(script) > 16 {
			script = script[:16]
		}
		logCase.run(t, seed, int(n%40), script, int(dstLen), int(spare))
		setCase.run(t, seed, int(n%40), script, int(dstLen), int(spare))
		pnCase.run(t, seed, int(n), script, int(dstLen), int(spare))
	})
}

// TestDecodeAndCheckKeepNoInput: the store may overwrite a buffer once a
// codec has decoded or checked it — its append form encodes into one, and
// an import reassembles a shipped patch into one whatever the codec
// (store.Codec) — so Decode's state shares no bytes with its input —
// overwriting the input leaves its encoding as it was — and Check neither
// writes its input nor depends on it afterwards.
func TestDecodeAndCheckKeepNoInput(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	t.Run("mlog", func(t *testing.T) { keepsNoInput(t, wire.MLog{}, logOf(r, 30)) })
	t.Run("or-set-space", func(t *testing.T) { keepsNoInput(t, wire.OrSetSpace{}, randSet(r, 30)) })
	t.Run("pn-counter", func(t *testing.T) { keepsNoInput(t, wire.PNCounter{}, counter.PNState{P: 9, N: 4}) })
	// The collection codecs without Check.
	t.Run("gset", func(t *testing.T) { decodeKeepsNoInput(t, wire.GSet{}, gset.State{1, 5, 9}) })
	t.Run("gmap", func(t *testing.T) {
		decodeKeepsNoInput(t, wire.GMap{}, gmap.State{{K: "a", T: 1, V: 10}, {K: "bc", T: 2, V: -20}})
	})
	t.Run("or-set", func(t *testing.T) { decodeKeepsNoInput(t, wire.OrSet{}, orset.State{{E: 1, T: 1}, {E: 1, T: 4}}) })
	t.Run("or-set-spacetime", func(t *testing.T) {
		decodeKeepsNoInput(t, wire.OrSetSpaceTime{}, orset.BuildBalanced(randSet(r, 30)))
	})
	t.Run("queue", func(t *testing.T) { decodeKeepsNoInput(t, wire.Queue{}, twoListQueue(3, 4)) })
	t.Run("chat", func(t *testing.T) {
		decodeKeepsNoInput(t, wire.Chat{}, chat.State{{K: "#empty", V: nil}, {K: "#go", V: logOf(r, 5)}})
	})
}

func keepsNoInput[S any](t *testing.T, c appendCodec[S], s S) {
	decodeKeepsNoInput(t, c, s)
	orig := c.Encode(s)
	buf := slices.Clone(orig)
	if err := c.Check(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("Check wrote into its input")
	}
	for i := range buf {
		buf[i] = 0xff
	}
	if err := c.Check(slices.Clone(orig)); err != nil {
		t.Fatalf("Check of the original bytes fails after its last input was overwritten: %v", err)
	}
}

// decodeKeepsNoInput: Decode writes nothing into its input, and the state
// it returns encodes as before once the input is overwritten.
func decodeKeepsNoInput[S any](t *testing.T, c interface {
	Encode(S) []byte
	Decode([]byte) (S, error)
}, s S) {
	t.Helper()
	orig := c.Encode(s)
	buf := slices.Clone(orig)
	dec, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("Decode wrote into its input")
	}
	for i := range buf {
		buf[i] = 0xff
	}
	if got := c.Encode(dec); !bytes.Equal(got, orig) {
		t.Fatalf("overwriting Decode's input changed the decoded state: it encodes to %x, was %x", got, orig)
	}
}

// TestDecodedLogAppendCopies: a decoded log owns no spare slot, so the
// first append to it copies it into a block of its own, and the appends
// after that share; every one encodes as Encode does.
func TestDecodedLogAppendCopies(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s, err := wire.MLog{}.Decode(wire.MLog{}.Encode(logOf(r, 50)))
	if err != nil {
		t.Fatal(err)
	}
	for k := range 3 {
		next, _ := mlog.Log{}.Do(mlog.Op{Kind: mlog.Append, Msg: randString(r)}, s, newest(s))
		if shared := unsafe.SliceData(next[1:]) == unsafe.SliceData(s); shared != (k > 0) {
			t.Fatalf("append %d shares its parent's memory: %v, want %v", k, shared, k > 0)
		}
		checkAppendEncode(t, "mlog", wire.MLog{}, nil, next, s, true, logTail)
		s = next
	}
}
