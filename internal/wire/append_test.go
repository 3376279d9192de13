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
	"repro/internal/delta"
	"repro/internal/gmap"
	"repro/internal/gset"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/wire"
)

// appendCodec is a codec with the store's append form (store.Codec).
type appendCodec[S any] interface {
	wire.Codec[S]
	AppendEncode(dst []byte, next, prev S, prevEnc []byte, runs []delta.CopyRun) ([]byte, []delta.CopyRun)
}

var (
	_ appendCodec[mlog.State]       = wire.MLog{}
	_ appendCodec[orset.SpaceState] = wire.OrSetSpace{}
	_ appendCodec[orset.TreeState]  = wire.OrSetSpaceTime{}
	_ appendCodec[counter.PNState]  = wire.PNCounter{}
)

// checkAppendEncode holds AppendEncode to its contract: it appends
// exactly Encode(next) to dst, given prevEnc = Encode(prev) or, without
// withPrev, nil, and leaves dst's bytes and prevEnc as they were. dst's
// spare capacity may hold anything, as a recycled buffer's does. It keeps
// the runs it is handed and appends after them runs that ascend, lie
// inside both encodings, do not overlap, and name bytes it copied:
// enc[At:At+Len] == prevEnc[Off:Off+Len] for enc, what it appended — a
// false run would corrupt the patch the store diffs with it. Without
// prevEnc it reports none; with it and wantCopied, the runs add up to
// wantCopied(next, prev) bytes.
func checkAppendEncode[S any](t *testing.T, name string, c appendCodec[S], dst []byte, next, prev S, withPrev bool, wantCopied func(next, prev S) int) {
	t.Helper()
	var prevEnc []byte
	if withPrev {
		prevEnc = c.Encode(prev)
	}
	keepDst, keepPrev := slices.Clone(dst), slices.Clone(prevEnc)
	held := delta.CopyRun{At: -1, Off: -2, Len: -3} // the caller's own
	got, runs := c.AppendEncode(dst, next, prev, prevEnc, []delta.CopyRun{held})
	if want := append(slices.Clone(keepDst), c.Encode(next)...); !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendEncode (prevEnc given: %v) appends %x to %d bytes, want %x", name, withPrev, got[len(dst):], len(dst), want[len(dst):])
	}
	if !bytes.Equal(dst, keepDst) {
		t.Fatalf("%s: AppendEncode rewrote dst's %d bytes", name, len(dst))
	}
	if !bytes.Equal(prevEnc, keepPrev) {
		t.Fatalf("%s: AppendEncode rewrote prevEnc", name)
	}
	if len(runs) == 0 || runs[0] != held {
		t.Fatalf("%s: AppendEncode dropped the runs it was handed: %v", name, runs)
	}
	enc, end, copied := got[len(dst):], 0, 0
	for _, r := range runs[1:] {
		if r.Len <= 0 || r.At < end || r.Off < 0 || r.Len > len(enc)-r.At || r.Len > len(prevEnc)-r.Off {
			t.Fatalf("%s: AppendEncode reports runs %v of a %d-byte encoding from a %d-byte prevEnc: not ascending, in bounds and apart", name, runs[1:], len(enc), len(prevEnc))
		}
		if !bytes.Equal(enc[r.At:r.At+r.Len], prevEnc[r.Off:r.Off+r.Len]) {
			t.Fatalf("%s: AppendEncode reports %+v copied, and the bytes differ", name, r)
		}
		end = r.At + r.Len
		copied += r.Len
	}
	if !withPrev && copied > 0 {
		t.Fatalf("%s: AppendEncode reports %d bytes copied from no prevEnc", name, copied)
	}
	if withPrev && wantCopied != nil {
		if want := wantCopied(next, prev); copied != want {
			t.Fatalf("%s: AppendEncode reports %d bytes copied, want %d", name, copied, want)
		}
	}
}

// logTail is the encoded length of the entries two logs share at their
// ends: what MLog copies from prevEnc, whether it finds them by identity
// or by walking.
func logTail(next, prev mlog.State) int {
	n := 0
	for k := 1; k <= len(next) && k <= len(prev) && next[len(next)-k] == prev[len(prev)-k]; k++ {
		n += 12 + len(prev[len(prev)-k].Msg)
	}
	return n
}

// pairsCopied is what an OR-set codec copies from prev's encoding into
// next's: when next is prev with at most one pair added, replaced or
// removed, all of it but the count, when that changes, and the pair;
// otherwise nothing.
func pairsCopied(next, prev []orset.Pair) int {
	n := 4 + 16*len(next)
	switch len(next) - len(prev) {
	case 0:
		differ := 0
		for i := range next {
			if next[i] != prev[i] {
				differ++
			}
		}
		switch differ {
		case 0:
			return n
		case 1:
			return n - 16
		}
	case 1:
		for k := range len(next) {
			if slices.Equal(next[:k], prev[:k]) && slices.Equal(next[k+1:], prev[k:]) {
				return n - 20
			}
		}
	case -1:
		for k := range len(prev) {
			if slices.Equal(next[:k], prev[:k]) && slices.Equal(next[k:], prev[k+1:]) {
				return n - 4
			}
		}
	}
	return 0
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
	// copied, when non-nil, is how many bytes AppendEncode must report
	// copied.
	copied func(next, prev S) int
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
		checkAppendEncode(t, a.name, a.codec, buf[:dstLen], next, prev, withPrev, a.copied)
		checkAppendEncode(t, a.name, a.codec, nil, next, prev, withPrev, a.copied)
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
			next, _ := orset.OrSetSpace{}.Do(setOp(r, s, how/4), s, core.Timestamp(r.Int63n(1<<40)))
			return next
		case 1:
			return randSet(r, r.Intn(8))
		case 2:
			// The same pairs, but one.
			next := slices.Clone(s)
			if len(next) > 0 {
				next[r.Intn(len(next))].T++
			}
			return next
		default:
			return nil
		}
	}, func(next, prev orset.SpaceState) int { return pairsCopied(next, prev) }}
	treeCase = appendCase[orset.TreeState]{"or-set-spacetime", wire.OrSetSpaceTime{}, randTree, func(r *rand.Rand, s orset.TreeState, how byte) orset.TreeState {
		switch how % 4 {
		case 0:
			next, _ := orset.OrSetSpaceTime{}.Do(setOp(r, orset.Flatten(s), how/4), s, core.Timestamp(r.Int63n(1<<40)))
			return next
		case 1:
			return randTree(r, r.Intn(8))
		case 2:
			// The same pairs in a tree of another shape.
			return orset.BuildBalanced(orset.Flatten(s))
		default:
			return nil
		}
	}, func(next, prev orset.TreeState) int { return pairsCopied(orset.Flatten(next), orset.Flatten(prev)) }}
	pnCase = appendCase[counter.PNState]{"pn-counter", wire.PNCounter{}, func(r *rand.Rand, n int) counter.PNState {
		return counter.PNState{P: int64(n), N: r.Int63n(100)}
	}, func(r *rand.Rand, s counter.PNState, how byte) counter.PNState {
		kind := counter.Inc
		if how%2 == 1 {
			kind = counter.Dec
		}
		next, _ := counter.PNCounter{}.Do(counter.Op{Kind: kind, N: r.Int63n(10)}, s, 0)
		return next
	}, func(counter.PNState, counter.PNState) int { return 0 }}
)

// randTree returns a tree of n random pairs grown by adds, as a store's
// is between merges.
func randTree(r *rand.Rand, n int) orset.TreeState {
	var s orset.TreeState
	for _, p := range randSet(r, n) {
		s, _ = orset.OrSetSpaceTime{}.Do(orset.Op{Kind: orset.Add, E: p.E}, s, p.T)
	}
	return s
}

// setOp returns an operation on the set s, picked by how: an add of an
// element s lacks, below all of s, above all of it, or anywhere; a
// refresh of its first, a middle or its last element; a remove of one of
// those; or a remove of an element it lacks.
func setOp(r *rand.Rand, s orset.SpaceState, how byte) orset.Op {
	if len(s) == 0 {
		return orset.Op{Kind: orset.Add, E: r.Int63n(1 << 20)}
	}
	pick := []int{0, len(s) / 2, len(s) - 1}[r.Intn(3)]
	switch how % 8 {
	case 0:
		return orset.Op{Kind: orset.Add, E: s[0].E - 1 - r.Int63n(100)}
	case 1:
		return orset.Op{Kind: orset.Add, E: s[len(s)-1].E + 1 + r.Int63n(100)}
	case 2:
		return orset.Op{Kind: orset.Add, E: r.Int63n(1<<20) - 1<<19}
	case 3, 4:
		return orset.Op{Kind: orset.Add, E: s[pick].E}
	case 5, 6:
		return orset.Op{Kind: orset.Remove, E: s[pick].E}
	default:
		return orset.Op{Kind: orset.Remove, E: s[0].E - 1}
	}
}

// TestAppendEncodeRuns: the append-form contract (checkAppendEncode) for
// every codec that has the form — pn-counter, log, or-set and
// or-set-spacetime — over random states and what follows them: one
// operation, among them an add, a refresh and a remove at the first, a
// middle and the last pair, and an add to the empty set; several; an
// unrelated state; the same pairs changed in place or in a tree of
// another shape; and with prevEnc nil. An OR-set edit by one operation
// copies all of prev's encoding but the count, when it changes, and the
// edited pair.
func TestAppendEncodeRuns(t *testing.T) {
	for seed := range int64(400) {
		r := rand.New(rand.NewSource(seed))
		n := []int{0, 1, 2, 3, 17, 100, 1000}[seed%7]
		script := make([]byte, 1+r.Intn(3)*r.Intn(2))
		r.Read(script)
		if seed%4 == 0 {
			script[0] = byte(r.Intn(8)) * 4 // one operation
		}
		dstLen, spare := r.Intn(40), r.Intn(200)
		logCase.run(t, seed, min(n, 300), script, dstLen, spare)
		setCase.run(t, seed, n, script, dstLen, spare)
		treeCase.run(t, seed, n, script, dstLen, spare)
		pnCase.run(t, seed, n, script, dstLen, spare)
	}
}

// FuzzAppendEncodeMatchesEncode: for every codec with the append form,
// AppendEncode(dst, next, prev, prevEnc, runs) is dst followed by
// Encode(next), with runs that name bytes it copied from prevEnc, for
// next reached from prev by operations, merges, replaced messages,
// copied messages, an older state of prev's block, or an unrelated or
// empty state, with prevEnc given and nil, and a dst empty or holding
// bytes, with spare capacity holding others. The log's prev is the newest
// state of a block, so its appends share prev's memory; the run the log
// reports copied is exactly the encoding of the entries next and prev
// share at their ends, and the OR-sets copy all but a one-pair edit.
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
		treeCase.run(t, seed, int(n%40), script, int(dstLen), int(spare))
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
	t.Run("or-set-spacetime", func(t *testing.T) {
		keepsNoInput(t, wire.OrSetSpaceTime{}, orset.BuildBalanced(randSet(r, 30)))
	})
	// The collection codecs without Check.
	t.Run("gset", func(t *testing.T) { decodeKeepsNoInput(t, wire.GSet{}, gset.State{1, 5, 9}) })
	t.Run("gmap", func(t *testing.T) {
		decodeKeepsNoInput(t, wire.GMap{}, gmap.State{{K: "a", T: 1, V: 10}, {K: "bc", T: 2, V: -20}})
	})
	t.Run("or-set", func(t *testing.T) { decodeKeepsNoInput(t, wire.OrSet{}, orset.State{{E: 1, T: 1}, {E: 1, T: 4}}) })
	t.Run("queue", func(t *testing.T) { decodeKeepsNoInput(t, wire.Queue{}, twoListQueue(3, 4)) })
	t.Run("chat", func(t *testing.T) {
		decodeKeepsNoInput(t, wire.Chat{}, chat.State{{K: "#empty", V: nil}, {K: "#go", V: logOf(r, 5)}})
	})
}

func keepsNoInput[S any](t *testing.T, c checkCodec[S], s S) {
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
