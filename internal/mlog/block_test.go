package mlog

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// shares reports whether next is one entry followed by s, in s's memory.
func shares(next, s State) bool {
	return len(s) > 0 && len(next) == len(s)+1 && unsafe.SliceData(next[1:]) == unsafe.SliceData(s)
}

// fresh returns a log of n entries, timestamps 1 to n, as the newest
// state of a new block: an append to a copy starts one, with free slots.
func fresh(n int) State {
	var s State
	for i := 1; i < n; i++ {
		s = append(State{{T: core.Timestamp(i), Msg: "m"}}, s...)
	}
	s, _ = Log{}.Do(Op{Kind: Append, Msg: "m"}, s, core.Timestamp(n))
	return s
}

// appendOf is what an append of e to s must equal: the copy semantics of
// a log whose Do builds a fresh slice.
func appendOf(e Entry, s State) State { return append(State{e}, s...) }

// TestAppendSharesItsParent: appends to the newest state of a log share
// it, and only the appends that start a new block copy, a number that
// grows with the logarithm of the log's length.
func TestAppendSharesItsParent(t *testing.T) {
	var impl Log
	s := impl.Init()
	copies := 0
	for i := 1; i <= 10000; i++ {
		next, _ := impl.Do(Op{Kind: Append, Msg: fmt.Sprint(i)}, s, core.Timestamp(i))
		if !shares(next, s) {
			copies++
		}
		s = next
	}
	if copies > 40 {
		t.Errorf("10⁴ appends copied the log %d times, want at most 40", copies)
	}
	for i, e := range s {
		if want := len(s) - i; e.T != core.Timestamp(want) || e.Msg != fmt.Sprint(want) {
			t.Fatalf("entry %d = %v, want {%d %d}", i, e, want, want)
		}
	}
}

// TestTwoAppendsToOneParent: the first append to a state takes its free
// slot and the second copies; both are correct and the parent does not
// change.
func TestTwoAppendsToOneParent(t *testing.T) {
	var impl Log
	p := fresh(20)
	want := slices.Clone(p)
	a, _ := impl.Do(Op{Kind: Append, Msg: "a"}, p, 21)
	b, _ := impl.Do(Op{Kind: Append, Msg: "b"}, p, 22)
	if !shares(a, p) || shares(b, p) {
		t.Errorf("first append shares the parent: %v, second: %v; want true, false", shares(a, p), shares(b, p))
	}
	if !slices.Equal(p, want) {
		t.Fatal("appending to a state changed it")
	}
	if !slices.Equal(a, appendOf(Entry{21, "a"}, want)) || !slices.Equal(b, appendOf(Entry{22, "b"}, want)) {
		t.Fatalf("appends = %v, %v", a, b)
	}
	// Each is now the front of its own block.
	a2, _ := impl.Do(Op{Kind: Append, Msg: "a2"}, a, 23)
	b2, _ := impl.Do(Op{Kind: Append, Msg: "b2"}, b, 24)
	if !shares(a2, a) || !shares(b2, b) {
		t.Error("an append to either branch's newest state copied it")
	}
	if !slices.Equal(a, appendOf(Entry{21, "a"}, want)) || !slices.Equal(p, want) {
		t.Fatal("a later append changed an earlier state")
	}
}

// TestConcurrentAppendsToOneParent: eight goroutines append to one state
// at once; exactly one of them shares it, every result is the parent
// with its entry in front, and the parent does not change.
func TestConcurrentAppendsToOneParent(t *testing.T) {
	var impl Log
	for round := range 50 {
		p := fresh(100)
		want := slices.Clone(p)
		const n = 8
		out := make([]State, n)
		var wg sync.WaitGroup
		for g := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := p
				for k := range 10 {
					s, _ = impl.Do(Op{Kind: Append, Msg: fmt.Sprint(g, k)}, s, core.Timestamp(1000+g*100+k))
				}
				out[g] = s
			}()
		}
		wg.Wait()
		shared := 0
		for g, s := range out {
			if unsafe.SliceData(s[10:]) == unsafe.SliceData(p) {
				shared++
			}
			ref := want
			for k := range 10 {
				ref = appendOf(Entry{core.Timestamp(1000 + g*100 + k), fmt.Sprint(g, k)}, ref)
			}
			if !slices.Equal(s, ref) {
				t.Fatalf("round %d: goroutine %d's log = %v, want %v", round, g, s[:10], ref[:10])
			}
		}
		if shared != 1 {
			t.Fatalf("round %d: %d goroutines' logs share the parent's memory, want 1", round, shared)
		}
		if !slices.Equal(p, want) {
			t.Fatalf("round %d: concurrent appends changed the parent", round)
		}
	}
}

// TestOtherSlicesCopy: a slice that is not the newest state of a block
// — a literal, a merge's, s[1:], s[:k], a clone, an older state of the
// block, a state whose slot another append took — takes the copy path,
// and the append is still correct; the newest state alone shares.
func TestOtherSlicesCopy(t *testing.T) {
	var impl Log
	older := fresh(30)
	s, _ := impl.Do(Op{Kind: Append, Msg: "m"}, older, 31)
	claimed, _ := impl.Do(Op{Kind: Append, Msg: "m"}, s, 32)
	lit := State{{T: 3, Msg: "c"}, {T: 2, Msg: "b"}, {T: 1, Msg: "a"}}
	withRoom := make(State, 3, 4)
	copy(withRoom, lit)
	cases := map[string]State{
		"literal":       lit,
		"spare cap":     withRoom,
		"merge":         impl.Merge(nil, lit[1:], State{{T: 4, Msg: "d"}}),
		"s[1:]":         s[1:],
		"s[:k]":         s[:len(s)-1],
		"s[:k:k]":       s[:5:5],
		"clone":         slices.Clone(s),
		"older state":   older,
		"claimed front": s,
		"newest":        claimed,
	}
	for name, p := range cases {
		want := slices.Clone(p)
		next, _ := impl.Do(Op{Kind: Append, Msg: "x"}, p, 100)
		if shares(next, p) != (name == "newest") {
			t.Errorf("%s: the append shares its parent's memory: %v", name, shares(next, p))
		}
		if !slices.Equal(next, appendOf(Entry{100, "x"}, want)) || !slices.Equal(p, want) {
			t.Errorf("%s: append = %v (parent now %v)", name, next, p)
		}
	}
}

// TestCallerAppendChangesNoState: a caller that appends to a returned
// state without clipping it writes over the block's sentinel, not over
// any state; the block's later appends copy, and every state keeps its
// value.
func TestCallerAppendChangesNoState(t *testing.T) {
	var impl Log
	var states, want []State
	s := impl.Init()
	for i := 1; i <= 12; i++ {
		s, _ = impl.Do(Op{Kind: Append, Msg: fmt.Sprint(i)}, s, core.Timestamp(i))
		states, want = append(states, s), append(want, slices.Clone(s))
	}
	for k, st := range states {
		grown := append(st, Entry{T: -1, Msg: "caller"})
		if !slices.Equal(grown[:len(st)], want[k]) {
			t.Fatalf("the caller's append changed state %d", k)
		}
	}
	next, _ := impl.Do(Op{Kind: Append, Msg: "after"}, s, 13)
	if !slices.Equal(next, appendOf(Entry{13, "after"}, want[len(want)-1])) {
		t.Fatalf("append after the caller's = %v", next)
	}
	for k, st := range states {
		if !slices.Equal(st, want[k]) {
			t.Fatalf("state %d changed: %v, want %v", k, st, want[k])
		}
	}
	// A clipped state is the caller's to append to.
	clipped := append(s[:len(s):len(s)], Entry{T: -2, Msg: "clipped"})
	if unsafe.SliceData(clipped) == unsafe.SliceData(s) {
		t.Fatal("appending to a clipped state reused the block")
	}
}

// TestSharingMatchesCopySemantics: over random scripts of appends to any
// state seen so far (forks), merges of two of them and sub-slices, every
// state equals what a log that copies on every append computes, and no
// state changes after it is made.
func TestSharingMatchesCopySemantics(t *testing.T) {
	var impl Log
	for seed := range int64(200) {
		r := rand.New(rand.NewSource(seed))
		pool := []State{impl.Init()}
		ref := []State{nil}
		now := core.Timestamp(0)
		for range 200 {
			i := r.Intn(len(pool))
			var next, want State
			switch k := r.Intn(10); {
			case k < 7: // an append, to the newest state or any earlier one
				if k < 4 {
					i = len(pool) - 1
				}
				now++
				e := Entry{T: now, Msg: fmt.Sprint("m", now)}
				next, _ = impl.Do(Op{Kind: Append, Msg: e.Msg}, pool[i], now)
				want = appendOf(e, ref[i])
			case k < 9: // a merge
				j := r.Intn(len(pool))
				next, want = impl.Merge(nil, pool[i], pool[j]), impl.Merge(nil, ref[i], ref[j])
			default: // an older state, as a sub-slice
				if len(pool[i]) == 0 {
					continue
				}
				d := 1 + r.Intn(len(pool[i]))
				next, want = pool[i][d:], ref[i][d:]
			}
			if !slices.Equal(next, want) {
				t.Fatalf("seed %d: state = %v, want %v", seed, next, want)
			}
			pool, ref = append(pool, next), append(ref, slices.Clone(want))
		}
		for k := range pool {
			if !slices.Equal(pool[k], ref[k]) {
				t.Fatalf("seed %d: state %d changed after it was made", seed, k)
			}
		}
	}
}
