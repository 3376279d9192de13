package peepul_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/store"
	"repro/peepul"
)

// foldPermutations are the six delivery orders of three branches.
var foldPermutations = [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// checkFold is the fold precondition for one datatype. Three branches of
// one store take random operations and pull each other now and then, so
// their histories hold canonical merges and criss-crosses. Each branch's
// history is then delivered to fresh stores in every order, every store
// reading its state after each delivery. A store's state over a head set
// is the canonical fold of its members, so the encoded states must be
// byte-identical across orders and equal to the writer's own fold of the
// three branches. A type that fails has a path-dependent concrete merge.
func checkFold[S, Op, Val any](t *testing.T, d peepul.Datatype[S, Op, Val]) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		branches := []string{"b0", "b1", "b2"}
		w := store.NewAt(d.Impl, d.Codec, branches[0], 0)
		for _, b := range branches[1:] {
			if err := w.Fork(branches[0], b); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 30; step++ {
			b := branches[r.Intn(len(branches))]
			var err error
			if r.Intn(4) == 0 {
				err = w.Pull(b, branches[r.Intn(len(branches))])
			} else {
				_, err = w.Apply(b, d.Ops[r.Intn(len(d.Ops))])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		type delivery struct {
			commits []store.ExportedCommit
			heads   []store.Hash
		}
		var ds []delivery
		for _, b := range branches {
			commits, heads, err := w.Export(b)
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, delivery{commits, heads})
		}
		for _, b := range branches[1:] {
			if err := w.Pull(branches[0], b); err != nil {
				t.Fatal(err)
			}
		}
		want, err := w.Head(branches[0])
		if err != nil {
			t.Fatal(err)
		}
		wantEnc, wantHeads := d.Codec.Encode(want), w.Heads(branches[0])
		for k, order := range foldPermutations {
			rs := store.NewAt(d.Impl, d.Codec, "r", 64*(k+1))
			for _, i := range order {
				if _, _, _, err := rs.Integrate("r", "remote/"+branches[i], ds[i].commits, ds[i].heads); err != nil {
					t.Fatal(err)
				}
				if _, err := rs.Head("r"); err != nil {
					t.Fatal(err)
				}
			}
			got, err := rs.Head("r")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rs.Heads("r"), wantHeads) {
				t.Fatalf("seed %d, order %v: heads %v, want %v", seed, order, rs.Heads("r"), wantHeads)
			}
			if enc := d.Codec.Encode(got); !bytes.Equal(enc, wantEnc) {
				t.Fatalf("seed %d, order %v: the fold of %d heads encodes differently from the writer's", seed, order, len(wantHeads))
			}
		}
	}
}

// TestFoldIsPathIndependent runs the fold precondition over every
// registered datatype.
func TestFoldIsPathIndependent(t *testing.T) {
	checks := map[string]func(*testing.T){
		peepul.IncCounter.Name:      func(t *testing.T) { checkFold(t, peepul.IncCounter) },
		peepul.PNCounter.Name:       func(t *testing.T) { checkFold(t, peepul.PNCounter) },
		peepul.EWFlag.Name:          func(t *testing.T) { checkFold(t, peepul.EWFlag) },
		peepul.DWFlag.Name:          func(t *testing.T) { checkFold(t, peepul.DWFlag) },
		peepul.LWWReg.Name:          func(t *testing.T) { checkFold(t, peepul.LWWReg) },
		peepul.GSet.Name:            func(t *testing.T) { checkFold(t, peepul.GSet) },
		peepul.GMap.Name:            func(t *testing.T) { checkFold(t, peepul.GMap) },
		peepul.MLog.Name:            func(t *testing.T) { checkFold(t, peepul.MLog) },
		peepul.OrSet.Name:           func(t *testing.T) { checkFold(t, peepul.OrSet) },
		peepul.OrSetSpace.Name:      func(t *testing.T) { checkFold(t, peepul.OrSetSpace) },
		peepul.OrSetSpaceTime.Name:  func(t *testing.T) { checkFold(t, peepul.OrSetSpaceTime) },
		peepul.Queue.Name:           func(t *testing.T) { checkFold(t, peepul.Queue) },
		peepul.AlphaMapCounter.Name: func(t *testing.T) { checkFold(t, peepul.AlphaMapCounter) },
		peepul.AlphaMapOrSet.Name:   func(t *testing.T) { checkFold(t, peepul.AlphaMapOrSet) },
		peepul.Chat.Name:            func(t *testing.T) { checkFold(t, peepul.Chat) },
	}
	for _, name := range peepul.Names() {
		check, ok := checks[name]
		if !ok {
			t.Fatalf("registered datatype %s has no fold check", name)
		}
		t.Run(name, check)
	}
	if len(checks) != len(peepul.Names()) {
		t.Fatalf("%d fold checks for %d registered datatypes", len(checks), len(peepul.Names()))
	}
}
