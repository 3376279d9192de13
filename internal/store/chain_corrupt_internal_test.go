package store

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/delta"
	"repro/internal/mlog"
)

// TestDamagedChainIsCorruptPack: a damaged patch anywhere in a chain makes
// every read of the states above it fail with ErrCorruptPack — never a
// panic, never a state. One patch of the head's chain is replaced three
// ways: by bytes that do not parse as a patch, by a patch against a base
// one byte longer than the state below it (its lengths disagree with its
// neighbour's), and by a patch that parses and applies but builds a
// different state. Each is read back through Head (a 6-patch chain
// composes into one patch first; a 1-patch chain applies its only patch)
// and through VerifyPack.
func TestDamagedChainIsCorruptPack(t *testing.T) {
	damages := []struct {
		name  string
		patch func(base, enc []byte) []byte
	}{
		{"unparseable", func(_, _ []byte) []byte { return bytes.Repeat([]byte{0xff}, 12) }},
		{"length mismatch", func(base, enc []byte) []byte { return delta.Make(append(slices.Clone(base), 0), enc) }},
		{"different state", func(base, enc []byte) []byte {
			other := slices.Clone(enc)
			other[len(other)-1] ^= 0x01 // the last byte of the oldest message
			return delta.Make(base, other)
		}},
	}
	for _, depth := range []int{1, 6} {
		for _, dmg := range damages {
			t.Run(fmt.Sprintf("%d-patch chain, %s", depth, dmg.name), func(t *testing.T) {
				s := New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main")
				// The first append is stored whole (a patch against the empty
				// log would outweigh it); each one after adds a patch.
				appendN(t, s, depth+1)
				head, err := s.HeadHash("main")
				if err != nil {
					t.Fatal(err)
				}
				top := s.commits[head].State
				if d := s.objects[top].depth; d != depth {
					t.Fatalf("head state sits %d patches above its snapshot, want %d", d, depth)
				}
				// The victim is the chain's middle patch: the only one of a
				// 1-patch chain, the third of six.
				victim := top
				for s.objects[victim].depth > (depth+1)/2 {
					victim = s.objects[victim].base
				}
				obj := s.objects[victim]
				base, err := s.EncodedState(obj.base)
				if err != nil {
					t.Fatal(err)
				}
				enc, err := s.EncodedState(victim)
				if err != nil {
					t.Fatal(err)
				}
				obj.data = dmg.patch(base, enc)
				obj.stored = len(obj.data)
				// Forget every decoded and reassembled state, so the read
				// rebuilds the chain from the snapshot.
				DropDecodedStates(s)
				s.encHash, s.encBuf = Hash{}, nil

				st, err := s.Head("main")
				if !errors.Is(err, ErrCorruptPack) {
					t.Fatalf("Head over a damaged chain: %v, want ErrCorruptPack", err)
				}
				if st != nil {
					t.Fatalf("Head over a damaged chain returned a state of %d entries", len(st))
				}
				if enc, err := s.EncodedState(top); !errors.Is(err, ErrCorruptPack) || enc != nil {
					t.Fatalf("EncodedState over a damaged chain: %d bytes, %v; want none and ErrCorruptPack", len(enc), err)
				}
				if err := s.VerifyPack(); !errors.Is(err, ErrCorruptPack) {
					t.Fatalf("VerifyPack over a damaged chain: %v, want ErrCorruptPack", err)
				}
			})
		}
	}
}
