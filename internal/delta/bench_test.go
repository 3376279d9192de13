package delta_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/delta"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/wire"
)

var benchSink []byte

// benchInputs builds one (base, target) pair of about size bytes per edit
// shape: a record prepended behind the count header (mlog append), one
// pair inserted mid-way into a sorted pair list (or-set add), 64 single
// byte edits, and two unrelated inputs.
func benchInputs(size int) []corpusCase {
	rng := rand.New(rand.NewSource(int64(size)))
	log := make(mlog.State, size/(12+24))
	for i := range log {
		log[i] = mlog.Entry{T: lamport(int64(len(log)-i), 1), Msg: randMsg(rng, 24)}
	}
	grown := append(mlog.State{{T: lamport(int64(len(log)+1), 1), Msg: randMsg(rng, 24)}}, log...)

	ps := sortedPairs(rng, size/16)
	mid := len(ps) / 2
	inserted := slices.Insert(slices.Clone(ps), mid, orset.Pair{E: ps[mid].E - 1, T: lamport(1<<24, 3)})

	base := make([]byte, size)
	rng.Read(base)
	scattered := slices.Clone(base)
	for e := 0; e < 64; e++ {
		scattered[rng.Intn(size)] ^= 0xff
	}
	other := make([]byte, size)
	rng.Read(other)

	return []corpusCase{
		{"prepend", wire.MLog{}.Encode(log), wire.MLog{}.Encode(grown)},
		{"sorted-insert", wire.OrSetSpace{}.Encode(ps), wire.OrSetSpace{}.Encode(inserted)},
		{"scattered-64", base, scattered},
		{"disjoint", base, other},
	}
}

func BenchmarkDeltaMake(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		for _, c := range benchInputs(size) {
			b.Run(fmt.Sprintf("%s/%dKB", c.name, size>>10), func(b *testing.B) {
				b.SetBytes(int64(len(c.target)))
				b.ReportAllocs()
				for b.Loop() {
					benchSink = delta.Make(c.base, c.target)
				}
			})
		}
	}
}
