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

// BenchmarkDeltaCompose composes what the store composes when a chain is
// full: a composed patch at the bottom (here 300 earlier edits), 30
// chained edits and the new state's own patch, on a 64 KB log (prepends)
// and or-set (scattered inserts).
func BenchmarkDeltaCompose(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	log := make(mlog.State, (64<<10)/(12+24))
	for i := range log {
		log[i] = mlog.Entry{T: lamport(int64(len(log)-i), 1), Msg: randMsg(rng, 24)}
	}
	ps := sortedPairs(rng, (64<<10)/16)
	shapes := []struct {
		name string
		next func(int) []byte
	}{
		{"prepend", func(i int) []byte {
			log = append(mlog.State{{T: lamport(int64(1<<20+i), 1), Msg: randMsg(rng, 24)}}, log...)
			return wire.MLog{}.Encode(log)
		}},
		{"sorted-insert", func(int) []byte {
			ps = insertSorted(rng, ps, 1)
			return wire.OrSetSpace{}.Encode(ps)
		}},
	}
	for _, sh := range shapes {
		snapshot := sh.next(0)
		prev := snapshot
		var chain [][]byte
		for i := 1; i <= 331; i++ {
			next := sh.next(i)
			chain = append(chain, delta.Make(prev, next))
			prev = next
		}
		bottom, err := delta.Compose(chain[:300]...)
		if err != nil {
			b.Fatal(err)
		}
		chain = append([][]byte{bottom}, chain[300:]...)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchSink, _ = delta.Compose(chain...)
			}
		})
	}
}
