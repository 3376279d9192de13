package wire_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/orset"
	"repro/internal/wire"
)

var (
	pairSink  orset.SpaceState
	bytesSink []byte
	errSink   error
)

// BenchmarkPairCodec times the OR-set pair kernels on 2 800 pairs, the
// size of a catchup-deep or-set state.
func BenchmarkPairCodec(b *testing.B) {
	ps := make(orset.SpaceState, 2800)
	for i := range ps {
		ps[i] = orset.Pair{E: int64(3 * i), T: core.Timestamp(i<<16 | i%4)}
	}
	enc := wire.OrSetSpace{}.Encode(ps)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for b.Loop() {
			bytesSink = wire.OrSetSpace{}.Encode(ps)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for b.Loop() {
			pairSink, _ = wire.OrSetSpace{}.Decode(enc)
		}
	})
	b.Run("check", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for b.Loop() {
			errSink = wire.OrSetSpace{}.Check(enc)
		}
	})
}
