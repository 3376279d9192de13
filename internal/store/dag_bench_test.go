package store

import (
	"fmt"
	"testing"

	"repro/internal/counter"
)

// DAG-scaling benchmarks: the generation-guided walks must cost
// O(divergence) regardless of history length, where the retained
// reference implementations grow linearly with history. Run with
//
//	go test ./internal/store -bench 'PullDeepHistory|ExclusiveOps|LCA' -benchtime 1x
//
// and compare across history= sub-benchmarks: the fast rows stay flat,
// the Ref rows grow with history.

var benchHistories = []int{100, 1000, 10000}

// deepPair builds a store with history operations on main and a dev
// branch forked at the tip, returning the store.
func deepPair(history int) *Store[int64, counter.Op, counter.Val] {
	s := newInternalCounterStore()
	for i := 0; i < history; i++ {
		if _, err := s.Apply("main", counter.Op{Kind: counter.Inc, N: 1}); err != nil {
			panic(err)
		}
	}
	if err := s.Fork("main", "dev"); err != nil {
		panic(err)
	}
	return s
}

// BenchmarkStorePullDeepHistory measures a constant-size diamond merge —
// one fresh operation on each side, then Sync — on top of histories of
// growing depth. The acceptance bar for the O(divergence) engine is that
// ns/op stays flat (±2×) from history=100 to history=10000.
func BenchmarkStorePullDeepHistory(b *testing.B) {
	for _, history := range benchHistories {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			b.ReportAllocs()
			s := deepPair(history)
			op := counter.Op{Kind: counter.Inc, N: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Apply("main", op); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Apply("dev", op); err != nil {
					b.Fatal(err)
				}
				if err := s.Sync("main", "dev"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// diamond builds a history-deep chain with a divergence-sized fork pair
// above it and returns (base, headA, headB) for direct walk benchmarks.
func diamond(history, divergence int) (*Store[int64, counter.Op, counter.Val], Hash, Hash, Hash) {
	s := newInternalCounterStore()
	base := commitChain(s, mainRoot(s), history)
	a := commitChain(s, base, divergence)
	b := commitChain(s, base, divergence)
	return s, base, a, b
}

func BenchmarkStoreLCA(b *testing.B) {
	for _, history := range benchHistories {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			b.ReportAllocs()
			s, _, x, y := diamond(history, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mergeBase(s, x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreLCARef(b *testing.B) {
	for _, history := range benchHistories {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			b.ReportAllocs()
			s, _, x, y := diamond(history, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refMergeBase(s, x, y)
			}
		})
	}
}

// BenchmarkStoreLCACrissCross exercises the virtual-base recursion: a
// criss-cross (two maximal common ancestors) sitting on top of a deep
// history. The paint-down walk must still never descend past the fork.
func BenchmarkStoreLCACrissCross(b *testing.B) {
	for _, history := range benchHistories {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			b.ReportAllocs()
			s := newInternalCounterStore()
			fork := commitChain(s, mainRoot(s), history)
			t1 := commitChain(s, fork, 1)
			t2 := commitChain(s, fork, 2)
			ma := mergeCommit(s, t1, t2, 100)
			mb := mergeCommit(s, t2, t1, 100)
			x := commitChain(s, ma, 1)
			y := commitChain(s, mb, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mergeBase(s, x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
