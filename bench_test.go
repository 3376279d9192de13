package repro

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (§7) as testing.B benchmarks, one family per figure:
//
//	Figure 12 — BenchmarkFig12QueueMerge{Peepul,Quark}
//	Figure 13 — BenchmarkFig13ORSetWorkload{Quark,Peepul}
//	Figure 14 — BenchmarkFig14Mixed{OrSet,OrSetSpace,OrSetSpaceTime}
//	Figure 15 — BenchmarkFig15Footprint (reports bytes as a metric)
//	Table 3   — BenchmarkTable3Certify{Counter,ORSetSpace,Queue}
//
// plus the ablation benchmarks for the design choices listed in DESIGN.md.
// `go run ./cmd/peepul-bench` prints the same data as paper-style rows.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/quark"
	"repro/internal/queue"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/peepul"
)

const benchSeed = 1

// --- Figure 12: queue merge time, Peepul vs Quark ---

func BenchmarkFig12QueueMergePeepul(b *testing.B) {
	var impl queue.Queue
	for _, n := range []int{1000, 2000, 3000, 4000, 5000} {
		lca, qa, qb := bench.QueueWorkload(n, benchSeed)
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = impl.Merge(lca, qa, qb)
			}
		})
	}
}

func BenchmarkFig12QueueMergeQuark(b *testing.B) {
	var impl quark.Queue
	// The Quark merge is Θ(n²) in time and space; cap the sweep so the
	// benchmark suite stays runnable (peepul-bench runs the full sweep).
	for _, n := range []int{1000, 2000, 3000} {
		lca, qa, qb := bench.QueueWorkload(n, benchSeed)
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = impl.Merge(lca, qa, qb)
			}
		})
	}
}

// --- Figure 13: OR-set workload+merge, Quark vs Peepul ---

func BenchmarkFig13ORSetWorkloadQuark(b *testing.B) {
	var impl quark.OrSet
	for _, n := range []int{10000, 50000, 100000} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l, sa, sb := bench.OrSetMergeWorkload[orset.State](impl, n, bench.Fig13ValueRange, benchSeed)
				m := impl.Merge(l, sa, sb)
				b.ReportMetric(float64(len(m)), "finalsize")
			}
		})
	}
}

func BenchmarkFig13ORSetWorkloadPeepul(b *testing.B) {
	var impl orset.OrSetSpace
	for _, n := range []int{10000, 50000, 100000} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l, sa, sb := bench.OrSetMergeWorkload[orset.SpaceState](impl, n, bench.Fig13ValueRange, benchSeed)
				m := impl.Merge(l, sa, sb)
				b.ReportMetric(float64(len(m)), "finalsize")
			}
		})
	}
}

// --- Figure 14: mixed 70/20/10 workload over the three Peepul OR-sets ---

func benchmarkFig14(b *testing.B, run func(ops []bench.MixedOp)) {
	for _, n := range []int{5000, 15000, 30000} {
		ops := bench.MixedOrSetWorkload(n, bench.Fig14ValueRange, benchSeed)
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(ops)
			}
		})
	}
}

func BenchmarkFig14MixedOrSet(b *testing.B) {
	benchmarkFig14(b, func(ops []bench.MixedOp) {
		runMixedBench[orset.State](orset.OrSet{}, ops)
	})
}

func BenchmarkFig14MixedOrSetSpace(b *testing.B) {
	benchmarkFig14(b, func(ops []bench.MixedOp) {
		runMixedBench[orset.SpaceState](orset.OrSetSpace{}, ops)
	})
}

func BenchmarkFig14MixedOrSetSpaceTime(b *testing.B) {
	benchmarkFig14(b, func(ops []bench.MixedOp) {
		runMixedBench[orset.TreeState](orset.OrSetSpaceTime{}, ops)
	})
}

func runMixedBench[S any](impl core.MRDT[S, orset.Op, orset.Val], ops []bench.MixedOp) {
	lca := impl.Init()
	branches := [2]S{impl.Init(), impl.Init()}
	ts := core.Timestamp(1)
	for i, mo := range ops {
		next, _ := impl.Do(mo.Op, branches[mo.Branch], ts)
		ts++
		branches[mo.Branch] = next
		if (i+1)%bench.Fig14MergeEvery == 0 {
			merged := impl.Merge(lca, branches[0], branches[1])
			lca, branches[0], branches[1] = merged, merged, merged
		}
	}
}

// --- Figure 15: maximum footprint of the three OR-sets ---

func BenchmarkFig15Footprint(b *testing.B) {
	for _, n := range []int{5000, 30000} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			var rows []bench.Fig15Row
			for i := 0; i < b.N; i++ {
				rows = bench.Fig15([]int{n}, benchSeed)
			}
			b.ReportMetric(float64(rows[0].OrSet), "orset-bytes")
			b.ReportMetric(float64(rows[0].Space), "space-bytes")
			b.ReportMetric(float64(rows[0].SpaceTime), "spacetime-bytes")
		})
	}
}

// --- Table 3′: certification cost per data type ---

func benchmarkCertify(b *testing.B, name string) {
	r, ok := peepul.Lookup(name)
	if !ok {
		b.Fatalf("datatype %q not registered", name)
	}
	cfg := r.Config()
	cfg.RandomExecutions = 25
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := r.Certify(cfg); rep.Err != nil {
			b.Fatal(rep.Err)
		}
	}
}

func BenchmarkTable3CertifyCounter(b *testing.B) { benchmarkCertify(b, "inc-counter") }

func BenchmarkTable3CertifyORSetSpace(b *testing.B) { benchmarkCertify(b, "or-set-space") }

func BenchmarkTable3CertifyQueue(b *testing.B) { benchmarkCertify(b, "functional-queue") }

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationOrSetMergeSorted compares the linear sorted-slice OR-set
// merge against the naive O(n²) set-formula evaluation.
func BenchmarkAblationOrSetMergeSorted(b *testing.B) {
	var impl orset.OrSet
	l, sa, sb := bench.OrSetMergeWorkload[orset.State](impl, 4000, 1000, benchSeed)
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = impl.Merge(l, sa, sb)
		}
	})
	b.Run("naive-quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bench.NaiveOrSetMerge(l, sa, sb)
		}
	})
}

// BenchmarkAblationQueueIntersection compares the three-pointer linear
// LCA-survivor computation against per-element membership scans.
func BenchmarkAblationQueueIntersection(b *testing.B) {
	lca, qa, qb := bench.QueueWorkload(4000, benchSeed)
	l, as, bs := lca.ToSlice(), qa.ToSlice(), qb.ToSlice()
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bench.QueueIntersectionLinear(l, as, bs)
		}
	})
	b.Run("naive-quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bench.NaiveQueueIntersection(l, as, bs)
		}
	})
}

// BenchmarkAblationLookup compares membership queries on the sorted-slice
// OR-set-space against the AVL-backed OR-set-spacetime.
func BenchmarkAblationLookup(b *testing.B) {
	var space orset.OrSetSpace
	var tree orset.OrSetSpaceTime
	sp := space.Init()
	tr := tree.Init()
	ts := core.Timestamp(1)
	for e := int64(0); e < 10000; e++ {
		sp, _ = space.Do(orset.Op{Kind: orset.Add, E: e}, sp, ts)
		tr, _ = tree.Do(orset.Op{Kind: orset.Add, E: e}, tr, ts)
		ts++
	}
	b.Run("or-set-space-add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = space.Do(orset.Op{Kind: orset.Add, E: int64(i % 10000)}, sp, ts)
		}
	})
	b.Run("or-set-spacetime-add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = tree.Do(orset.Op{Kind: orset.Add, E: int64(i % 10000)}, tr, ts)
		}
	})
	b.Run("or-set-space-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = space.Do(orset.Op{Kind: orset.Lookup, E: int64(i % 10000)}, sp, ts)
		}
	})
	b.Run("or-set-spacetime-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = tree.Do(orset.Op{Kind: orset.Lookup, E: int64(i % 10000)}, tr, ts)
		}
	})
}

// BenchmarkAblationStoreLCA measures merge-base location cost as history
// depth grows (the store walks ancestor sets; deeper DAGs cost more).
func BenchmarkAblationStoreLCA(b *testing.B) {
	for _, depth := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			st := store.New[int64, counter.Op, counter.Val](counter.IncCounter{}, wire.IncCounter{}, "main")
			if err := st.Fork("main", "dev"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < depth; i++ {
				st.Apply("main", counter.Op{Kind: counter.Inc, N: 1})
				st.Apply("dev", counter.Op{Kind: counter.Inc, N: 1})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Apply("main", counter.Op{Kind: counter.Inc, N: 1})
				st.Apply("dev", counter.Op{Kind: counter.Inc, N: 1})
				if err := st.Sync("main", "dev"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreApply measures the end-to-end cost of one operation commit
// through the content-addressed store.
func BenchmarkStoreApply(b *testing.B) {
	st := store.New[orset.SpaceState, orset.Op, orset.Val](orset.OrSetSpace{}, wire.OrSetSpace{}, "main")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Apply("main", orset.Op{Kind: orset.Add, E: int64(i % 1000)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreApplyGrowing measures one append committed onto a
// mergeable log that already holds n entries: the per-commit cost of a
// state that grows with history. Commits go to a branch forked from the
// n-entry log and replaced once it has grown by a tenth, so every timed
// commit sees about n entries. A replaced branch stays, as every branch
// of a store does: a store with many branches must not pay for them on
// each commit. The or-set variants add elements that land anywhere in
// the set, to the space-efficient set's sorted slice and to the
// space- and time-efficient set's tree.
func BenchmarkStoreApplyGrowing(b *testing.B) {
	appendOp := func(int) mlog.Op { return mlog.Op{Kind: mlog.Append, Msg: "a message of 24 bytes ok"} }
	addOp := func(i int) orset.Op { return orset.Op{Kind: orset.Add, E: int64(uint32(i) * 2654435761)} }
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("mlog-%d", n), func(b *testing.B) {
			applyGrowing(b, store.New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, wire.MLog{}, "main"), n, appendOp)
		})
	}
	// 3 000 adds is the set catchup-deep's set-up builds.
	for _, n := range []int{1_000, 3_000, 10_000} {
		b.Run(fmt.Sprintf("or-set-%d", n), func(b *testing.B) {
			applyGrowing(b, store.New[orset.SpaceState, orset.Op, orset.Val](orset.OrSetSpace{}, wire.OrSetSpace{}, "main"), n, addOp)
		})
	}
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("or-set-spacetime-%d", n), func(b *testing.B) {
			applyGrowing(b, store.New[orset.TreeState, orset.Op, orset.Val](orset.OrSetSpaceTime{}, wire.OrSetSpaceTime{}, "main"), n, addOp)
		})
	}
}

// applyGrowing fills st's main branch with n operations, then times ops
// on forks of it, each replaced once it has grown by a tenth.
func applyGrowing[S, Op, Val any](b *testing.B, st *store.Store[S, Op, Val], n int, op func(int) Op) {
	for i := 0; i < n; i++ {
		if _, err := st.Apply("main", op(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	branch := ""
	for i := 0; b.Loop(); i++ {
		if i%(n/10) == 0 {
			branch = fmt.Sprintf("b%d", i)
			if err := st.Fork("main", branch); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := st.Apply(branch, op(n+i)); err != nil {
			b.Fatal(err)
		}
	}
}
