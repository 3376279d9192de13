package sim_test

import (
	"testing"

	"repro/internal/queue"
	"repro/internal/sim"
)

// Mutation tests for the queue merge: each mutant breaks one piece of the
// Appendix B algorithm and the harness must reject it. Together with the
// passing certification of the real implementation (peepul's
// TestCertifyAll),
// these show every component of the merge is load-bearing.

type mutantQueue struct {
	queue.Queue
	merge func(lca, a, b []queue.Pair) []queue.Pair
}

func (m mutantQueue) Merge(lca, a, b queue.State) queue.State {
	return queue.FromSlice(m.merge(lca.ToSlice(), a.ToSlice(), b.ToSlice()))
}

func queueMutantHarness(name string, merge func(lca, a, b []queue.Pair) []queue.Pair) *sim.Harness[queue.State, queue.Op, queue.Val] {
	return &sim.Harness[queue.State, queue.Op, queue.Val]{
		Name:  name,
		Impl:  mutantQueue{merge: merge},
		Spec:  queue.Spec,
		Rsim:  queue.Rsim,
		ValEq: queue.ValEq,
		Ops: []queue.Op{
			{Kind: queue.Enqueue, V: 1},
			{Kind: queue.Enqueue, V: 2},
			{Kind: queue.Dequeue},
		},
		Probes: []queue.Op{{Kind: queue.Dequeue}},
	}
}

func queueCfg() sim.Config {
	return sim.Config{
		MaxBranches:      2,
		MaxSteps:         4,
		RandomExecutions: 150,
		RandomSteps:      16,
		RandomBranches:   3,
		Seed:             13,
	}
}

// Test-local reimplementations of the merge pieces (the real ones are
// internal to the queue package).
func tDiff(a, l []queue.Pair) []queue.Pair {
	i, j := 0, 0
	for i < len(a) && j < len(l) {
		if l[j].T < a[i].T {
			j++
		} else {
			i++
			j++
		}
	}
	return a[i:]
}

func tUnion(x, y []queue.Pair) []queue.Pair {
	out := make([]queue.Pair, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if x[i].T < y[j].T {
			out = append(out, x[i])
			i++
		} else {
			out = append(out, y[j])
			j++
		}
	}
	out = append(out, x[i:]...)
	return append(out, y[j:]...)
}

func tIntersection(l, a, b []queue.Pair) []queue.Pair {
	var out []queue.Pair
	i, j, k := 0, 0, 0
	for i < len(l) && j < len(a) && k < len(b) {
		if l[i].T < a[j].T || l[i].T < b[k].T {
			i++
		} else {
			out = append(out, l[i])
			i++
			j++
			k++
		}
	}
	return out
}

// Sanity: the reassembled correct merge passes, so the mutants below fail
// for their intended reasons and not because the scaffolding is off.
func TestQueueReassembledMergePasses(t *testing.T) {
	h := queueMutantHarness("queue-reassembled", func(l, a, b []queue.Pair) []queue.Pair {
		return append(tIntersection(l, a, b), tUnion(tDiff(a, l), tDiff(b, l))...)
	})
	if rep := h.Certify(queueCfg()); rep.Err != nil {
		t.Fatalf("reassembled merge must pass: %v", rep.Err)
	}
}

// Dropping the intersection loses every element both branches kept.
func TestQueueMutantNoIntersection(t *testing.T) {
	h := queueMutantHarness("queue-no-intersection", func(l, a, b []queue.Pair) []queue.Pair {
		return tUnion(tDiff(a, l), tDiff(b, l))
	})
	mustFail(t, h.Certify(queueCfg()), "Φ_merge")
}

// Treating all of a branch as "new" resurrects elements the other branch
// dequeued and duplicates survivors.
func TestQueueMutantResurrectsDequeued(t *testing.T) {
	h := queueMutantHarness("queue-resurrect", func(l, a, b []queue.Pair) []queue.Pair {
		return tUnion(a, tDiff(b, l))
	})
	mustFail(t, h.Certify(queueCfg()), "Φ_merge")
}

// Concatenating the two diffs instead of interleaving them by timestamp
// breaks the order of concurrent enqueues.
func TestQueueMutantUnorderedUnion(t *testing.T) {
	h := queueMutantHarness("queue-unordered-union", func(l, a, b []queue.Pair) []queue.Pair {
		out := tIntersection(l, a, b)
		out = append(out, tDiff(a, l)...)
		return append(out, tDiff(b, l)...)
	})
	mustFail(t, h.Certify(queueCfg()), "Φ_")
}

// Appending the intersection after the new elements puts old elements
// behind new ones, breaking FIFO.
func TestQueueMutantIntersectionLast(t *testing.T) {
	h := queueMutantHarness("queue-intersection-last", func(l, a, b []queue.Pair) []queue.Pair {
		return append(tUnion(tDiff(a, l), tDiff(b, l)), tIntersection(l, a, b)...)
	})
	mustFail(t, h.Certify(queueCfg()), "Φ_")
}
