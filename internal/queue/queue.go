// Package queue implements the replicated functional queue of §6: an
// Okasaki two-list queue with O(1) amortized enqueue/dequeue promoted to an
// MRDT with a linear-time, tombstone-free three-way merge (Appendix B) and
// at-least-once dequeue semantics — an element may be consumed by
// concurrent dequeues on different branches, and a merge removes every
// element either side dequeued.
//
// Elements are tagged with the unique timestamp of their enqueue, which
// both disambiguates duplicates and supplies the merge order for
// concurrently enqueued elements.
package queue

import (
	"slices"

	"repro/internal/core"
)

// OpKind distinguishes queue operations.
type OpKind int

// Queue operations.
const (
	Enqueue OpKind = iota
	Dequeue
)

// Op is a queue operation; V is the enqueued value (ignored for Dequeue).
type Op struct {
	Kind OpKind
	V    int64
}

// Val is an operation's return value. A dequeue on an empty queue returns
// OK=false (the paper's EMPTY); enqueue always returns the zero Val (⊥).
type Val struct {
	V  int64
	T  core.Timestamp // enqueue timestamp of the dequeued element
	OK bool
}

// ValEq compares return values.
func ValEq(a, b Val) bool { return a == b }

// Pair is one queued element with its enqueue timestamp.
type Pair struct {
	T core.Timestamp
	V int64
}

// list is a persistent cons list. Persistence matters: the store retains
// ancestor states as merge bases, so operations must never mutate shared
// structure.
type list struct {
	head Pair
	tail *list
}

func cons(p Pair, l *list) *list { return &list{head: p, tail: l} }

func rev(l *list) *list {
	var out *list
	for ; l != nil; l = l.tail {
		out = cons(l.head, out)
	}
	return out
}

func listLen(l *list) int {
	n := 0
	for ; l != nil; l = l.tail {
		n++
	}
	return n
}

// State is the queue state: front holds the oldest elements in dequeue
// order; back holds the newest elements in reverse order (as in Okasaki's
// two-list queue).
type State struct {
	front *list
	back  *list
}

// Queue is the replicated queue MRDT.
type Queue struct{}

var _ core.MRDT[State, Op, Val] = Queue{}

// Init returns the empty queue.
func (Queue) Init() State { return State{} }

// Len returns the number of queued elements (O(n)).
func (s State) Len() int { return listLen(s.front) + listLen(s.back) }

// ToSlice returns the queue contents oldest-first.
func (s State) ToSlice() []Pair {
	out := make([]Pair, s.Len())
	s.Walk(func(i int, p Pair) { out[i] = p })
	return out
}

// Walk calls f on every queued element with its oldest-first position.
// The back list is stored newest-first and visited in that order, so
// positions do not arrive sorted.
func (s State) Walk(f func(i int, p Pair)) {
	i := 0
	for l := s.front; l != nil; l = l.tail {
		f(i, l.head)
		i++
	}
	i += listLen(s.back)
	for l := s.back; l != nil; l = l.tail {
		i--
		f(i, l.head)
	}
}

// FromSlice builds a queue holding the given elements oldest-first.
func FromSlice(ps []Pair) State {
	var front *list
	for i := len(ps) - 1; i >= 0; i-- {
		front = cons(ps[i], front)
	}
	return State{front: front}
}

// Do applies op at state s with timestamp t. Enqueue conses onto the back
// list in O(1); dequeue pops the front list, reversing the back list into
// the front when the front is exhausted (O(1) amortized).
func (Queue) Do(op Op, s State, t core.Timestamp) (State, Val) {
	switch op.Kind {
	case Enqueue:
		return State{front: s.front, back: cons(Pair{T: t, V: op.V}, s.back)}, Val{}
	case Dequeue:
		if s.front == nil {
			if s.back == nil {
				return s, Val{}
			}
			s = State{front: rev(s.back)}
		}
		h := s.front.head
		return State{front: s.front.tail, back: s.back}, Val{V: h.V, T: h.T, OK: true}
	default:
		return s, Val{}
	}
}

// Merge implements the three-way merge of Appendix B:
//
//	merge_s l a b = intersection l a b @ union (diff_s a l) (diff_s b l)
//
// where intersection keeps the elements of the LCA that neither branch
// has dequeued (in LCA order), diff_s extracts the elements a branch
// enqueued since the LCA, and union orders the two branches' new
// elements by enqueue timestamp. Membership is decided by the enqueue
// timestamp, which is globally unique (Ψ_ts): an LCA element absent from
// a branch was dequeued there and stays dequeued, an element absent from
// the LCA is new on its branch. Deciding by identity rather than by the
// positional suffix walks of Appendix B keeps the merge exact even when
// gossip has interleaved enqueue timestamps across branches and the LCA
// is no longer a timestamp-contiguous prefix of both sides.
func (Queue) Merge(lca, a, b State) State {
	l, as, bs := lca.ToSlice(), a.ToSlice(), b.ToSlice()
	merged := mergeSlices(l, as, bs)
	return FromSlice(merged)
}

func mergeSlices(l, a, b []Pair) []Pair {
	aSet, bSet, lSet := tsSet(a), tsSet(b), tsSet(l)
	out := make([]Pair, 0, len(a)+len(b))
	// intersection: LCA elements neither branch dequeued, in LCA order.
	for _, p := range l {
		if aSet[p.T] && bSet[p.T] {
			out = append(out, p)
		}
	}
	return append(out, union(diff(a, lSet), diff(b, lSet))...)
}

func tsSet(ps []Pair) map[core.Timestamp]bool {
	set := make(map[core.Timestamp]bool, len(ps))
	for _, p := range ps {
		set[p.T] = true
	}
	return set
}

// diff returns the elements of a not in the LCA — the branch's new
// enqueues — sorted by enqueue timestamp (Appendix B's diff_s). The sort
// is a no-op in ordered histories, where the new elements are already an
// ascending suffix.
func diff(a []Pair, l map[core.Timestamp]bool) []Pair {
	var out []Pair
	for _, p := range a {
		if !l[p.T] {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(x, y Pair) int {
		switch {
		case x.T < y.T:
			return -1
		case x.T > y.T:
			return 1
		default:
			return 0
		}
	})
	return out
}

// union merges two timestamp-sorted lists of newly enqueued elements
// (Appendix B's union).
func union(l1, l2 []Pair) []Pair {
	out := make([]Pair, 0, len(l1)+len(l2))
	i, j := 0, 0
	for i < len(l1) && j < len(l2) {
		if l1[i].T < l2[j].T {
			out = append(out, l1[i])
			i++
		} else {
			out = append(out, l2[j])
			j++
		}
	}
	out = append(out, l1[i:]...)
	out = append(out, l2[j:]...)
	return out
}
