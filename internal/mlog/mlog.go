// Package mlog implements the mergeable log MRDT of §5.2 (Figure 7): an
// append-only log that totally orders messages in reverse chronological
// order of their operation timestamps. It is the value type the IRC-style
// chat of §5.1 stores per channel.
//
// The paper's log is an immutable list whose append is a cons that shares
// the whole parent. Here a State is a slice, realised as shared blocks
// (block.go): an append writes its entry into the free slot just before
// its parent's first entry, when the parent is the newest state of a
// block this package allocated, and returns a slice over the same array.
// So an append costs O(1), amortized over the copies that start a new
// block, and every state of one branch's history shares one array.
package mlog

import (
	"slices"

	"repro/internal/core"
)

// OpKind distinguishes log operations.
type OpKind int

// Log operations.
const (
	Read OpKind = iota
	Append
)

// Op is a log operation; Msg is the appended message (ignored for Read).
type Op struct {
	Kind OpKind
	Msg  string
}

// Entry is a timestamped message.
type Entry struct {
	T   core.Timestamp
	Msg string
}

// Val is an operation's return value: the log contents (newest first) for
// Read, nil (⊥) for Append.
type Val struct {
	Log []Entry
}

// ValEq compares return values.
func ValEq(a, b Val) bool { return slices.Equal(a.Log, b.Log) }

// State is the concrete log: entries in strictly descending timestamp
// order (newest first). Treat as immutable. A state Do returned may share
// its array with other states, and its capacity may reach past its
// length into memory this package owns: a caller that appends to a state
// must clip it first (s[:len(s):len(s)]).
type State []Entry

// Log is the mergeable log MRDT.
type Log struct{}

var _ core.MRDT[State, Op, Val] = Log{}

// Init returns the empty log.
func (Log) Init() State { return nil }

// Do applies op at state s with timestamp t. Append prepends (the new
// timestamp is larger than every timestamp already present), sharing s
// (cons).
func (Log) Do(op Op, s State, t core.Timestamp) (State, Val) {
	switch op.Kind {
	case Read:
		return s, Val{Log: slices.Clone(s)}
	case Append:
		return cons(Entry{T: t, Msg: op.Msg}, s), Val{}
	default:
		return s, Val{}
	}
}

// Merge implements Figure 7's specification — the merged log holds every
// entry of both branches, ordered by strictly decreasing timestamp — as
// a linear two-way sorted merge of a and b, deduplicated by timestamp.
// Timestamps are globally unique (Ψ_ts), so an equal-timestamp pair is
// one entry seen from both branches, and the LCA's entries are a subset
// of each side's: the union needs no explicit lca term. Working on the
// whole lists rather than diffing against the LCA keeps the merge exact
// even when gossip has interleaved entry timestamps across the branches
// and the LCA is no longer a contiguous suffix of either side.
func (Log) Merge(lca, a, b State) State {
	out := make(State, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].T > b[j].T:
			out = append(out, a[i])
			i++
		case a[i].T < b[j].T:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Spec is F_log (Figure 7): read returns exactly the appended messages,
// ordered by strictly decreasing timestamp.
func Spec(op Op, abs *core.AbstractState[Op, Val]) Val {
	if op.Kind != Read {
		return Val{}
	}
	var log []Entry
	for _, e := range abs.Events() {
		if o := abs.Oper(e); o.Kind == Append {
			log = append(log, Entry{T: abs.Time(e), Msg: o.Msg})
		}
	}
	slices.SortFunc(log, func(x, y Entry) int {
		switch {
		case x.T > y.T:
			return -1
		case x.T < y.T:
			return 1
		default:
			return 0
		}
	})
	return Val{Log: log}
}

// Rsim is R_sim-log (Figure 7): the concrete log contains exactly the
// append events' (timestamp, message) pairs, in reverse chronological
// order.
func Rsim(abs *core.AbstractState[Op, Val], s State) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1].T <= s[i].T {
			return false
		}
	}
	return slices.Equal(Spec(Op{Kind: Read}, abs).Log, []Entry(s))
}
