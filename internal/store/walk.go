package store

// Generation-guided DAG walks. The merge-base search and the head-set
// reduction are flag-propagation walks over the commit DAG
// that visit commits in strictly non-increasing generation order, which
// gives them two properties the old full-ancestor-set implementations
// lacked:
//
//   - Flag completeness at pop: every path from a walk source down to a
//     commit consists of commits with strictly larger generations, so by
//     the time a commit is popped, every flag that can ever reach it has
//     reached it. Decisions made at pop time are final.
//
//   - Early termination: the walk stops as soon as every queued commit
//     carries the walk's "boring" flag, so it never descends
//     past the region the query is actually about — cost is
//     O(divergence), not O(history).
//
// The retained full-set merge-base search in reference.go is the
// executable specification; property tests require the two to agree on
// randomized DAGs.

// Flag bits carried by painted commits: the merge-base walk paints
// flagP1/flagP2 down from the two tip sets and marks common ancestors'
// histories flagStale.
const (
	flagP1    uint8 = 1 << iota // reachable from the first tip
	flagP2                      // reachable from the second tip
	flagStale                   // ancestor of an already-found common ancestor
)

// genItem is one queued commit keyed by its generation number.
type genItem struct {
	h   Hash
	gen int
}

// genHeap is a binary max-heap on generation number.
type genHeap []genItem

func (q *genHeap) push(it genItem) {
	*q = append(*q, it)
	i := len(*q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*q)[parent].gen >= (*q)[i].gen {
			break
		}
		(*q)[parent], (*q)[i] = (*q)[i], (*q)[parent]
		i = parent
	}
}

func (q *genHeap) pop() genItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h[l].gen > h[big].gen {
			big = l
		}
		if r < n && h[r].gen > h[big].gen {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	return top
}

// painter runs a generation-ordered flag-propagation walk. boring is the
// flag that makes a queued commit irrelevant to termination: the walk is
// done when every queued commit carries it.
type painter struct {
	// commit resolves a hash to its commit — a bound store accessor, so
	// the walk reads through the frozen checkpoint index as well as the
	// mutable map.
	commit      func(Hash) Commit
	flags       map[Hash]uint8
	inQueue     map[Hash]bool
	queue       genHeap
	boring      uint8
	interesting int // queued commits whose flags lack the boring bit
}

func newPainter(commit func(Hash) Commit, boring uint8) *painter {
	return &painter{
		commit:  commit,
		flags:   make(map[Hash]uint8),
		inQueue: make(map[Hash]bool),
		boring:  boring,
	}
}

// add merges f into h's flags, queueing h if it is new. Flags only ever
// flow from a popped commit to its parents, whose generations are
// strictly smaller than every generation popped so far, so a commit that
// already left the queue can never gain flags here.
func (p *painter) add(h Hash, f uint8) {
	old, seen := p.flags[h]
	merged := old | f
	if seen && merged == old {
		return
	}
	p.flags[h] = merged
	if !seen {
		p.queue.push(genItem{h: h, gen: p.commit(h).Gen})
		p.inQueue[h] = true
		if merged&p.boring == 0 {
			p.interesting++
		}
		return
	}
	if p.inQueue[h] && old&p.boring == 0 && merged&p.boring != 0 {
		p.interesting--
	}
}

// active reports whether any queued commit still lacks the boring flag.
func (p *painter) active() bool { return p.interesting > 0 }

// pop removes the queued commit with the highest generation and returns
// it with its (final) flags.
func (p *painter) pop() (Hash, uint8) {
	it := p.queue.pop()
	p.inQueue[it.h] = false
	f := p.flags[it.h]
	if f&p.boring == 0 {
		p.interesting--
	}
	return it.h, f
}
