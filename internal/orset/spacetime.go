package orset

import "repro/internal/core"

// TreeNode is a node of the persistent height-balanced (AVL) search tree
// that backs OrSetSpaceTime. Nodes are immutable: updates copy the path
// from the root, so ancestor states retained by the store as merge bases
// stay valid. The tree is keyed by element; each element appears at most
// once, carrying the timestamp of its latest add. Each node keeps its
// subtree's height and size, so a pair's rank is a walk down one path.
type TreeNode struct {
	Pair         Pair
	Left, Right  *TreeNode
	height, size int
}

// TreeState is the OR-set-spacetime state: the root of a persistent AVL
// tree (nil = empty set).
type TreeState = *TreeNode

// OrSetSpaceTime is the space- and time-optimized OR-set of §7.1: the
// semantics of OrSetSpace with O(log n) add/remove/lookup, and a merge that
// returns a height-balanced tree (the paper: "the merge function produces a
// height balanced binary tree").
type OrSetSpaceTime struct{}

var _ core.MRDT[TreeState, Op, Val] = OrSetSpaceTime{}

// Init returns the empty set.
func (OrSetSpaceTime) Init() TreeState { return nil }

// Do applies op at state s with timestamp t.
func (OrSetSpaceTime) Do(op Op, s TreeState, t core.Timestamp) (TreeState, Val) {
	switch op.Kind {
	case Read:
		var elems []int64
		walk(s, func(p Pair) {
			elems = append(elems, p.E)
		})
		return s, Val{Elems: elems}
	case Lookup:
		return s, Val{Found: treeLookup(s, op.E)}
	case Add:
		return treeInsert(s, Pair{E: op.E, T: t}), Val{}
	case Remove:
		return treeDelete(s, op.E), Val{}
	default:
		return s, Val{}
	}
}

// Merge flattens the three trees in order (O(n)), applies the OrSetSpace
// per-element merge on the sorted slices (O(n)), and rebuilds a perfectly
// height-balanced tree from the sorted result (O(n)).
func (OrSetSpaceTime) Merge(lca, a, b TreeState) TreeState {
	merged := OrSetSpace{}.Merge(flatten(lca), flatten(a), flatten(b))
	return buildBalanced(merged)
}

// RsimSpaceTime is the OR-set-spacetime simulation relation: the in-order
// flattening satisfies the OrSetSpace relation (equation 4), and — the
// implementation-specific strengthening — the tree is a valid
// height-balanced search tree.
func RsimSpaceTime(abs *core.AbstractState[Op, Val], s TreeState) bool {
	if !validAVL(s) {
		return false
	}
	return RsimSpace(abs, flatten(s))
}

// Flatten returns the tree's pairs in element order.
func Flatten(s TreeState) SpaceState { return flatten(s) }

// Len returns the number of pairs in the tree.
func Len(s TreeState) int { return size(s) }

// Walk calls f on the tree's pairs in element order, without building the
// slice Flatten returns.
func Walk(s TreeState, f func(Pair)) { walk(s, f) }

// BuildBalanced constructs a perfectly height-balanced tree from an
// element-sorted pair slice (used by codecs and tests; merge uses it
// internally).
func BuildBalanced(s SpaceState) TreeState { return buildBalanced(s) }

// ValidAVL reports whether the tree satisfies the search-tree order and
// AVL balance invariants; exported for integration tests.
func ValidAVL(s TreeState) bool { return validAVL(s) }

func walk(n *TreeNode, f func(Pair)) {
	if n == nil {
		return
	}
	walk(n.Left, f)
	f(n.Pair)
	walk(n.Right, f)
}

func flatten(n *TreeNode) SpaceState {
	out := make(SpaceState, 0, size(n))
	walk(n, func(p Pair) { out = append(out, p) })
	return out
}

func size(n *TreeNode) int {
	if n == nil {
		return 0
	}
	return n.size
}

func height(n *TreeNode) int {
	if n == nil {
		return 0
	}
	return n.height
}

func mk(p Pair, l, r *TreeNode) *TreeNode {
	h := height(l)
	if hr := height(r); hr > h {
		h = hr
	}
	return &TreeNode{Pair: p, Left: l, Right: r, height: h + 1, size: size(l) + size(r) + 1}
}

// balance restores the AVL invariant at a node whose subtrees differ in
// height by at most 2 (the situation after one insert/delete on a balanced
// tree).
func balance(p Pair, l, r *TreeNode) *TreeNode {
	switch {
	case height(l) > height(r)+1:
		if height(l.Left) >= height(l.Right) { // LL
			return mk(l.Pair, l.Left, mk(p, l.Right, r))
		}
		lr := l.Right // LR
		return mk(lr.Pair, mk(l.Pair, l.Left, lr.Left), mk(p, lr.Right, r))
	case height(r) > height(l)+1:
		if height(r.Right) >= height(r.Left) { // RR
			return mk(r.Pair, mk(p, l, r.Left), r.Right)
		}
		rl := r.Left // RL
		return mk(rl.Pair, mk(p, l, rl.Left), mk(r.Pair, rl.Right, r.Right))
	default:
		return mk(p, l, r)
	}
}

func treeLookup(n *TreeNode, e int64) bool {
	for n != nil {
		switch {
		case e < n.Pair.E:
			n = n.Left
		case e > n.Pair.E:
			n = n.Right
		default:
			return true
		}
	}
	return false
}

func treeInsert(n *TreeNode, p Pair) *TreeNode {
	if n == nil {
		return mk(p, nil, nil)
	}
	switch {
	case p.E < n.Pair.E:
		return balance(n.Pair, treeInsert(n.Left, p), n.Right)
	case p.E > n.Pair.E:
		return balance(n.Pair, n.Left, treeInsert(n.Right, p))
	default: // refresh the timestamp in place
		return mk(p, n.Left, n.Right)
	}
}

func treeDelete(n *TreeNode, e int64) *TreeNode {
	if n == nil {
		return nil
	}
	switch {
	case e < n.Pair.E:
		return balance(n.Pair, treeDelete(n.Left, e), n.Right)
	case e > n.Pair.E:
		return balance(n.Pair, n.Left, treeDelete(n.Right, e))
	default:
		if n.Left == nil {
			return n.Right
		}
		if n.Right == nil {
			return n.Left
		}
		minP, rest := popMin(n.Right)
		return balance(minP, n.Left, rest)
	}
}

func popMin(n *TreeNode) (Pair, *TreeNode) {
	if n.Left == nil {
		return n.Pair, n.Right
	}
	p, rest := popMin(n.Left)
	return p, balance(n.Pair, rest, n.Right)
}

// buildBalanced constructs a perfectly balanced tree from an
// element-sorted slice.
func buildBalanced(s SpaceState) *TreeNode {
	if len(s) == 0 {
		return nil
	}
	m := len(s) / 2
	return mk(s[m], buildBalanced(s[:m]), buildBalanced(s[m+1:]))
}

// validAVL checks the search-tree order, the AVL height invariant, and
// cached heights and sizes.
func validAVL(n *TreeNode) bool {
	ok := true
	var rec func(n *TreeNode, lo, hi *int64) int
	rec = func(n *TreeNode, lo, hi *int64) int {
		if n == nil {
			return 0
		}
		if lo != nil && n.Pair.E <= *lo {
			ok = false
		}
		if hi != nil && n.Pair.E >= *hi {
			ok = false
		}
		hl := rec(n.Left, lo, &n.Pair.E)
		hr := rec(n.Right, &n.Pair.E, hi)
		if hl-hr > 1 || hr-hl > 1 {
			ok = false
		}
		h := hl
		if hr > h {
			h = hr
		}
		if n.height != h+1 || n.size != size(n.Left)+size(n.Right)+1 {
			ok = false
		}
		return h + 1
	}
	rec(n, nil, nil)
	return ok
}

// Edit reports whether next is prev with at most one pair added,
// replaced or removed, and where: k is the pair's rank — in next, or in
// prev for a removal — and p next's pair there (zero for a removal); an
// unchanged set reports k = Len(prev). Which edit it is follows from the
// two lengths. Subtrees the two trees share are skipped whole, so after
// a Do on prev, whose nodes next shares off the path it copied, Edit
// takes O(log n). Trees that differ more are walked until a second
// difference shows, and trees of equal pairs and different shapes are
// walked whole.
func Edit(prev, next TreeState) (k int, p Pair, ok bool) {
	grow := size(next) - size(prev)
	if grow < -1 || grow > 1 {
		return 0, Pair{}, false
	}
	var a, b cursor
	a.push(next, true)
	b.push(prev, true)
	k = skipShared(&a, &b)
	if a.n == 0 && b.n == 0 {
		return k, Pair{}, grow == 0 && !a.full && !b.full
	}
	switch grow {
	case 1:
		p, ok = a.pop()
	case 0:
		_, gone := b.pop()
		p, ok = a.pop()
		ok = ok && gone
	default:
		_, ok = b.pop()
	}
	skipShared(&a, &b)
	return k, p, ok && a.n == 0 && b.n == 0 && !a.full && !b.full
}

// piece is a stretch of a tree's in-order pairs: node's whole subtree, or
// node's own pair alone.
type piece struct {
	node  *TreeNode
	whole bool
}

// cursor is the rest of a tree's in-order pairs from some rank on, as a
// stack of pieces whose top comes first. A height-balanced tree of 2³²
// pairs needs under 96; a cursor that runs out of room says so in full
// and stops, as if the tree ended there.
type cursor struct {
	stack [96]piece
	n     int
	full  bool
}

func (c *cursor) push(n *TreeNode, whole bool) {
	switch {
	case n == nil:
	case c.n == len(c.stack):
		c.full = true
	default:
		c.stack[c.n] = piece{n, whole}
		c.n++
	}
}

func (c *cursor) top() piece { return c.stack[c.n-1] }

// split replaces the whole subtree on top by its left subtree, its own
// pair and its right subtree.
func (c *cursor) split() {
	c.n--
	n := c.stack[c.n].node
	c.push(n.Right, true)
	c.push(n, false)
	c.push(n.Left, true)
}

// pop removes and returns the first pair, false when there is none.
func (c *cursor) pop() (Pair, bool) {
	for c.n > 0 && c.top().whole {
		c.split()
	}
	if c.n == 0 {
		return Pair{}, false
	}
	c.n--
	return c.stack[c.n].node.Pair, true
}

// skipShared advances a and b past the pairs they begin with in common
// and returns how many that is. It stops where either ends, or at two
// pairs that differ, each then a single piece on top. A subtree both
// have on top is skipped whole; of two different ones, the larger is
// split first, so that shared subtrees line up again.
func skipShared(a, b *cursor) int {
	skipped := 0
	for a.n > 0 && b.n > 0 {
		x, y := a.top(), b.top()
		switch {
		case x.whole && y.whole && x.node == y.node:
			a.n--
			b.n--
			skipped += x.node.size
		case x.whole && (!y.whole || x.node.size >= y.node.size):
			a.split()
		case y.whole:
			b.split()
		case x.node.Pair != y.node.Pair:
			return skipped
		default:
			a.n--
			b.n--
			skipped++
		}
	}
	return skipped
}
