package orset

import "repro/internal/core"

// TreeNode is a node of the persistent height-balanced (AVL) search tree
// that backs OrSetSpaceTime. Nodes are immutable: updates copy the path
// from the root, so ancestor states retained by the store as merge bases
// stay valid. The tree is keyed by element; each element appears at most
// once, carrying the timestamp of its latest add.
type TreeNode struct {
	Pair        Pair
	Left, Right *TreeNode
	height      int
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

// Len returns the number of pairs in the tree (O(n)).
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
	return 1 + size(n.Left) + size(n.Right)
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
	return &TreeNode{Pair: p, Left: l, Right: r, height: h + 1}
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
// cached heights.
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
		if n.height != h+1 {
			ok = false
		}
		return h + 1
	}
	rec(n, nil, nil)
	return ok
}
