// Package recon implements range-fingerprint set reconciliation over a
// keyspace of prefixed content addresses — the negotiation structure
// that makes "what commits are you missing?" answerable in
// O(diff + log n) wire cost, independent of history depth
// (go-spacemesh's hashsync shape: fingerprint a range, split on
// mismatch, ship items only for leaf ranges that differ).
//
// An item is an 8-byte big-endian locality prefix followed by a 32-byte
// SHA-256 content address. The prefix orders the keyspace so that items
// likely to differ between two replicas sort together — the store uses
// the commit's generation number, a deterministic function of the DAG,
// so recent divergence occupies one contiguous tail of the keyspace and
// the descent isolates it in O(log n) probes instead of chasing
// uniformly scattered addresses through every subtree. Raw SHA-256
// order would spread d differing items over d distinct subtrees,
// costing O(d · log n) probes plus enumeration of every leaf they
// touch.
//
// The fingerprint of a set is the XOR of the items' content addresses —
// an order-independent commutative monoid, which is what makes the
// aggregate cheap to maintain incrementally. Two equal sets always
// fingerprint equal; two different sets collide only if their symmetric
// difference XORs to zero, which for content addresses an honest peer
// computed is a 2^-256 event (fingerprints are compared together with
// exact counts, so the trivial "empty difference" is never mistaken). A
// peer grinding commit contents to force collisions would need a
// preimage-style attack on SHA-256 XOR sums; the sync layer treats
// fingerprints as an optimization and re-verifies every shipped commit
// by content address, so a forged match can suppress a transfer but
// never corrupt a store.
//
// The Tree is a deterministic treap ordered by item bytes: priorities
// are a fixed mix of the item's own bytes, so equal sets build equal
// shapes, and because items carry cryptographic hashes the priorities
// are uniform and the expected depth is O(log n). Every node carries
// the XOR fingerprint and count of its subtree, giving O(log n)
// incremental Add and — crucially — read-only range queries:
// Range, Items and Select walk the tree without rebalancing, so a store
// can answer fingerprint probes under its shared read lock while
// writers hold the exclusive one.
package recon

import (
	"bytes"
	"encoding/binary"
)

// AddrSize is the width of an item's content address (SHA-256).
const AddrSize = 32

// PrefixSize is the width of an item's locality prefix.
const PrefixSize = 8

// ItemSize is the width of one item: locality prefix ‖ content address.
const ItemSize = PrefixSize + AddrSize

// Item is one member of a reconciled set: an 8-byte big-endian locality
// prefix (the commit's generation) followed by its 32-byte content
// address. Items order lexicographically, so prefix first.
type Item [ItemSize]byte

// MakeItem builds an item from a locality prefix and a content address.
func MakeItem(prefix uint64, addr [AddrSize]byte) Item {
	var it Item
	binary.BigEndian.PutUint64(it[:PrefixSize], prefix)
	copy(it[PrefixSize:], addr[:])
	return it
}

// Prefix returns the item's locality prefix.
func (it Item) Prefix() uint64 { return binary.BigEndian.Uint64(it[:PrefixSize]) }

// Addr returns the item's content address.
func (it Item) Addr() [AddrSize]byte {
	var h [AddrSize]byte
	copy(h[:], it[PrefixSize:])
	return h
}

// Fingerprint is the XOR-of-addresses monoid value summarizing a range.
type Fingerprint [AddrSize]byte

// Xor folds other into f.
func (f *Fingerprint) Xor(other Fingerprint) {
	for i := range f {
		f[i] ^= other[i]
	}
}

// XorItem folds one item's content address into f (its own inverse).
// The prefix is deterministic from the address's preimage, so it adds
// nothing to the digest.
func (f *Fingerprint) XorItem(it Item) {
	for i := range f {
		f[i] ^= it[PrefixSize+i]
	}
}

// IsZero reports whether f is the identity (the empty set's value).
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// node is one treap node: an item plus the XOR fingerprint and count of
// the subtree rooted here.
type node struct {
	item        Item
	prio        uint64
	left, right *node
	count       int
	agg         Fingerprint
}

// pull recomputes n's aggregates from its children.
func (n *node) pull() {
	n.count = 1
	n.agg = Fingerprint{}
	n.agg.XorItem(n.item)
	if n.left != nil {
		n.count += n.left.count
		n.agg.Xor(n.left.agg)
	}
	if n.right != nil {
		n.count += n.right.count
		n.agg.Xor(n.right.agg)
	}
}

// prio derives a treap priority from the item's own bytes (a splitmix64
// finalizer over its five words), so tree shape is a pure function of
// the set. Items carry SHA-256 outputs, so priorities are uniform;
// biasing them would take grinding commit *contents* for hash
// structure, and even a locally deep tree only slows queries, never
// corrupts them.
func prio(it Item) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < ItemSize; i += 8 {
		w := uint64(it[i])<<56 | uint64(it[i+1])<<48 | uint64(it[i+2])<<40 | uint64(it[i+3])<<32 |
			uint64(it[i+4])<<24 | uint64(it[i+5])<<16 | uint64(it[i+6])<<8 | uint64(it[i+7])
		x ^= w
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// Tree is an incrementally maintained fingerprint tree over a set of
// items. The zero Tree is empty and ready to use. Tree is not
// self-synchronizing: callers guard it with the lock that guards the
// set it mirrors (reads under a shared lock are safe — query methods
// never mutate).
type Tree struct {
	root *node
}

// Len returns the number of items in the set.
func (t *Tree) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.count
}

// Root returns the whole set's fingerprint and count.
func (t *Tree) Root() (Fingerprint, int) {
	if t.root == nil {
		return Fingerprint{}, 0
	}
	return t.root.agg, t.root.count
}

// Add inserts it, reporting whether the set changed (false: already
// present).
func (t *Tree) Add(it Item) bool {
	root, added := add(t.root, it, prio(it))
	t.root = root
	return added
}

func add(n *node, it Item, p uint64) (*node, bool) {
	if n == nil {
		nn := &node{item: it, prio: p}
		nn.pull()
		return nn, true
	}
	c := bytes.Compare(it[:], n.item[:])
	if c == 0 {
		return n, false
	}
	var added bool
	if c < 0 {
		n.left, added = add(n.left, it, p)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
	} else {
		n.right, added = add(n.right, it, p)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
	}
	n.pull()
	return n, added
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.pull()
	l.pull()
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.pull()
	r.pull()
	return r
}

// Range boundary convention, shared by Range, Items and Select: a range
// is the half-open [x, y) in lexicographic item order, and a zero y
// means "unbounded above" (so the zero x / zero y pair is the full
// keyspace). The zero item is never excluded by that convention — x is
// inclusive — and never occurs as a real content address.

// inRange reports whether it lies in [x, y).
func inRange(it, x, y Item) bool {
	if bytes.Compare(it[:], x[:]) < 0 {
		return false
	}
	return y == Item{} || bytes.Compare(it[:], y[:]) < 0
}

// Range returns the fingerprint and count of the items in [x, y). The
// walk is read-only and O(log n) expected: whole subtrees inside the
// range contribute their precomputed aggregates.
func (t *Tree) Range(x, y Item) (Fingerprint, int) {
	unboundedY := y == Item{}
	var fp Fingerprint
	count := 0
	var walk func(n *node, loIn, hiIn bool)
	walk = func(n *node, loIn, hiIn bool) {
		if n == nil {
			return
		}
		if loIn && hiIn {
			fp.Xor(n.agg)
			count += n.count
			return
		}
		geX := loIn || bytes.Compare(n.item[:], x[:]) >= 0
		ltY := hiIn || unboundedY || bytes.Compare(n.item[:], y[:]) < 0
		if geX && ltY {
			fp.XorItem(n.item)
			count++
		}
		if geX {
			// Left subtree may straddle x; it is entirely below n, so
			// it inherits n's upper-bound status.
			walk(n.left, loIn, hiIn || ltY)
		}
		if ltY {
			walk(n.right, loIn || geX, hiIn)
		}
	}
	walk(t.root, false, false)
	return fp, count
}

// Items appends the items in [x, y) to dst in ascending order, at most
// max of them (max < 0: all). The walk is read-only.
func (t *Tree) Items(dst []Item, x, y Item, max int) []Item {
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil || (max >= 0 && len(dst) >= max) {
			return
		}
		if bytes.Compare(n.item[:], x[:]) > 0 {
			walk(n.left)
		}
		if (max < 0 || len(dst) < max) && inRange(n.item, x, y) {
			dst = append(dst, n.item)
		}
		if y == (Item{}) || bytes.Compare(n.item[:], y[:]) < 0 {
			walk(n.right)
		}
	}
	walk(t.root)
	return dst
}

// Select returns the k-th item (0-based) of [x, y); ok is false when the
// range holds k or fewer items. It is the split-point oracle of the
// recursive descent: the k = count/2 item divides a mismatched range
// into halves of known size.
func (t *Tree) Select(x, y Item, k int) (Item, bool) {
	if k < 0 {
		return Item{}, false
	}
	// Rank of x in the whole set, then select by global rank and check
	// the result against y. Both descents are O(log n), read-only.
	target := t.rankOf(x) + k
	it, ok := t.nth(target)
	if !ok || !inRange(it, x, y) {
		return Item{}, false
	}
	return it, true
}

// rankOf counts the items strictly below x.
func (t *Tree) rankOf(x Item) int {
	rank := 0
	for n := t.root; n != nil; {
		if bytes.Compare(n.item[:], x[:]) < 0 {
			rank++
			if n.left != nil {
				rank += n.left.count
			}
			n = n.right
		} else {
			n = n.left
		}
	}
	return rank
}

// nth returns the item of global rank i (0-based, ascending).
func (t *Tree) nth(i int) (Item, bool) {
	n := t.root
	if n == nil || i < 0 || i >= n.count {
		return Item{}, false
	}
	for {
		lc := 0
		if n.left != nil {
			lc = n.left.count
		}
		switch {
		case i < lc:
			n = n.left
		case i == lc:
			return n.item, true
		default:
			i -= lc + 1
			n = n.right
		}
	}
}
