package mlog

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
)

// Shared blocks.
//
// A block is one []Entry allocation of size+1 entries. Its slots
// [0, size) hold entries, filled from the back: the newest state of the
// block, its front, is block[size-front : size], and the slots before it
// are free. Slot size is the sentinel, which no state includes but every
// state's capacity reaches: each state of the block is a slice
// block[i : size : size+1], so s[:len(s)+1][len(s)] is the sentinel.
//
// The sentinel's Msg is an empty string whose data pointer is the
// block's first slot; no string a caller can make without unsafe
// points into an []Entry. Its T is one word, updated atomically: the index of the
// block's last slot (size-1) in the high half and the length of the
// front in the low half. An append to the front claims the free slot
// before it by compare-and-swap on that word, writes the new entry there
// once, and returns block[size-front-1 : size : size+1]. So every entry
// at or after a published state's first is never written again, and two
// appends to one state both succeed: the one that loses the slot copies.
// Any other slice — a decoded state, a merge's, a literal, s[1:], s[:k],
// or a state that is no longer the front — is copied into a new block.

// entrySize is the distance between two slots of a block.
const entrySize = unsafe.Sizeof(Entry{})

// maxBlock bounds a block's slots, so both halves of the sentinel word
// fit in 31 bits; a longer log is copied whole on every append.
const maxBlock = 1<<31 - 1

// cons returns the state e followed by s, sharing s when s is the front
// of a block with a free slot.
func cons(e Entry, s State) State {
	if next, ok := claim(e, s); ok {
		return next
	}
	return grow(e, s)
}

// claim writes e into the free slot before s[0] and returns the state
// that starts there, when s is the front of a block and the slot is
// still free.
func claim(e Entry, s State) (State, bool) {
	n := len(s)
	if n == 0 || cap(s) != n+1 {
		return nil, false
	}
	sen := &s[:n+1][n]
	first := unsafe.StringData(sen.Msg)
	if first == nil {
		return nil, false
	}
	// The word is an Entry's field, so it has no atomic type of its own.
	word := (*int64)(unsafe.Pointer(&sen.T))
	w := atomic.LoadInt64(word)
	last, front := int(w>>32), int(uint32(w))
	// The sentinel must sit one slot past the last of the block its Msg
	// names: only then is this memory that block's, and s[0] in slot
	// last+1-n.
	if front != n || n > last ||
		uintptr(unsafe.Pointer(sen))-uintptr(unsafe.Pointer(first)) != uintptr(last+1)*entrySize {
		return nil, false
	}
	if !atomic.CompareAndSwapInt64(word, w, w+1) {
		return nil, false
	}
	slot := (*Entry)(unsafe.Add(unsafe.Pointer(&s[0]), -int(entrySize)))
	*slot = e
	return unsafe.Slice(slot, n+2)[:n+1], true
}

// grow copies e and s into a new block with free slots in proportion to
// len(s), so appends to it are amortized O(1).
func grow(e Entry, s State) State {
	n := len(s)
	room := n/4 + 8
	size := room + n + 1
	if size >= maxBlock {
		return append(State{e}, s...)
	}
	b := make([]Entry, size+1)
	b[room] = e
	copy(b[room+1:], s)
	b[size] = Entry{
		T:   core.Timestamp(int64(size-1)<<32 | int64(n+1)),
		Msg: unsafe.String((*byte)(unsafe.Pointer(&b[0])), 0),
	}
	return b[room : size : size+1]
}
