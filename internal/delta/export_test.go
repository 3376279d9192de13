package delta

// MakeIndexKeepsAll reports whether the block index Make builds for a
// patch from base to target keeps every window it offers: no bucket
// reached maxChainProbe equal windows or maxBucket windows.
func MakeIndexKeepsAll(base, target []byte) bool {
	if len(base) < blockSize || len(target) < blockSize {
		return true
	}
	m := matcher{base: base, target: target}
	pre, _ := m.forward(0, 0)
	if pre < blockSize {
		pre = 0
	}
	suf, _ := m.backward(len(base), len(target), pre, pre)
	if suf < blockSize {
		suf = 0
	}
	lo, n := windowRange(pre, len(base)-suf, len(base))
	ix := newBlockIndex(base, lo, n)
	kept := 0
	for _, w := range ix.heads {
		for ; w != 0; w = ix.next[w-1] {
			kept++
		}
	}
	return kept == n
}
