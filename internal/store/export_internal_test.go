package store

// WholeObjectsWithSlack returns how many of s's resident objects stored
// whole hold a buffer with spare capacity, for tests in package
// store_test: a snapshot pins exactly its encoding, so that no object
// ever holds a buffer the store recycles (packLocked).
func WholeObjectsWithSlack[S, Op, Val any](s *Store[S, Op, Val]) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, o := range s.objects {
		if !o.delta && o.load == nil && cap(o.data) != len(o.data) {
			n++
		}
	}
	return n
}
