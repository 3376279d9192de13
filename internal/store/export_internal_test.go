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

// ResidentObject is a resident pack object as tests in package store_test
// see it: Data is the stored buffer itself, not a copy, and Delta tells
// a patch from a state stored whole.
type ResidentObject struct {
	Data  []byte
	Delta bool
}

// ResidentObjects returns s's resident pack objects by state hash.
func ResidentObjects[S, Op, Val any](s *Store[S, Op, Val]) map[Hash]ResidentObject {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Hash]ResidentObject, len(s.objects))
	for h, o := range s.objects {
		if o.load == nil {
			out[h] = ResidentObject{Data: o.data, Delta: o.delta}
		}
	}
	return out
}
