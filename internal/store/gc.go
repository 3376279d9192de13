package store

import "repro/internal/recon"

// GC discards history that no future merge can need, the role the paper
// assigns to the MRDT middleware ("the MRDT middleware garbage collects
// the causal histories when appropriate", §1.1). A commit must be retained
// if it is reachable from a branch head or can still serve as (part of) a
// merge base for some pair of branches — conservatively, everything
// reachable from any head. Unreachable commits, their states and encoded
// objects are dropped.
//
// It returns the number of commits collected.
//
// The pack layer makes collection two-phase: a surviving state may be
// stored as a delta whose chain runs through states only dead commits
// pin. Deleting those bases would orphan the chain, so before anything is
// dropped, every live delta whose base is about to vanish is re-packed as
// a full snapshot (chain roots are re-snapshotted, in the packfile
// sense); live-on-live links are kept as deltas. Only then are dead
// commits and their objects removed.
func (s *Store[S, Op, Val]) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()

	// The sweep iterates the full commit map, rewrites the object set in
	// place (depth fixes, deletions) and ends in a log compaction that
	// invalidates frozen (segment, offset) positions, so a
	// checkpoint-recovered index must dissolve into the maps first.
	s.thawLocked()

	live := make(map[Hash]bool)
	for _, hs := range s.heads {
		for _, head := range hs {
			for h := range s.ancestors(head) {
				live[h] = true
			}
		}
	}

	liveStates := make(map[Hash]bool, len(live))
	for h, c := range s.commits {
		if live[h] {
			liveStates[c.State] = true
		}
	}
	// Re-snapshot chain roots the sweep would orphan, while every base is
	// still present. After this loop each surviving delta's base is
	// itself a surviving state, so chains stay closed under liveness. If
	// a chain fails to materialize (corruption), its bases are retained
	// instead of deleted, keeping the store readable for diagnosis.
	for h := range liveStates {
		obj := s.objects[h]
		// A nil object can only appear through the corruption-retention
		// path below (a chain base whose object is itself missing was
		// marked live mid-iteration); there is nothing to re-pack.
		if obj == nil || !obj.delta || liveStates[obj.base] {
			continue
		}
		enc, _, err := s.materializeLocked(h)
		if err != nil {
			for cur := obj; cur != nil && cur.delta && !liveStates[cur.base]; cur = s.objects[cur.base] {
				liveStates[cur.base] = true
			}
			continue
		}
		s.objects[h] = &packObject{data: append([]byte(nil), enc...), size: len(enc)}
	}
	// Re-snapshotting moved some chain roots to depth 0, so surviving
	// descendants' recorded depths over-count their true chain length.
	// Recompute them (memoized descent over base links) so future
	// packLocked spacing decisions and PackStats stay exact.
	depth := make(map[Hash]int, len(liveStates))
	var fixDepth func(h Hash) int
	fixDepth = func(h Hash) int {
		if d, ok := depth[h]; ok {
			return d
		}
		obj, ok := s.objects[h]
		if !ok || !obj.delta {
			depth[h] = 0
			return 0
		}
		d := fixDepth(obj.base) + 1
		obj.depth = d
		depth[h] = d
		return d
	}
	for h := range liveStates {
		fixDepth(h)
	}

	collected := 0
	for h, c := range s.commits {
		if !live[h] {
			delete(s.commits, h)
			if s.rtree != nil {
				s.rtree.Remove(recon.MakeItem(uint64(c.Gen), h))
			}
			collected++
		}
	}
	for h := range s.objects {
		if !liveStates[h] {
			delete(s.objects, h)
			s.cache.remove(h)
		}
	}
	// Drop the reassembly cache if its subject died with the sweep, and
	// the spares: a collection gives memory back.
	s.encMu.Lock()
	if !liveStates[s.encHash] {
		s.encHash, s.encBuf, s.encTree, s.encFree = Hash{}, nil, nil, false
	}
	s.encMu.Unlock()
	s.spare, s.spareTree = nil, nil
	// A GC is the persister's compaction point: the log is rewritten to
	// exactly the survivors (including the re-snapshotted chain roots and
	// recomputed depths), so on-disk bytes shrink with resident bytes. A
	// compaction failure is sticky like any persistence failure; GC's
	// counting return stays useful, and the next mutation surfaces the
	// error.
	if p := s.opts.Persister; p != nil && s.persistErr == nil {
		rs, err := s.liveStateLocked()
		if err == nil {
			err = p.Compact(rs)
		}
		if err != nil {
			s.persistErr = err
		}
	}
	return collected
}

// NumCommits returns the number of commits currently retained.
func (s *Store[S, Op, Val]) NumCommits() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.numCommitsLocked()
}

// DeleteBranch removes a branch head (its commits become collectable once
// no other branch reaches them). The last branch cannot be deleted.
func (s *Store[S, Op, Val]) DeleteBranch(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.heads[name]; !ok {
		return ErrNoBranch
	}
	if len(s.heads) == 1 {
		return ErrLastBranch
	}
	s.setHeadsLocked(name, nil)
	delete(s.clocks, name)
	if p := s.opts.Persister; p != nil && s.persistErr == nil {
		if err := p.AppendBranchDelete(name); err != nil {
			s.persistErr = err
		}
	}
	return s.finishPersistLocked()
}
