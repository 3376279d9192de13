package disk

// Compaction: rewriting the log to exactly the store's live state. The
// store's GC already computed the survivors (and re-snapshotted any
// delta chain whose base died), so the log's job is purely mechanical —
// but crash-safe and prefix-consistent:
//
//  1. Seal the active segment.
//  2. Write every live record into seg-<next>.log.tmp in an order read
//     off the store's invariants, with no graph search: meta by key, the
//     allocator floor, pack objects by (depth, hash) — GC leaves every
//     live depth exact, so each chain base precedes its dependents —
//     commits by (generation, hash), so parents precede children, and
//     branch heads last. A torn tail inside a compacted segment then
//     still replays to a self-consistent prefix (worst case: no branch
//     records survive and the store reopens fresh), and two compactions
//     of one live set write the same bytes.
//  3. Fsync the temp file, rename it into place, fsync the directory —
//     the atomic switch.
//  4. Delete the old segments and fsync the directory again.
//
// A crash before 3 leaves the old segments intact (the .tmp is swept on
// the next open). A crash between 3 and 4 leaves old and new segments
// side by side; replay visits them oldest-first and every record is an
// idempotent upsert, so the compacted segment simply re-states what the
// old ones already said about live history, and dead records resurrect
// only until the next GC.

import (
	"bytes"
	"cmp"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/store"
)

// Compact implements store.Persister.
func (l *Log) Compact(rs *store.RecoveredState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.sealLocked(); err != nil {
		return err
	}
	oldEnd := l.seq
	newSeq := l.seq + 1

	tmp := filepath.Join(l.dir, segName(newSeq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	written, nrec, locs, err := writeCompacted(f, l.meta, rs, newSeq)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	final := filepath.Join(l.dir, segName(newSeq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	// The switch is durable; the old segments are garbage now, and so are
	// the lazy loads' descriptors on them.
	l.readers.drop(oldEnd)
	seqs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq <= oldEnd {
			if err := os.Remove(filepath.Join(l.dir, segName(seq))); err != nil {
				return err
			}
		}
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// The compacted segment becomes the active one.
	af, err := os.OpenFile(final, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = af
	l.w = newSegWriter(af)
	l.seq = newSeq
	l.size = written
	l.sealed, l.nseal = 0, 0
	l.stats.Compactions++
	l.metrics.compactions.Inc()

	// The shadow index is rebuilt from the live set. rs aliases the
	// store's own maps on this path, so every map is copied, never kept.
	sh := newShadow()
	for h, c := range rs.Commits {
		sh.commits[h] = c
	}
	sh.objects = locs
	for name, b := range rs.Branches {
		sh.branches[name] = b
	}
	sh.nextID = rs.NextID
	l.shadow = sh
	l.sinceCkpt = nrec

	// Cap the rewrite with a checkpoint: the compacted segment is as deep
	// as this log's history gets, and the checkpoint (heading the next
	// segment) lets the following open skip straight past it.
	return l.checkpointLocked()
}

// writeCompacted streams the live state as framed records. It returns
// the bytes written (header included), the record count, and each pack
// object's location within the new segment — the entries the rebuilt
// shadow index (and the post-compaction checkpoint) carries.
func writeCompacted(f *os.File, meta map[string]string, rs *store.RecoveredState, seq int) (int64, int64, map[store.Hash]objLoc, error) {
	w := newSegWriter(f)
	written := int64(0)
	nrec := int64(0)
	locs := make(map[store.Hash]objLoc, len(rs.Objects))
	emit := func(record []byte) error {
		if err := checkRecordSize(record); err != nil {
			return err
		}
		framed := appendFrame(nil, record)
		if _, err := w.Write(framed); err != nil {
			return err
		}
		written += int64(len(framed))
		nrec++
		return nil
	}
	fail := func(err error) (int64, int64, map[store.Hash]objLoc, error) {
		return 0, 0, nil, err
	}
	if _, err := w.WriteString(segMagic); err != nil {
		return fail(err)
	}
	written += int64(len(segMagic))

	for _, k := range slices.Sorted(maps.Keys(meta)) {
		if err := emit(encodeMeta(k, meta[k])); err != nil {
			return fail(err)
		}
	}
	if err := emit(encodeNextID(rs.NextID)); err != nil {
		return fail(err)
	}
	// Objects by (depth, hash): GC leaves every live depth exact, so each
	// chain base precedes the patches on it.
	objects := slices.SortedFunc(maps.Keys(rs.Objects), func(a, b store.Hash) int {
		return cmp.Or(cmp.Compare(rs.Objects[a].Depth, rs.Objects[b].Depth), bytes.Compare(a[:], b[:]))
	})
	for _, h := range objects {
		o := rs.Objects[h]
		locs[h] = objLoc{
			base: o.Base, delta: o.Delta, size: o.Size, depth: o.Depth,
			stored: len(o.Data), seg: seq, off: written,
		}
		if err := emit(encodeObject(h, o)); err != nil {
			return fail(err)
		}
	}
	// Commits by (generation, hash): Gen = 1 + max parent generation, so
	// parents precede children.
	commits := slices.SortedFunc(maps.Keys(rs.Commits), func(a, b store.Hash) int {
		return cmp.Or(cmp.Compare(rs.Commits[a].Gen, rs.Commits[b].Gen), bytes.Compare(a[:], b[:]))
	})
	for _, h := range commits {
		if err := emit(encodeCommit(h, rs.Commits[h])); err != nil {
			return fail(err)
		}
	}
	// Branches in creation order — the store allocates replica ids
	// ascending, the main branch first, and clockless branches (NoClock,
	// the largest uint) take none — so a torn tail keeps the branches
	// created first, as any prefix of the append path does; a prefix
	// holding a fork but not the main branch would not reopen.
	names := make([]string, 0, len(rs.Branches))
	for name := range rs.Branches {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := rs.Branches[names[i]], rs.Branches[names[j]]
		if a.Replica != b.Replica {
			return uint(a.Replica) < uint(b.Replica)
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		if err := emit(encodeBranch(name, rs.Branches[name])); err != nil {
			return fail(err)
		}
	}
	return written, nrec, locs, w.Flush()
}
