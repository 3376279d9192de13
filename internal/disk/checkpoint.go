package disk

// Checkpoints: the log's commit-graph sidecar, inlined. A checkpoint
// record carries the complete *index* of the log at its write point —
// every commit (hash, parents, state, generation, timestamp), every pack
// object's metadata plus the (segment, offset) its bytes live at, the
// branch heads with their clock state, the replica-id allocator floor and
// the log's metadata — but none of the state bytes themselves. It is
// always the first record of a fresh segment, so Open can find the newest
// checkpoint by probing segment heads (one record read per segment,
// newest first) instead of scanning history, install the index with lazy
// object loaders pointing back into the older segments, and replay only
// the records that follow. Recovery cost becomes O(live index + suffix),
// flat in history depth — the shape Git gets from commit-graph and
// multi-pack-index files over its packs. Like those files, a checkpoint
// is only a cache of the records: every entry it indexes was appended as
// a record before it. So only the seek reads one; replay, full or past
// the seek, counts a checkpoint as a record and installs nothing from it.
//
// The index sections are stored as fixed-width entry arrays in the
// store's frozen-index layout (store/frozen.go), commit and object
// entries alike ascending by hash. Decoding a checkpoint is then section
// slicing, not entry-by-entry parsing — recovery adopts the CRC-verified
// payload bytes as the store's index (store.FrozenIndex), resolves
// entries by binary search, and decodes nothing until a walk touches it,
// which is what makes open time flat instead of O(index).
//
// Checkpoints are written every CheckpointEvery mutations, after every
// compaction, and on a clean Close (so an orderly restart replays a
// zero-length suffix). A torn or corrupt checkpoint fails its CRC like
// any record; Open then probes the next older segment head and, with no
// valid checkpoint anywhere, falls back to full (parallel) segment
// replay. Nothing but time is lost.
//
// Incremental checkpoints. A full checkpoint is O(history), so writing
// one per clean Close would make every session pay for the whole log. A
// checkpoint is therefore either full or a *delta*: only the index
// entries recorded since the last full checkpoint (its base), plus the
// same tail, naming the base by segment number and frame CRC. One rule
// picks the kind everywhere: a delta iff the log has a durable base and
// the entries since it are fewer than a quarter of the base's, so a delta
// is never more than a quarter the size of a full checkpoint. Deltas are
// cumulative, never chained — a full checkpoint rebases the log onto
// itself — so an open reads at most two checkpoint records. A delta
// whose base is missing, torn or rewritten counts as a torn checkpoint.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/store"
	"repro/internal/wire"
)

// objLoc is one pack object's index entry: its chain metadata plus where
// in the log its record lives, enough to both write a checkpoint and
// serve a lazy load.
type objLoc struct {
	base   store.Hash
	delta  bool
	size   int
	depth  int
	stored int   // stored-byte length (len of the record's data field)
	seg    int   // segment holding the object record
	off    int64 // offset of the record's frame within the segment
}

// shadowState mirrors the log's durable contents in index form so a
// checkpoint can be serialized at any moment without asking the store.
// frozen is the index as of the last checkpoint read or written, and the
// overlay maps hold everything recorded since. base names the full
// checkpoint on disk that frozen extends: frozen is that checkpoint's
// index, or, after an open that seeked to a delta, the base merged with
// the delta, whose own sections carried keeps — the entries a cumulative
// delta must repeat. A full replay or a compaction rebuild carries
// everything in the overlay maps with frozen nil, so the next checkpoint
// is full; writing one rebases the shadow onto it. Branch records are few
// and always live in the map (an overlay entry supersedes a frozen
// section's name).
type shadowState struct {
	frozen   *index
	base     ckptRef
	carried  *index
	commits  map[store.Hash]store.Commit
	objects  map[store.Hash]objLoc
	branches map[string]store.BranchRecord
	nextID   int
}

// ckptRef names a full checkpoint on disk: the segment it heads and its
// frame's CRC-32C, which tells a rewritten or damaged base from the one
// a delta was written against.
type ckptRef struct {
	seg int
	crc uint32
}

// deltaNext is the one rule that picks a checkpoint's kind: a delta iff
// the shadow has a durable base and the entries recorded since it are
// fewer than a quarter of the base's. A delta is then at most a quarter
// the size of a full checkpoint; past that, a full one rebases the log.
func (sh *shadowState) deltaNext() bool {
	if sh.frozen == nil {
		return false
	}
	since := len(sh.commits) + len(sh.objects) + sh.carried.entries()
	return 4*since < sh.frozen.entries()-sh.carried.entries()
}

// rebase makes the full checkpoint just written at ref the shadow's
// base: its index sections become frozen and the overlay empties, so the
// deltas that follow carry only what is recorded after it.
func (sh *shadowState) rebase(x *index, ref ckptRef) {
	sh.frozen, sh.base, sh.carried = x, ref, nil
	sh.commits = make(map[store.Hash]store.Commit)
	sh.objects = make(map[store.Hash]objLoc)
}

func newShadow() shadowState {
	return shadowState{
		commits:  make(map[store.Hash]store.Commit),
		objects:  make(map[store.Hash]objLoc),
		branches: make(map[string]store.BranchRecord),
	}
}

// overlay encodes the overlay maps as index sections.
func (sh *shadowState) overlay() *index {
	ckeys := make([]store.Hash, 0, len(sh.commits))
	for h := range sh.commits {
		ckeys = append(ckeys, h)
	}
	sort.Slice(ckeys, func(i, j int) bool { return bytes.Compare(ckeys[i][:], ckeys[j][:]) < 0 })
	x := &index{
		commits: make([]byte, 0, len(ckeys)*store.FrozenCommitBytes),
		objects: make([]byte, 0, len(sh.objects)*store.FrozenObjectBytes),
	}
	for _, h := range ckeys {
		x.commits = store.AppendFrozenCommit(x.commits, h, sh.commits[h])
	}
	okeys := make([]store.Hash, 0, len(sh.objects))
	for h := range sh.objects {
		okeys = append(okeys, h)
	}
	sort.Slice(okeys, func(i, j int) bool { return bytes.Compare(okeys[i][:], okeys[j][:]) < 0 })
	for _, h := range okeys {
		o := sh.objects[h]
		x.objects = store.AppendFrozenObject(x.objects, h, store.FrozenObject{
			Base: o.base, Delta: o.delta, Size: o.size, Depth: o.depth,
			Stored: o.stored, Seg: o.seg, Off: o.off,
		})
	}
	return x
}

// index is the log's commit and object index in raw form: hash-ascending
// arrays of fixed-width entries, each led by its hash — the layout a
// checkpoint record stores and store.FrozenIndex reads.
type index struct {
	commits, objects []byte
}

// entries counts the index's commit and object entries; nil has none.
func (x *index) entries() int {
	if x == nil {
		return 0
	}
	return len(x.commits)/store.FrozenCommitBytes + len(x.objects)/store.FrozenObjectBytes
}

// mergeEntries appends to out the width-byte entries of lower and upper,
// both hash-ascending, merged in hash order; where both hold a hash,
// upper's entry wins. Each upper entry's slot is found by binary search
// and the lower entries before it copy in one run, so merging a small
// upper into a large lower costs a memmove, not a pass per entry.
func mergeEntries(out, lower, upper []byte, width int) []byte {
	const hashLen = len(store.Hash{})
	for ; len(upper) > 0; upper = upper[width:] {
		h := upper[:hashLen]
		i := width * sort.Search(len(lower)/width, func(i int) bool {
			return bytes.Compare(lower[i*width:i*width+hashLen], h) >= 0
		})
		out = append(out, lower[:i]...)
		lower = lower[i:]
		if len(lower) > 0 && bytes.Equal(lower[:hashLen], h) {
			lower = lower[width:] // upper's entry supersedes lower's
		}
		out = append(out, upper[:width]...)
	}
	return append(out, lower...)
}

// mergeBack merges upper's entries into the n bytes of lower entries at
// buf[at:], in place, from the back: the merged entries — upper's winning
// where both hold a hash — come back as the slice of buf that ends at
// len(buf), which must leave room for them past at. Writing backwards
// keeps every write at or above the lower entries not yet moved, and each
// run of lower entries between two of upper's moves in one copy. It
// spares an open the allocation a merged copy of the base would cost.
func mergeBack(buf []byte, at, n int, upper []byte, width int) []byte {
	const hashLen = len(store.Hash{})
	buf = buf[at:]
	i, w := n, len(buf)
	for j := len(upper); j > 0; j -= width {
		h := upper[j-width : j-width+hashLen]
		k := width * sort.Search(i/width, func(k int) bool {
			return bytes.Compare(buf[k*width:k*width+hashLen], h) > 0
		})
		w -= i - k
		copy(buf[w:], buf[k:i])
		i = k
		if i > 0 && bytes.Equal(buf[i-width:i-width+hashLen], h) {
			i -= width // upper's entry supersedes lower's
		}
		w -= width
		copy(buf[w:], upper[j-width:j])
	}
	w -= i
	copy(buf[w:], buf[:i])
	return buf[w:len(buf):len(buf)]
}

// checkpoint is a decoded checkpoint record: its index sections (raw,
// aliasing the record's payload, already CRC-verified by the frame) and
// its tail. base is non-nil for a delta: the full checkpoint its entries
// overlay. body is the record body the sections alias and at holds their
// offsets in it — what attachCheckpoint needs to merge a delta into the
// spare room of its base's buffer (probeCheckpoint).
type checkpoint struct {
	index
	meta     map[string]string
	nextID   int
	branches map[string]store.BranchRecord
	base     *ckptRef
	body     []byte
	at       [2]int
}

// encodeCheckpoint serializes the shadow state (and log metadata) as one
// checkpoint record payload, kind byte included:
//
//	recCheckpoint | recCheckpointDelta [u32 base segment][u32 base CRC]
//	[u32 #commits][fixed-width commit entries, hash-ascending]
//	[u32 #objects][fixed-width object entries, hash-ascending]
//	wire-encoded tail: meta, nextID, branches
//
// Both index sections come out hash-ascending — recovery resolves them
// by binary search without decoding. The overlay entries encode fresh and
// merge into the frozen entries, which re-emit raw, an overlay entry
// superseding a frozen one with the same hash. A full checkpoint merges
// over the whole frozen index, a delta only over the entries carried
// since its base; the tail is the whole current truth either way. The
// index sections as written come back too, aliasing the record: what a
// full checkpoint rebases the shadow onto.
func encodeCheckpoint(meta map[string]string, sh *shadowState, delta bool) (record []byte, written index) {
	lower := sh.frozen
	if delta {
		lower = sh.carried
	}
	if lower == nil {
		lower = &index{}
	}
	over := sh.overlay()

	var w wire.Writer
	w.PutLen(len(meta))
	for k, v := range meta {
		w.PutString(k)
		w.PutString(v)
	}
	w.PutInt64(int64(sh.nextID))
	w.PutLen(len(sh.branches))
	for name, b := range sh.branches {
		w.PutString(name)
		w.PutHash(b.Head)
		w.PutInt64(int64(b.Replica))
		w.PutInt64(b.Clock)
	}
	tail := w.Bytes()

	size := len(lower.commits) + len(over.commits) + len(lower.objects) + len(over.objects)
	payload := make([]byte, 0, 1+16+size+len(tail))
	if delta {
		payload = append(payload, recCheckpointDelta)
		payload = binary.BigEndian.AppendUint32(payload, uint32(sh.base.seg))
		payload = binary.BigEndian.AppendUint32(payload, sh.base.crc)
	} else {
		payload = append(payload, recCheckpoint)
	}
	payload, written.commits = appendSection(payload, lower.commits, over.commits, store.FrozenCommitBytes)
	payload, written.objects = appendSection(payload, lower.objects, over.objects, store.FrozenObjectBytes)
	return append(payload, tail...), written
}

// appendSection appends the merge of lower and upper as one
// count-prefixed section of width-byte entries, the count patched in once
// the merge has dropped the entries upper supersedes, and returns the
// section's entries too.
func appendSection(payload, lower, upper []byte, width int) ([]byte, []byte) {
	at := len(payload) + 4
	payload = mergeEntries(append(payload, 0, 0, 0, 0), lower, upper, width)
	binary.BigEndian.PutUint32(payload[at-4:], uint32((len(payload)-at)/width))
	return payload, payload[at:len(payload):len(payload)]
}

// decodeCheckpoint parses a checkpoint record body (the payload past the
// kind byte) of either kind. The index sections are adopted by reference
// — body must be a buffer the caller does not reuse — so decode cost is
// independent of index size; only the small tail (meta, branches) parses
// entry-wise.
func decodeCheckpoint(kind byte, body []byte) (*checkpoint, error) {
	ck := &checkpoint{body: body}
	if kind == recCheckpointDelta {
		if len(body) < 8 {
			return nil, fmt.Errorf("delta checkpoint truncated before its base")
		}
		ck.base = &ckptRef{seg: int(binary.BigEndian.Uint32(body)), crc: binary.BigEndian.Uint32(body[4:])}
		body = body[8:]
	}
	section := func(width int) ([]byte, int, error) {
		if len(body) < 4 {
			return nil, 0, fmt.Errorf("checkpoint truncated before section count")
		}
		n := int64(binary.BigEndian.Uint32(body))
		body = body[4:]
		size := n * int64(width)
		if size > int64(len(body)) {
			return nil, 0, fmt.Errorf("checkpoint section announces %d entries, %d bytes remain", n, len(body))
		}
		sec := body[:size:size]
		at := len(ck.body) - len(body)
		body = body[size:]
		return sec, at, nil
	}
	var err error
	if ck.commits, ck.at[0], err = section(store.FrozenCommitBytes); err != nil {
		return nil, err
	}
	if ck.objects, ck.at[1], err = section(store.FrozenObjectBytes); err != nil {
		return nil, err
	}
	r := wire.NewReader(body)
	nm := r.Len(2)
	ck.meta = make(map[string]string, nm)
	for i := 0; i < nm; i++ {
		k := r.String()
		ck.meta[k] = r.String()
	}
	ck.nextID = int(r.Int64())
	nb := r.Len(4 + len(store.Hash{}) + 16)
	ck.branches = make(map[string]store.BranchRecord, nb)
	for i := 0; i < nb; i++ {
		name := r.String()
		var b store.BranchRecord
		b.Head = r.Hash()
		b.Replica = int(r.Int64())
		b.Clock = r.Int64()
		ck.branches[name] = b
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return ck, nil
}

// probeCheckpoint reads the first record of the segment at path and, if
// it is a valid checkpoint of either kind, returns it decoded along with
// its frame CRC and the offset just past its frame (where suffix replay
// resumes). The kind byte is peeked before the frame is read in full, so
// probing a segment that does not head with a checkpoint costs one small
// read. The record's buffer gets room spare bytes past its end (see
// attachCheckpoint). Any damage — missing header, short read, CRC mismatch,
// wrong kind, parse failure — reports ok=false.
func probeCheckpoint(path string, room int) (ck *checkpoint, crc uint32, end int64, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, false
	}
	defer f.Close()
	var head [len(segMagic) + 9]byte
	if _, err := f.ReadAt(head[:], 0); err != nil || string(head[:len(segMagic)]) != segMagic {
		return nil, 0, 0, false
	}
	if kind := head[len(segMagic)+8]; kind != recCheckpoint && kind != recCheckpointDelta {
		return nil, 0, 0, false
	}
	payload, end, err := readFrameAt(f, int64(len(segMagic)), room)
	if err != nil || len(payload) == 0 {
		return nil, 0, 0, false
	}
	if ck, err = decodeCheckpoint(payload[0], payload[1:]); err != nil {
		return nil, 0, 0, false
	}
	return ck, binary.BigEndian.Uint32(head[len(segMagic)+4:]), end, true
}

// seek is where a checkpoint-seeded open starts: the full checkpoint to
// attach (base, heading segment ref.seg), the delta to overlay on it (nil
// when the newest usable head is full), and where scanning resumes —
// segment seqs[at], byte offset end.
type seek struct {
	base  *checkpoint
	ref   ckptRef
	delta *checkpoint
	at    int
	end   int64
}

// seekCheckpoint probes segment heads newest-first for the checkpoint an
// open seeks to. A full checkpoint is usable alone; a delta only with the
// base it names, which must head an older segment and carry the CRC the
// delta recorded — otherwise the delta counts as torn and the probe moves
// to the next older head. ok is false when no head is usable, and the
// caller falls back to full replay.
func seekCheckpoint(dir string, seqs []int) (seek, bool) {
	for i := len(seqs) - 1; i >= 0; i-- {
		ck, crc, end, ok := probeCheckpoint(filepath.Join(dir, segName(seqs[i])), 0)
		if !ok {
			continue
		}
		if ck.base == nil {
			return seek{base: ck, ref: ckptRef{seg: seqs[i], crc: crc}, at: i, end: end}, true
		}
		ref := *ck.base
		if ref.seg >= seqs[i] {
			continue
		}
		room := len(ck.commits) + len(ck.objects) // the delta merges into the base's buffer
		base, crc, _, ok := probeCheckpoint(filepath.Join(dir, segName(ref.seg)), room)
		if ok && base.base == nil && crc == ref.crc {
			return seek{base: base, ref: ref, delta: ck, at: i, end: end}, true
		}
	}
	return seek{}, false
}

// loader returns the frozen-index load hook bound to this log: re-read
// one object record and hand back its verified stored bytes.
func (l *Log) loader() store.FrozenLoader {
	return func(h store.Hash, seg int, off int64) ([]byte, error) {
		return l.readObjectData(seg, off, h)
	}
}

// readObjectData re-reads one object record at (seg, off), re-verifies
// its CRC and content, and returns its stored bytes — the lazy-load path
// behind checkpoint-recovered objects. It opens its own descriptor, so
// concurrent loads never contend; the owning store's locking guarantees
// the segment cannot be compacted away mid-read (compaction forces every
// live object resident first, under the store's write lock).
func (l *Log) readObjectData(seg int, off int64, want store.Hash) ([]byte, error) {
	path := filepath.Join(l.dir, segName(seg))
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, _, err := readFrameAt(f, off, 0)
	if err != nil {
		return nil, fmt.Errorf("disk: lazy load %v at %s+%d: %w", want, segName(seg), off, err)
	}
	op, err := decodeRecord(payload, off)
	if err != nil || op.kind != recObject || op.hash != want {
		return nil, fmt.Errorf("disk: lazy load %v at %s+%d: record does not match index", want, segName(seg), off)
	}
	return op.object.Data, nil
}

// attachCheckpoint installs the checkpoint a seek found as the base of
// the recovery: the recovery state is still empty, so the index sections
// are adopted frozen — handed to the store as a FrozenIndex and kept by
// the shadow as what its overlays merge over — with nothing decoded per
// entry. For a delta, the delta's sections merge raw into the base's, in
// place (mergeBack; the delta's entries winning) — runs of base entries
// moved whole, O(delta) searches — and the shadow keeps the delta's
// sections as the entries the next delta repeats; the delta's tail is the
// current truth. Branches, metadata and the allocator floor are small
// and install eagerly.
func (l *Log) attachCheckpoint(rec *Recovered, sk seek) error {
	ck, x := sk.base, &sk.base.index
	if sk.delta != nil {
		// The base's buffer has room for the delta's entries past its end
		// (seekCheckpoint): objects merge into its far end, commits just
		// below them, consuming the base's own sections and tail.
		b, d := sk.base, &sk.delta.index
		buf := b.body[:cap(b.body)]
		objects := mergeBack(buf, b.at[1], len(b.objects), d.objects, store.FrozenObjectBytes)
		commits := mergeBack(buf[:len(buf)-len(objects)], b.at[0], len(b.commits), d.commits, store.FrozenCommitBytes)
		ck, x, l.shadow.carried = sk.delta, &index{commits: commits, objects: objects}, d
	}
	fz, err := store.NewFrozenIndex(x.commits, x.objects, l.loader())
	if err != nil {
		return err
	}
	rec.State.Frozen = fz
	l.shadow.frozen, l.shadow.base = x, sk.ref
	for k, v := range ck.meta {
		rec.Meta[k] = v
	}
	for name, b := range ck.branches {
		rec.State.Branches[name] = b
		l.shadow.branches[name] = b
	}
	if ck.nextID > rec.State.NextID {
		rec.State.NextID = ck.nextID
	}
	if ck.nextID > l.shadow.nextID {
		l.shadow.nextID = ck.nextID
	}
	return nil
}

// checkpointLocked serializes the shadow state as a checkpoint record at
// the head of a fresh segment (sealing the active one first, unless it
// is still empty) — a delta or a full index, as deltaNext decides. A
// full checkpoint becomes the shadow's new base. Sealing fsyncs
// everything the checkpoint references, its base included, before the
// checkpoint itself is written, so a durable checkpoint can never point
// at lost bytes.
func (l *Log) checkpointLocked() error {
	delta := l.shadow.deltaNext()
	record, written := encodeCheckpoint(l.meta, &l.shadow, delta)
	if err := checkRecordSize(record); err != nil {
		// A colossal index (beyond the replay limit) skips its
		// checkpoint: recovery falls back to segment replay, losing time,
		// not data.
		l.mutsSince = 0
		return nil
	}
	if l.size > int64(len(segMagic)) {
		if err := l.sealLocked(); err != nil {
			return err
		}
		if err := l.startSegment(l.seq + 1); err != nil {
			return err
		}
		if err := syncDir(l.dir); err != nil {
			return err
		}
		l.metrics.rotated()
	}
	framed := appendFrame(nil, record)
	seg := l.seq
	if _, err := l.w.Write(framed); err != nil {
		return err
	}
	l.size += int64(len(framed))
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.opts.Fsync == FsyncAlways {
		l.stats.Fsyncs++
		if err := l.timedSync(); err != nil {
			return err
		}
	}
	if !delta {
		l.shadow.rebase(&written, ckptRef{seg: seg, crc: binary.BigEndian.Uint32(framed[4:8])})
	}
	l.stats.Records++
	l.stats.Checkpoints++
	l.metrics.checkpointed(delta, len(framed))
	l.mutsSince = 0
	l.sinceCkpt = 0
	return nil
}

// maybeCheckpointLocked writes a checkpoint when the mutation counter
// crosses the configured interval — self-throttled on deep histories.
// A full checkpoint is O(history) bytes, so a fixed cadence would cost
// O(history²/N) disk over the life of a log. Requiring the
// un-checkpointed suffix to also reach a quarter of the index makes
// consecutive checkpoints grow geometrically, bounding all checkpoint
// bytes ever written to a small multiple of the final index (the same
// amortization WAL-checkpointing engines use). By the time the cadence
// fires the entries since the base are past a quarter of it, so the
// checkpoint written here is normally full. Clean closes still
// checkpoint unconditionally (Close) — usually a delta, O(session) — so
// reopen after a clean shutdown reads at most two checkpoint records
// whatever the depth; only recovery from a crash pays the bounded
// suffix.
func (l *Log) maybeCheckpointLocked() error {
	if l.mutsSince < l.opts.CheckpointEvery {
		return nil
	}
	entries := len(l.shadow.commits) + len(l.shadow.objects) + l.shadow.frozen.entries()
	if l.mutsSince < entries/4 {
		return nil
	}
	return l.checkpointLocked()
}
