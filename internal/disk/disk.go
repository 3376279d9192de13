// Package disk is the durable storage engine under the versioned store:
// a segmented, append-only, checksum-framed pack log, the role Git's
// packfiles and a database's write-ahead log play rolled into one. Every
// commit and every pack object (snapshot or parent-chained binary delta,
// exactly as internal/store's pack layer holds them in memory) is
// appended as a CRC-32C-framed record; branch-head moves and clock
// positions ride along as small records, so replaying the log front to
// back rebuilds the entire replica — DAG, states, branches, Lamport
// clocks — bit for bit.
//
// Durability model. Records are buffered and flushed to the OS at the
// end of every store mutation, so a crashed *process* loses nothing that
// a mutation reported durable; the fsync policy decides what a crashed
// *machine* can lose (FsyncAlways pays one fsync per mutation,
// FsyncNever leaves the window to the OS). Recovery-on-open replays all
// segments in order and truncates at the first torn or corrupted record
// — everything before it is a self-consistent prefix of the replica's
// history, because the store appends records in dependency order
// (objects before the commits that pin them, commits before the branch
// heads that reach them).
//
// Compaction (compact.go) is a log operation that nothing in a node
// calls: the store deletes nothing, so its log only grows. Given a
// quiescent log's full replay, Log.Compact rewrites it into one fresh
// segment, atomically renames it into place and deletes the old ones.
package disk

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Policy selects when the log fsyncs the active segment.
type Policy int

const (
	// FsyncNever flushes records to the OS on every mutation but never
	// calls fsync on the append path: a process crash loses nothing, a
	// machine crash can lose the OS's write-back window. Sealed and
	// compacted segments are still fsynced — the tail is the only
	// exposure.
	FsyncNever Policy = iota
	// FsyncAlways fsyncs the active segment at the end of every store
	// mutation: committed means on stable storage, at one fsync of
	// latency per operation.
	FsyncAlways
)

// String names the policy (flag values, bench output).
func (p Policy) String() string {
	switch p {
	case FsyncNever:
		return "never"
	case FsyncAlways:
		return "always"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ErrClosed is returned by appends to a closed log, and by lazy object
// loads from one.
var ErrClosed = errors.New("disk: log closed")

// Options collects the log's tunables.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that would push
	// the active segment past it seals the segment and starts the next.
	SegmentBytes int64
	// Fsync is the append-path fsync policy.
	Fsync Policy
	// CheckpointEvery is the checkpoint cadence in commits: once that
	// many commits have been appended since the last checkpoint, the next
	// Flush seals the active segment and writes an index checkpoint at the
	// head of a fresh one. A writer's operation appends one commit, a
	// sync's landing one per commit it brings, and a Flush that appended
	// no commit (a fast-forward or fork writes only branch records)
	// counts as one. Checkpoints are also
	// written after every compaction and on clean Close; each is a full
	// index or, when the entries since the last full one are under a
	// quarter of it, a delta against it.
	CheckpointEvery int
	// FullReplay makes Open ignore checkpoints and replay every segment
	// front to back — the recovery-of-last-resort mode the fallback
	// ladder reopens with when a checkpoint-seeded open fails
	// verification.
	FullReplay bool
	// Obs receives the log's metrics (append/fsync latency, rotations,
	// checkpoints, recovery — see obs.go). nil gives the log a registry
	// of its own.
	Obs *obs.Registry
}

// DefaultOptions returns 64 MiB segments, FsyncNever, and a checkpoint
// every 1024 commits.
func DefaultOptions() Options {
	return Options{SegmentBytes: 64 << 20, Fsync: FsyncNever, CheckpointEvery: 1024}
}

// Option adjusts log construction.
type Option func(*Options)

// WithSegmentBytes sets the segment rotation threshold. Values below
// 4 KiB are clamped (tests use small segments to force rotation).
func WithSegmentBytes(n int64) Option {
	return func(o *Options) { o.SegmentBytes = max(n, 4<<10) }
}

// WithFsync sets the append-path fsync policy.
func WithFsync(p Policy) Option {
	return func(o *Options) { o.Fsync = p }
}

// WithCheckpointEvery sets the checkpoint cadence in commits; values
// below 1 are clamped to 1. The cadence is a floor, not an exact period:
// on deep histories checkpoints self-throttle until the un-checkpointed
// suffix is a quarter of the index, keeping total checkpoint bytes
// linear in the log (see maybeCheckpointLocked). Clean closes always
// checkpoint, with a delta of what was recorded since the last full
// checkpoint while that is under a quarter of it, so a close costs
// O(session), not O(history).
func WithCheckpointEvery(n int) Option {
	return func(o *Options) { o.CheckpointEvery = max(n, 1) }
}

// WithFullReplay makes Open ignore checkpoints and replay every segment.
func WithFullReplay() Option {
	return func(o *Options) { o.FullReplay = true }
}

// WithObs attaches an observability registry: the log registers its
// latency histograms and rotation/checkpoint/recovery counters on it.
// Without one (or with nil) the log counts into a private registry.
func WithObs(reg *obs.Registry) Option {
	return func(o *Options) { o.Obs = reg }
}

// Stats is a snapshot of the log's accounting.
type Stats struct {
	// Segments is the number of live segment files; Bytes their total
	// size, including buffered-but-unflushed appends.
	Segments int
	Bytes    int64
	// Records counts records appended since open; RecoveredRecords the
	// records replayed by Open.
	Records          int64
	RecoveredRecords int64
	// TruncatedBytes and DroppedSegments describe what recovery cut: the
	// torn or corrupt suffix discarded from the first bad segment and
	// the whole segments dropped after it.
	TruncatedBytes  int64
	DroppedSegments int
	// Fsyncs counts fsync calls on the append path; Compactions counts
	// completed log rewrites.
	Fsyncs      int64
	Compactions int64
	// Checkpoints counts checkpoint records written this session;
	// CheckpointAge is the number of records appended (or replayed) since
	// the last checkpoint — the suffix the next open must replay.
	Checkpoints   int64
	CheckpointAge int64
	// RecoveryMode reports how Open rebuilt the state: "checkpoint"
	// (seeked to an index snapshot), "replay" (scanned segments), or
	// "cold" (nothing to recover).
	RecoveryMode string
}

// Recovered is what Open replayed from an existing directory: the
// store-facing state plus the log's own metadata and accounting.
type Recovered struct {
	State store.RecoveredState
	// Meta is the log's key/value metadata (SetMeta); the replica layer
	// records the object's datatype here and refuses to reopen a log
	// under a different type.
	Meta map[string]string
	// Records is the number of records that replayed cleanly.
	Records int64
	// TruncatedBytes is the size of the torn/corrupt suffix discarded
	// from the first bad segment; DroppedSegments counts whole segments
	// discarded after it.
	TruncatedBytes  int64
	DroppedSegments int
	// Mode is how the state was rebuilt: ModeCheckpoint, ModeReplay or
	// ModeCold.
	Mode string
}

// Recovery modes, as reported by Recovered.Mode and Stats.RecoveryMode.
const (
	// ModeCheckpoint: Open seeked to the newest valid checkpoint and
	// replayed only the records after it.
	ModeCheckpoint = "checkpoint"
	// ModeReplay: no usable checkpoint; every segment was scanned.
	ModeReplay = "replay"
	// ModeCold: the directory held no records at all.
	ModeCold = "cold"
)

func newRecovered() *Recovered {
	return &Recovered{
		State: store.RecoveredState{
			Commits:  make(map[store.Hash]store.Commit),
			Objects:  make(map[store.Hash]store.ObjectRecord),
			Branches: make(map[string]store.BranchRecord),
		},
		Meta: make(map[string]string),
	}
}

// Log is one object's segmented pack log. It implements store.Persister;
// all methods are safe for concurrent use, though in practice the owning
// store serializes them behind its write lock.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	seq      int   // active segment number
	size     int64 // active segment size including buffered bytes
	sealed   int64 // total bytes across sealed segments
	nseal    int   // sealed segment count
	stats    Stats
	meta     map[string]string
	closed   bool
	closeErr error

	// shadow mirrors the durable contents in index form so a checkpoint
	// can be serialized at any moment (checkpoint.go); commitsSince
	// and sinceCkpt drive the checkpoint cadence and the CheckpointAge
	// stat, and committed records whether a commit was appended since
	// the last Flush; mode is how the last Open rebuilt the state.
	shadow       shadowState
	commitsSince int
	committed    bool
	sinceCkpt    int64
	mode         string

	// metrics is the instrumentation (obs.go).
	metrics *diskMetrics

	// readers holds the lazy loads' read descriptors (checkpoint.go),
	// under a lock of its own: loads never take mu.
	readers segReaders
}

// Open opens (creating if needed) the pack log in dir and recovers it.
// Recovery seeks: the newest segment whose head record is a usable
// checkpoint supplies the full index (commits, object locations — their
// bytes stay on disk behind lazy loaders — branches, metadata), read from
// a full checkpoint or from a delta plus the full base it names, and only
// the records after it replay, so open time is flat in history depth.
// With no usable checkpoint (or WithFullReplay), every segment is
// scanned — concurrently, one goroutine per segment bounded by
// GOMAXPROCS — and applied in order. Either way the returned Recovered
// holds everything the log contained up to the first torn or corrupted
// record; the suffix past that point has been truncated on disk (and any
// later segments deleted), so a second Open of the same directory
// recovers identically. A record that passes its checksum but carries a
// kind this build does not know is not damage: Open fails, naming its
// segment, offset and kind, and truncates nothing. Stray temporary files
// from an interrupted compaction or checkpoint are removed.
func Open(dir string, opts ...Option) (*Log, *Recovered, error) {
	o := DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, nil, err
			}
		}
	}

	openStart := time.Now()
	rec := newRecovered()
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opts: o, meta: rec.Meta, shadow: newShadow(), metrics: newDiskMetrics(o.Obs)}

	// Checkpoint seek: probe segment heads newest-first (one record read
	// each, two for a delta and its base); the first usable checkpoint
	// supplies the index, and scanning starts at that segment, just past
	// the checkpoint's frame.
	var sk seek
	seeked := false
	if !o.FullReplay {
		sk, seeked = seekCheckpoint(dir, seqs)
	}
	start := sk.at
	var keep []int
	if seeked {
		if err := l.attachCheckpoint(rec, sk); err != nil {
			return nil, nil, err
		}
		rec.Records++ // the checkpoint record itself
		if sk.delta != nil {
			rec.Records++ // and the base it names
		}
		// Segments before the checkpoint are never scanned; they stay
		// live as the lazy loaders' backing store.
		for _, seq := range seqs[:start] {
			info, err := os.Stat(filepath.Join(dir, segName(seq)))
			if err != nil {
				return nil, nil, err
			}
			keep = append(keep, seq)
			l.sealed += info.Size()
		}
	}

	// Scan the remaining segments concurrently, then apply their records
	// in sequence order — records are idempotent upserts, but prefix
	// consistency (and the torn-tail cut) is defined by append order.
	scans := seqs[start:]
	results := make([]segScan, len(scans))
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for i, seq := range scans {
		from := int64(0)
		if seeked && i == 0 {
			from = sk.end
		}
		wg.Add(1)
		go func(i, seq int, from int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = scanSegmentOps(filepath.Join(dir, segName(seq)), seq, from)
		}(i, seq, from)
	}
	wg.Wait()

	for i, res := range results {
		path := filepath.Join(dir, segName(res.seq))
		if res.err != nil {
			return nil, nil, fmt.Errorf("disk: replaying %s: %w", path, res.err)
		}
		for j := range res.ops {
			l.applyOp(rec, res.seq, &res.ops[j])
		}
		if !res.torn {
			keep = append(keep, res.seq)
			l.sealed += res.good
			continue
		}
		// Torn or corrupt: keep the clean prefix of this segment, drop
		// the rest of it and every later segment — recovery lands on a
		// prefix of the record stream.
		info, err := os.Stat(path)
		if err != nil {
			return nil, nil, err
		}
		rec.TruncatedBytes += info.Size() - res.good
		if res.good < int64(len(segMagic)) {
			// Nothing usable (bad or missing header): remove the file.
			if err := os.Remove(path); err != nil {
				return nil, nil, err
			}
		} else {
			if err := os.Truncate(path, res.good); err != nil {
				return nil, nil, err
			}
			keep = append(keep, res.seq)
			l.sealed += res.good
		}
		for _, later := range results[i+1:] {
			laterPath := filepath.Join(dir, segName(later.seq))
			if info, err := os.Stat(laterPath); err == nil {
				rec.TruncatedBytes += info.Size()
			}
			if err := os.Remove(laterPath); err != nil {
				return nil, nil, err
			}
			rec.DroppedSegments++
		}
		if err := syncDir(dir); err != nil {
			return nil, nil, err
		}
		break
	}

	// The last surviving segment becomes the active one; with none, a
	// fresh segment 1 is created.
	if len(keep) == 0 {
		if err := l.startSegment(1); err != nil {
			return nil, nil, err
		}
		if err := syncDir(dir); err != nil {
			l.f.Close()
			return nil, nil, err
		}
	} else {
		seq := keep[len(keep)-1]
		path := filepath.Join(dir, segName(seq))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		l.f, l.w, l.seq, l.size = f, newSegWriter(f), seq, info.Size()
		l.sealed -= info.Size()
		l.nseal = len(keep) - 1
	}
	rec.State.NextID = max(rec.State.NextID, maxBranchReplica(rec)+1)
	l.shadow.nextID = rec.State.NextID
	switch {
	case seeked:
		l.mode = ModeCheckpoint
	case rec.Records > 0:
		l.mode = ModeReplay
	default:
		l.mode = ModeCold
	}
	rec.Mode = l.mode
	l.stats.RecoveredRecords = rec.Records
	l.stats.TruncatedBytes = rec.TruncatedBytes
	l.stats.DroppedSegments = rec.DroppedSegments
	l.metrics.recovered(l.mode, time.Since(openStart).Nanoseconds())
	return l, rec, nil
}

// applyOp replays one decoded record into rec and the shadow index.
func (l *Log) applyOp(rec *Recovered, seq int, op *scanOp) {
	rec.Records++
	l.sinceCkpt++
	switch op.kind {
	case recMeta:
		rec.Meta[op.name] = op.value
	case recCommit:
		rec.State.Commits[op.hash] = op.commit
		l.shadow.commits[op.hash] = op.commit
	case recObject:
		rec.State.Objects[op.hash] = op.object
		l.shadow.objects[op.hash] = objLoc{
			base: op.object.Base, delta: op.object.Delta, size: op.object.Size,
			depth: op.object.Depth, stored: len(op.object.Data), seg: seq, off: op.off,
		}
	case recBranchSet:
		rec.State.Branches[op.name] = op.branch
		l.shadow.branches[op.name] = op.branch
	case recBranchDel:
		delete(rec.State.Branches, op.name)
		delete(l.shadow.branches, op.name)
	case recNextID:
		if op.id > rec.State.NextID {
			rec.State.NextID = op.id
		}
		if op.id > l.shadow.nextID {
			l.shadow.nextID = op.id
		}
	case recCheckpoint, recCheckpointDelta:
		// A marker, reached during a full replay or past a newer head the
		// seek could not use. Every entry it indexes was appended as a
		// record before it, which this replay scanned or the seek's
		// checkpoint adopted, so there is nothing in it to install.
		l.sinceCkpt = 0
	}
}

func maxBranchReplica(rec *Recovered) int {
	maxID := -1
	for _, b := range rec.State.Branches {
		if b.Replica > maxID {
			maxID = b.Replica
		}
	}
	return maxID
}

// startSegment creates and activates segment seq.
func (l *Log) startSegment(seq int) error {
	f, err := createSegment(l.dir, seq)
	if err != nil {
		return err
	}
	l.f, l.w, l.seq, l.size = f, newSegWriter(f), seq, int64(len(segMagic))
	return nil
}

// appendLocked frames and writes one record, rotating first if the
// active segment is full. It returns the segment and offset the record's
// frame landed at — the coordinates the shadow index (and so every
// checkpoint) records for lazy object loads.
func (l *Log) appendLocked(record []byte) (seg int, off int64, err error) {
	if l.closed {
		return 0, 0, ErrClosed
	}
	if l.f == nil {
		return 0, 0, errors.New("disk: log has no active segment (failed compaction)")
	}
	if err := checkRecordSize(record); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	defer func() { l.metrics.appendNs.Observe(time.Since(start).Nanoseconds()) }()
	framed := appendFrame(nil, record)
	if l.size > int64(len(segMagic)) && l.size+int64(len(framed)) > l.opts.SegmentBytes {
		if err := l.sealLocked(); err != nil {
			return 0, 0, err
		}
		if err := l.startSegment(l.seq + 1); err != nil {
			return 0, 0, err
		}
		if err := syncDir(l.dir); err != nil {
			return 0, 0, err
		}
		l.metrics.rotations.Inc()
	}
	seg, off = l.seq, l.size
	if _, err := l.w.Write(framed); err != nil {
		return 0, 0, err
	}
	l.size += int64(len(framed))
	l.stats.Records++
	l.sinceCkpt++
	return seg, off, nil
}

// sealLocked flushes, fsyncs and closes the active segment. Sealed
// segments are always fsynced, whatever the append-path policy: the
// exposure window of FsyncNever is only ever the active tail.
func (l *Log) sealLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.sealed += l.size
	l.nseal++
	l.f, l.w = nil, nil
	return nil
}

// AppendCommit implements store.Persister.
func (l *Log) AppendCommit(h store.Hash, c store.Commit) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, _, err := l.appendLocked(encodeCommit(h, c)); err != nil {
		return err
	}
	l.shadow.commits[h] = c
	l.commitsSince++
	l.committed = true
	return nil
}

// AppendObject implements store.Persister.
func (l *Log) AppendObject(h store.Hash, o store.ObjectRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	seg, off, err := l.appendLocked(encodeObject(h, o))
	if err != nil {
		return err
	}
	l.shadow.objects[h] = objLoc{
		base: o.Base, delta: o.Delta, size: o.Size, depth: o.Depth,
		stored: len(o.Data), seg: seg, off: off,
	}
	return nil
}

// AppendBranch implements store.Persister.
func (l *Log) AppendBranch(name string, b store.BranchRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, _, err := l.appendLocked(encodeBranch(name, b)); err != nil {
		return err
	}
	l.shadow.branches[name] = b
	return nil
}

// AppendBranchDelete appends a record that deletes branch name. The
// store deletes no branch; the benchmark's traced persister refers to it.
func (l *Log) AppendBranchDelete(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, _, err := l.appendLocked(encodeBranchDelete(name)); err != nil {
		return err
	}
	delete(l.shadow.branches, name)
	return nil
}

// AppendNextID implements store.Persister.
func (l *Log) AppendNextID(id int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, _, err := l.appendLocked(encodeNextID(id)); err != nil {
		return err
	}
	if id > l.shadow.nextID {
		l.shadow.nextID = id
	}
	return nil
}

// SetMeta records a key/value pair describing the log (e.g. the object's
// datatype). Durable immediately.
func (l *Log) SetMeta(key, value string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, _, err := l.appendLocked(encodeMeta(key, value)); err != nil {
		return err
	}
	l.meta[key] = value
	return l.flushLocked()
}

// Meta returns the log's metadata as recovered and updated this session.
func (l *Log) Meta(key string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.meta[key]
	return v, ok
}

// Flush implements store.Persister: push buffered records to the OS and,
// under FsyncAlways, to stable storage. Flush marks the end of one store
// mutation, so it is also where the checkpoint cadence fires: once
// CheckpointEvery commits have been appended since the last checkpoint,
// the batch lands in a fresh segment headed by an index checkpoint. A
// mutation that appended no commit counts as one, so a log fed only by
// branch moves still reaches a periodic checkpoint.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.f == nil {
		return errors.New("disk: log has no active segment (failed compaction)")
	}
	if !l.committed {
		l.commitsSince++
	}
	l.committed = false
	if err := l.maybeCheckpointLocked(); err != nil {
		return err
	}
	return l.flushLocked()
}

func (l *Log) flushLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.f == nil {
		return errors.New("disk: log has no active segment (failed compaction)")
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.opts.Fsync == FsyncAlways {
		l.stats.Fsyncs++
		return l.timedSync()
	}
	return nil
}

// timedSync fsyncs the active segment, feeding the fsync-latency
// histogram.
func (l *Log) timedSync() error {
	start := time.Now()
	err := l.f.Sync()
	l.metrics.fsyncNs.Observe(time.Since(start).Nanoseconds())
	return err
}

// Close flushes, fsyncs and closes the log. Further appends and lazy
// loads return ErrClosed; Close is idempotent, and repeated calls keep
// returning the first call's error — a failed final flush (full disk at
// shutdown) is never masked by a later defer-stacked Close. Every file
// descriptor, the lazy loads' read descriptors included, is released
// even when the flush fails.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.closeErr
	}
	// A clean close checkpoints first when anything accumulated since the
	// last one, so the next open seeks instead of replaying — an orderly
	// restart recovers in flat time regardless of session length. The
	// checkpoint is a delta against the last full one while the entries
	// since it are under a quarter of it, so a short session's close
	// writes O(session) bytes, not the whole index. Errors fall through
	// to the normal close path and are reported once.
	var ckErr error
	if l.f != nil && l.sinceCkpt > 0 && len(l.shadow.branches) > 0 {
		ckErr = l.checkpointLocked()
	}
	l.closed = true
	l.readers.close()
	if l.f == nil {
		l.closeErr = ckErr
		return ckErr
	}
	err := l.w.Flush()
	if err == nil {
		err = ckErr
	}
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.sealed += l.size
	l.nseal++
	l.f, l.w, l.size = nil, nil, 0
	l.closeErr = err
	return err
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns a snapshot of the log's accounting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	if l.closed {
		st.Segments, st.Bytes = l.nseal, l.sealed
	} else {
		st.Segments, st.Bytes = l.nseal+1, l.sealed+l.size
	}
	st.CheckpointAge = l.sinceCkpt
	st.RecoveryMode = l.mode
	return st
}

var _ store.Persister = (*Log)(nil)
