package disk

// Record codec: how one durable mutation is serialized inside a
// segment. A record's payload is a one-byte kind tag followed by a body
// in the wire package's fixed-width/length-prefixed encoding (the same
// Writer/Reader the sync protocol uses, so the on-disk and on-wire
// vocabularies stay one idiom). Framing — length prefix and checksum —
// is segment.go's job; this file only maps payloads to and from the
// store's persistence records.

import (
	"errors"
	"fmt"

	"repro/internal/store"
	"repro/internal/wire"
)

// Record kinds.
const (
	// recMeta is a key/value pair describing the log itself (datatype,
	// owning object, format hints). Written at creation, replayed into
	// Recovered.Meta.
	recMeta byte = 1
	// recCommit is one commit: hash, parents, state hash, generation,
	// timestamp.
	recCommit byte = 2
	// recObject is one pack object in its stored form: snapshot bytes or
	// a patch plus its chain base, with the recorded full size and depth.
	recObject byte = 3
	// recBranch is a branch-head move of the single-head format: name,
	// head hash, and the branch clock's replica id and counter. Replay
	// still reads it, as a one-member head set; nothing writes it.
	recBranch byte = 4
	// recBranchDel removes a branch.
	recBranchDel byte = 5
	// recNextID advances the replica-id allocator floor.
	recNextID byte = 6
	// recCheckpoint is a full index snapshot — commits, object locations,
	// branches, metadata, allocator floor — written as the first record of
	// a fresh segment so Open can seek past history (checkpoint.go).
	recCheckpoint byte = 7
	// recCheckpointDelta is an incremental checkpoint: only the index
	// entries recorded since a full checkpoint (its base, named by segment
	// and frame CRC), plus the same tail. It also heads a fresh segment.
	recCheckpointDelta byte = 8
	// recBranchSet is a branch-head move: name, head set, and the branch
	// clock's replica id and counter (store.NoClock and zero for a
	// clockless branch). Every branch write uses it.
	recBranchSet byte = 9
)

// errUnknownKind marks a record that passed its checksum but carries a
// kind this build does not know — written by a newer format, not torn.
// Open refuses the log rather than truncate history it cannot read.
var errUnknownKind = errors.New("unknown record kind")

func encodeMeta(key, value string) []byte {
	var w wire.Writer
	w.PutString(key)
	w.PutString(value)
	return frame(recMeta, w.Bytes())
}

func encodeCommit(h store.Hash, c store.Commit) []byte {
	var w wire.Writer
	w.PutHash(h)
	w.PutLen(len(c.Parents))
	for _, p := range c.Parents {
		w.PutHash(p)
	}
	w.PutHash(c.State)
	w.PutInt64(int64(c.Gen))
	w.PutTimestamp(c.Time)
	return frame(recCommit, w.Bytes())
}

func encodeObject(h store.Hash, o store.ObjectRecord) []byte {
	var w wire.Writer
	w.PutHash(h)
	w.PutBool(o.Delta)
	w.PutHash(o.Base)
	w.PutInt64(int64(o.Size))
	w.PutInt64(int64(o.Depth))
	w.PutBytes(o.Data)
	return frame(recObject, w.Bytes())
}

func encodeBranch(name string, b store.BranchRecord) []byte {
	var w wire.Writer
	putBranch(&w, name, b)
	return frame(recBranchSet, w.Bytes())
}

// putBranch appends one branch — name, head set, clock — in the form a
// kind-9 record and a checkpoint tail entry share.
func putBranch(w *wire.Writer, name string, b store.BranchRecord) {
	w.PutString(name)
	w.PutLen(len(b.Heads))
	for _, h := range b.Heads {
		w.PutHash(h)
	}
	w.PutInt64(int64(b.Replica))
	w.PutInt64(b.Clock)
}

// readBranch consumes one putBranch encoding.
func readBranch(r *wire.Reader) (string, store.BranchRecord) {
	name := r.String()
	var b store.BranchRecord
	for n := r.Len(len(store.Hash{})); len(b.Heads) < n; {
		b.Heads = append(b.Heads, r.Hash())
	}
	b.Replica = int(r.Int64())
	b.Clock = r.Int64()
	return name, b
}

func encodeBranchDelete(name string) []byte {
	var w wire.Writer
	w.PutString(name)
	return frame(recBranchDel, w.Bytes())
}

func encodeNextID(id int) []byte {
	var w wire.Writer
	w.PutInt64(int64(id))
	return frame(recNextID, w.Bytes())
}

// frame prepends the kind tag, producing the record payload the segment
// framing checksums and length-prefixes.
func frame(kind byte, body []byte) []byte {
	payload := make([]byte, 0, 1+len(body))
	payload = append(payload, kind)
	return append(payload, body...)
}

// scanOp is one decoded record, tagged with the offset its frame starts
// at within its segment — replay applies ops in order, checkpoints index
// object ops by that position. Only the fields for the record's kind are
// populated; a checkpoint populates none.
type scanOp struct {
	kind   byte
	off    int64
	hash   store.Hash
	commit store.Commit
	object store.ObjectRecord
	name   string
	value  string
	branch store.BranchRecord
	id     int
}

// decodeRecord parses one checksummed payload into a scanOp. A checkpoint
// comes back undecoded: only the open-time seek reads checkpoints, and to
// replay one is a marker. An error wrapping errUnknownKind means the kind
// byte is not one this build knows; any other error means the payload
// does not parse as its declared kind, which with the checksum already
// verified recovery treats exactly like corruption: truncate here.
// Decoded fields never alias payload (the wire reader copies), so the
// caller may reuse its buffer.
func decodeRecord(payload []byte, off int64) (scanOp, error) {
	op := scanOp{off: off}
	if len(payload) == 0 {
		return op, fmt.Errorf("empty record")
	}
	op.kind = payload[0]
	body := payload[1:]
	r := wire.NewReader(body)
	switch op.kind {
	case recMeta:
		op.name = r.String()
		op.value = r.String()
	case recCommit:
		op.hash = r.Hash()
		np := r.Len(len(store.Hash{}))
		for i := 0; i < np; i++ {
			op.commit.Parents = append(op.commit.Parents, r.Hash())
		}
		op.commit.State = r.Hash()
		op.commit.Gen = int(r.Int64())
		op.commit.Time = r.Timestamp()
	case recObject:
		op.hash = r.Hash()
		op.object.Delta = r.Bool()
		op.object.Base = r.Hash()
		op.object.Size = int(r.Int64())
		op.object.Depth = int(r.Int64())
		op.object.Data = r.Bytes()
	case recBranch:
		op.name = r.String()
		op.branch.Heads = []store.Hash{r.Hash()}
		op.branch.Replica = int(r.Int64())
		op.branch.Clock = r.Int64()
	case recBranchSet:
		op.name, op.branch = readBranch(r)
	case recBranchDel:
		op.name = r.String()
	case recNextID:
		op.id = int(r.Int64())
	case recCheckpoint, recCheckpointDelta:
		return op, nil
	default:
		return op, fmt.Errorf("%w %d", errUnknownKind, op.kind)
	}
	if err := r.Close(); err != nil {
		return op, err
	}
	return op, nil
}
