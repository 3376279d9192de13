package store

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mlog"
	"repro/internal/obs"
)

// mlogCodec encodes a mergeable log the way wire.MLog does (count, then
// timestamp + length-prefixed message per entry) in one exact-size
// allocation; the wire package itself would import-cycle back into store.
type mlogCodec struct{}

func (mlogCodec) Encode(s mlog.State) []byte {
	n := 4 + 12*len(s)
	for _, e := range s {
		n += len(e.Msg)
	}
	b := binary.BigEndian.AppendUint32(make([]byte, 0, n), uint32(len(s)))
	for _, e := range s {
		b = binary.BigEndian.AppendUint64(b, uint64(e.T))
		b = binary.BigEndian.AppendUint32(b, uint32(len(e.Msg)))
		b = append(b, e.Msg...)
	}
	return b
}

func (mlogCodec) Decode(b []byte) (mlog.State, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("mlog codec: %d bytes", len(b))
	}
	s := make(mlog.State, 0, binary.BigEndian.Uint32(b))
	for b = b[4:]; len(b) >= 12; {
		n := int(binary.BigEndian.Uint32(b[8:]))
		if len(b) < 12+n {
			break
		}
		s = append(s, mlog.Entry{T: core.Timestamp(binary.BigEndian.Uint64(b)), Msg: string(b[12 : 12+n])})
		b = b[12+n:]
	}
	if len(s) != cap(s) {
		return nil, fmt.Errorf("mlog codec: truncated")
	}
	return s, nil
}

func appendN(t *testing.T, s *Store[mlog.State, mlog.Op, mlog.Val], n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Apply("main", mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("message %06d of 24 bytes", i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackedObjectsPinNoSlack: what the pack layer keeps resident is what
// PackStats reports. Patches used to arrive from delta.Make with
// len(target)/8 bytes of capacity, so a 50-byte patch against a 72 KB log
// pinned ~9 KB and the heap held a multiple of PackedBytes.
func TestPackedObjectsPinNoSlack(t *testing.T) {
	s := New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main")
	appendN(t, s, 1000)
	appendN(t, s, 2000)
	var resident int64
	for _, o := range s.objects {
		resident += int64(cap(o.data))
	}
	packed := s.PackStats().PackedBytes
	if float64(resident) > 1.1*float64(packed) {
		t.Fatalf("resident objects hold %d bytes of capacity for %d packed bytes (%.2fx)",
			resident, packed, float64(resident)/float64(packed))
	}
	if err := s.VerifyPack(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyPhaseMetrics: with a registry attached, every Apply lands one
// observation in the apply histogram and in each put-state phase. Every
// Apply diffs against its parent, a chain-full one to compose the patch
// onto a level base, so delta is observed once per Apply too.
func TestApplyPhaseMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main", WithObs(reg))
	const applies = 40
	appendN(t, s, applies)

	counts := make(map[string]int64)
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "peepul_store_apply_ns":
			counts["apply"] = m.Count
		case "peepul_store_put_state_ns":
			counts[m.Labels["phase"]] = m.Count
		}
	}
	// New also stores the initial state: one more encode and hash, and no
	// patch, having no parent.
	want := map[string]int64{"apply": applies, "encode": applies + 1, "hash": applies + 1, "delta": applies}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%s histogram has %d observations, want %d", name, counts[name], n)
		}
	}
}

// TestApplyHashesOnlyTheEdit: an append to a log of 10³ or 10⁴ entries
// feeds SHA-256 the chunk the entry lands in, the group that chunk is in
// and the root of the state's chunk tree — at most 8 KiB, however long
// the log — where addressing the whole encoding would feed it 36 KB or
// 360 KB. The count is the always-on peepul_store_state_hash_bytes_total.
func TestApplyHashesOnlyTheEdit(t *testing.T) {
	const appends, bound = 32, 8 << 10
	var means []int64
	for _, n := range []int{1000, 10000} {
		s := New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main")
		// The log's n entries, newest first, land as one commit on main.
		st := make(mlog.State, n)
		for i := range st {
			st[i] = mlog.Entry{T: core.Timestamp(n - i), Msg: fmt.Sprintf("message %06d of 24 bytes", n-i)}
		}
		s.mu.Lock()
		root := s.commitAtLocked(s.heads["main"][0])
		s.setHeadsLocked("main", []Hash{s.putCommit(Commit{
			Parents: s.heads["main"],
			State:   s.putState(st, nil, root.State),
			Gen:     root.Gen + 1,
			Time:    core.Timestamp(n),
		})})
		s.mu.Unlock()

		var total, most int64
		for i := range appends {
			before := s.metrics.hashBytes.Value()
			if _, err := s.Apply("main", mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("message %06d of 24 bytes", n+i+1)}); err != nil {
				t.Fatal(err)
			}
			fed := s.metrics.hashBytes.Value() - before
			total += fed
			most = max(most, fed)
		}
		size, _ := s.Size("main")
		t.Logf("%d entries (%d B): an append hashes %d B on average, %d B at most", n, size, total/appends, most)
		if most > bound {
			t.Errorf("%d entries: an append hashed %d bytes, want at most %d", n, most, bound)
		}
		means = append(means, total/appends)
	}
	// Ten times the log costs its chunk tree's root 32 bytes per 16 chunks
	// more, not ten times the hashing.
	if means[1] > 2*means[0] {
		t.Errorf("appends hash %d B on average at 10⁴ entries, %d B at 10³: not flat in the log's size", means[1], means[0])
	}
}

// TestResidentSnapshotVerifiedOnce: a resident state stored whole is
// checked against its address on its first read only. With the decoded
// states dropped before every read, reading a snapshot and the head in
// turn materializes each every time, yet over all the rounds the
// snapshot feeds
// peepul_store_state_hash_bytes_total its bytes once, not once a round;
// the head reads from the reassembly slot, which hashes nothing.
func TestResidentSnapshotVerifiedOnce(t *testing.T) {
	const rounds = 10
	s := New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main")
	// Append until the head's state is stored whole and spans chunks,
	// then keep it on a branch of its own and move main past it.
	var snap Hash
	for i := 0; snap == (Hash{}); i++ {
		if i == 1000 {
			t.Fatal("no state of 1000 appends was stored whole")
		}
		if _, err := s.Apply("main", mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("message %06d of 24 bytes", i)}); err != nil {
			t.Fatal(err)
		}
		c, _ := s.Commit(s.Heads("main")[0])
		s.mu.RLock()
		o := s.objects[c.State]
		s.mu.RUnlock()
		if !o.delta && o.size > 2*chunkMin {
			snap = c.State
		}
	}
	if err := s.Fork("main", "snap"); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 4)

	before := s.metrics.hashBytes.Value()
	for range rounds {
		for _, b := range []string{"snap", "main"} {
			DropDecodedStates(s)
			if _, err := s.Head(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	fed := s.metrics.hashBytes.Value() - before
	enc, err := s.EncodedState(snap)
	if err != nil {
		t.Fatal(err)
	}
	var cold hasher
	cold.tree(enc, nil)
	t.Logf("%d rounds over a %d-byte snapshot: %d B hashed, %d B to address it once", rounds, len(enc), fed, cold.fed)
	if fed != cold.fed {
		t.Fatalf("%d rounds hashed %d bytes, want the snapshot's %d once", rounds, fed, cold.fed)
	}
}
