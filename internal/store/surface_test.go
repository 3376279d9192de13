package store

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/counter"
	"repro/internal/delta"
	"repro/internal/mlog"
)

// TestExportIsOneShipSet: Export is ExportSincePacked with no have-set,
// and both are the ship-set exporter sessions use. Over two branches
// with merges and a chain bound of 4, the batch ascends by (Gen, hash),
// every commit stored as a patch on its first parent's state ships that
// patch, and a fresh store's Import reproduces every hash with a clean
// VerifyPack.
func TestExportIsOneShipSet(t *testing.T) {
	s := New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main", WithSnapshotEvery(4))
	add := func(b string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Apply(b, mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("%s message %04d of some length", b, i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("main", 3)
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		add("main", 5)
		add("dev", 4)
		if err := s.Sync("main", "dev"); err != nil {
			t.Fatal(err)
		}
	}
	add("main", 2) // commits the canonical merge, then its ops

	all, heads, err := s.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	since, sinceHeads, err := s.ExportSincePacked("main", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, since) || !slices.Equal(heads, sinceHeads) {
		t.Fatal("Export differs from ExportSincePacked with no have-set")
	}

	// Rebuild each commit's hash from the batch alone.
	encs := make(map[Hash][]byte)
	hashes := make([]Hash, len(all))
	patched, merges := 0, 0
	for i, ec := range all {
		enc := ec.State
		if ec.Patch != nil {
			if enc, err = delta.Apply(encs[ec.Parents[0]], ec.Patch); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		c := Commit{Parents: ec.Parents, State: StateAddr(enc), Gen: ec.Gen, Time: ec.Time}
		h := commitHash(c)
		encs[h], hashes[i] = enc, h
		if i > 0 {
			p := all[i-1]
			if p.Gen > ec.Gen || p.Gen == ec.Gen && bytes.Compare(hashes[i-1][:], h[:]) >= 0 {
				t.Fatalf("commit %d (gen %d) does not ascend by (Gen, hash) after gen %d", i, ec.Gen, p.Gen)
			}
		}
		if len(ec.Parents) == 2 {
			merges++
		}
		stored, ok := s.Commit(h)
		if !ok || !reflect.DeepEqual(stored, c) {
			t.Fatalf("commit %d reassembles to %v, which the store does not hold", i, h)
		}
		if len(c.Parents) == 0 {
			continue
		}
		obj, _ := s.objLocked(c.State)
		if base := s.commitAtLocked(c.Parents[0]).State; obj.delta && obj.base == base && c.State != base {
			patched++
			if !bytes.Equal(ec.Patch, obj.data) {
				t.Fatalf("commit %d is stored as a patch on its parent's state but ships %d state bytes, %d patch bytes", i, len(ec.State), len(ec.Patch))
			}
		}
	}
	if patched == 0 || merges == 0 || patched == len(all)-1 {
		t.Fatalf("%d commits, %d merges, %d stored as patches on the parent: want merges, patches and composed states", len(all), merges, patched)
	}

	dst := New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "local")
	if err := dst.Import("remote/main", all, heads); err != nil {
		t.Fatal(err)
	}
	for i, h := range hashes {
		if !dst.HasCommit(h) {
			t.Fatalf("commit %d missing after Import", i)
		}
	}
	if got := dst.Heads("remote/main"); !slices.Equal(got, heads) {
		t.Fatalf("imported heads %v, want %v", got, heads)
	}
	if err := dst.VerifyPack(); err != nil {
		t.Fatal(err)
	}
}

// branchCounter is a Persister that counts the branch records it is
// handed, by branch name, and drops everything else.
type branchCounter struct{ branches map[string]int }

func (p *branchCounter) AppendCommit(Hash, Commit) error       { return nil }
func (p *branchCounter) AppendObject(Hash, ObjectRecord) error { return nil }
func (p *branchCounter) AppendBranch(name string, _ BranchRecord) error {
	p.branches[name]++
	return nil
}
func (p *branchCounter) AppendNextID(int) error { return nil }
func (p *branchCounter) Flush() error           { return nil }

// TestIntegrateWritesOneBranch: an Integrate that moves the head set
// appends one branch record, for the target branch alone; one that
// brings nothing new appends none; and no remote/* branch appears.
func TestIntegrateWritesOneBranch(t *testing.T) {
	p := &branchCounter{branches: make(map[string]int)}
	s := NewAt[int64, counter.Op, counter.Val](counter.IncCounter{}, int64Codec{}, "node", 0, WithPersister(p))
	src := newCounterStoreAt("src", 64)
	mustApply(t, s, "node")
	mustApply(t, src, "src")
	batch, heads, err := src.Export("src")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []map[string]int{{"node": 1}, {}} {
		p.branches = make(map[string]int)
		_, _, moved, err := s.Integrate("node", "remote/src", batch, heads)
		if err != nil {
			t.Fatal(err)
		}
		if moved != (i == 0) || !maps.Equal(p.branches, want) {
			t.Fatalf("integrate %d: moved=%v, branch records %v; want %v", i, moved, p.branches, want)
		}
	}
	for _, b := range s.Branches() {
		if strings.HasPrefix(b, "remote/") {
			t.Fatalf("Integrate left branch %s", b)
		}
	}
}
