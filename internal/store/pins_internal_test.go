package store

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/mlog"
)

type logStore = Store[mlog.State, mlog.Op, mlog.Val]

// checkPins fails unless s's pin counts are what a scan of every
// branch's head set counts.
func checkPins(t *testing.T, s *logStore, when string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	want := map[Hash]int{}
	for _, hs := range s.heads {
		for _, h := range hs {
			want[s.commitAtLocked(h).State]++
		}
		if len(hs) > 1 {
			want[HeadSetHash(hs)]++
		}
	}
	got := map[Hash]int{}
	for k, p := range s.pins {
		got[k] = p.n
	}
	if !maps.Equal(got, want) {
		t.Fatalf("after %s: pins %v, a scan of the head sets counts %v", when, got, want)
	}
}

// headState is the state branch b's one head pins.
func headState(t *testing.T, s *logStore, b string) Hash {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.commitAtLocked(s.heads[b][0]).State
}

// memLog is a Persister that keeps what it is handed as the state a
// replay of its log would recover.
type memLog struct{ rs RecoveredState }

func newMemLog() *memLog {
	return &memLog{rs: RecoveredState{
		Commits:  map[Hash]Commit{},
		Objects:  map[Hash]ObjectRecord{},
		Branches: map[string]BranchRecord{},
	}}
}

func (p *memLog) AppendCommit(h Hash, c Commit) error { p.rs.Commits[h] = c; return nil }
func (p *memLog) AppendObject(h Hash, o ObjectRecord) error {
	o.Data = slices.Clone(o.Data)
	p.rs.Objects[h] = o
	return nil
}
func (p *memLog) AppendBranch(name string, b BranchRecord) error { p.rs.Branches[name] = b; return nil }
func (p *memLog) AppendNextID(id int) error                      { p.rs.NextID = max(p.rs.NextID, id); return nil }
func (p *memLog) Flush() error                                   { return nil }

// cached reports whether s holds st decoded.
func cached(s *logStore, st Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.pins[st]
	return p != nil && p.ok
}

// TestSupersededStateLeavesCacheUnlessPinned: an Apply drops the decoded
// state it supersedes exactly when no branch's head set still pins it, as the pin counts kept by every write to a
// head set say, across Fork, Pull, Integrate, Import and a reopen; after
// each the counts match a scan of the head sets.
func TestSupersededStateLeavesCacheUnlessPinned(t *testing.T) {
	log := newMemLog()
	s := New[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main", WithPersister(log))
	n := 0
	apply := func(s *logStore, b string, wantKept bool) {
		t.Helper()
		old := headState(t, s, b)
		n++
		if _, err := s.Apply(b, mlog.Op{Kind: mlog.Append, Msg: fmt.Sprint("m", n)}); err != nil {
			t.Fatal(err)
		}
		checkPins(t, s, "Apply on "+b)
		if cached(s, old) != wantKept {
			t.Fatalf("Apply on %s: superseded state cached: %v, want %v", b, cached(s, old), wantKept)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	apply(s, "main", false)
	apply(s, "main", false)

	must(s.Fork("main", "b"))
	checkPins(t, s, "Fork")
	apply(s, "main", true) // b's head pins main's old state
	apply(s, "b", false)   // and no head pins it now

	must(s.Fork("b", "c"))
	apply(s, "c", true)
	must(s.Pull("b", "c"))
	checkPins(t, s, "Pull")
	apply(s, "c", true)  // b's set is c's old head now
	apply(s, "b", false) // which c has moved off

	// Integrate unites a peer's heads with main's set; an Apply on main
	// then commits the merge and supersedes what the set folds to.
	peer := NewAt[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main", 100)
	must(peer.Fork("main", "p"))
	for range 3 {
		n++
		if _, err := peer.Apply("p", mlog.Op{Kind: mlog.Append, Msg: fmt.Sprint("p", n)}); err != nil {
			t.Fatal(err)
		}
	}
	batch, heads, err := peer.Export("p")
	must(err)
	if _, _, _, err := s.Integrate("main", "remote/peer", batch, heads); err != nil {
		t.Fatal(err)
	}
	checkPins(t, s, "Integrate")
	must(s.Import("mirror", batch, heads))
	checkPins(t, s, "Import")
	// main has two heads: the Apply commits their merge, whose state no
	// head pins, before its op.
	if _, err := s.Apply("main", mlog.Op{Kind: mlog.Append, Msg: "after the merge"}); err != nil {
		t.Fatal(err)
	}
	checkPins(t, s, "Apply after Integrate")
	apply(s, "main", false)

	must(s.Fork("main", "d"))
	apply(s, "main", true)
	apply(s, "main", false)

	must(s.Fork("main", "e"))
	apply(s, "e", true)

	r, err := OpenRecovered[mlog.State, mlog.Op, mlog.Val](mlog.Log{}, mlogCodec{}, "main", 0, &log.rs)
	must(err)
	checkPins(t, r, "reopen")
	apply(r, "e", false)
	apply(r, "main", false)
	must(r.Fork("main", "f"))
	apply(r, "main", true)
}
