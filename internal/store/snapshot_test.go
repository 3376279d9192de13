package store

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/counter"
	"repro/internal/recon"
)

// Property test for the snapshot export a client sync session ships
// from (Snapshot + ExportSet in AsOf mode): however local Applies and foreign
// Imports race the negotiation, the batch holds nothing younger than the
// snapshot, everything older that the receiver lacked, and grafts onto a
// receiver holding exactly ancestors(H0) ∖ ship. Ancestry is checked
// against the full-set reference walk (reference.go).

type counterStoreT = Store[int64, counter.Op, counter.Val]

func newCounterStoreAt(branch string, base int) *counterStoreT {
	return NewAt[int64, counter.Op, counter.Val](counter.IncCounter{}, int64Codec{}, branch, base)
}

func commitSet(s *counterStoreT) map[Hash]bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Hash]bool, len(s.commits))
	for h := range s.commits {
		out[h] = true
	}
	return out
}

func mustApply(t *testing.T, s *counterStoreT, b string) {
	t.Helper()
	if _, err := s.Apply(b, counter.Op{Kind: counter.Inc, N: 1}); err != nil {
		t.Fatal(err)
	}
}

// absorb ships src's whole branch into dst and merges it — the foreign
// traffic an inbound session brings.
func absorb(dst, src *counterStoreT, srcBranch string) error {
	commits, head, err := src.Export(srcBranch)
	if err != nil {
		return err
	}
	if err := dst.Import("remote/"+srcBranch, commits, head); err != nil {
		return err
	}
	return dst.Pull("main", "remote/"+srcBranch)
}

func TestSnapshotExportIsAncestryClosed(t *testing.T) {
	for seed := int64(1); seed <= 12 && !t.Failed(); seed++ {
		snapshotExportRound(t, seed)
	}
}

func snapshotExportRound(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	local := newCounterStoreAt("main", 0)
	foreign := newCounterStoreAt("peer", 64)
	receiver := newCounterStoreAt("rcv", 128)

	// Shared history with merges in it, then the receiver's holdings:
	// the ancestry of an early head of main.
	churn := func(n int) {
		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0:
				mustApply(t, foreign, "peer")
			case 1:
				if err := absorb(local, foreign, "peer"); err != nil {
					t.Fatal(err)
				}
			default:
				mustApply(t, local, "main")
			}
		}
	}
	churn(10 + r.Intn(30))
	early, earlyHead, err := local.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := receiver.Import("remote/main", early, earlyHead); err != nil {
		t.Fatal(err)
	}
	held := commitSet(receiver)
	churn(r.Intn(30))

	// From here on an applier and an importer run until the export is
	// cut.
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := local.Apply("main", counter.Op{Kind: counter.Inc, N: 1}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := foreign.Apply("peer", counter.Op{Kind: counter.Inc, N: 1}); err != nil {
				t.Error(err)
				return
			}
			if err := absorb(local, foreign, "peer"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// The snapshot instant lies between these two reads of the commit
	// set: pre ⊆ (set at snapshot) ⊆ post.
	pre := commitSet(local)
	c, err := local.Snapshot("main")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h0 := c.Head()
	post := commitSet(local)
	for local.NumCommits() < len(post)+8 {
		runtime.Gosched() // let younger commits land before ship is resolved
	}
	ship := make(map[Hash]bool)
	for _, it := range local.ReconItems(recon.Item{}, recon.Item{}, -1) {
		if !held[it.Addr()] {
			ship[it.Addr()] = true
		}
	}
	batch, heads, err := local.ExportSet(c, ship, AsOf, "")
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("seed %d: ExportSet(AsOf): %v", seed, err)
	}

	if HeadSetHash(heads) != h0 {
		t.Fatalf("seed %d: AsOf ships under %v, want the snapshot heads %v", seed, heads, h0)
	}
	if err := receiver.Import("remote/main", batch, heads); err != nil {
		t.Fatalf("seed %d: batch does not graft onto ancestors(H0) ∖ ship: %v", seed, err)
	}
	if err := receiver.VerifyPack(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if got, _ := receiver.HeadHash("remote/main"); got != h0 {
		t.Fatalf("seed %d: imported head %v, want the snapshot head %v", seed, got, h0)
	}
	now := commitSet(receiver)
	if len(now)-len(held) != len(batch) {
		t.Fatalf("seed %d: batch of %d commits installed %d", seed, len(batch), len(now)-len(held))
	}
	for h := range now {
		if !held[h] && !post[h] {
			t.Fatalf("seed %d: batch ships %v, installed after the snapshot", seed, h)
		}
	}
	for h := range pre {
		if !now[h] {
			t.Fatalf("seed %d: commit %v predates the snapshot and did not ship", seed, h)
		}
	}
	local.mu.RLock()
	defer local.mu.RUnlock()
	for _, head := range heads {
		for h := range local.ancestors(head) {
			if !now[h] {
				t.Fatalf("seed %d: ancestor %v of the snapshot heads missing at the receiver", seed, h)
			}
		}
	}
}

func TestSnapshotExportTokenEdges(t *testing.T) {
	s := newCounterStoreAt("main", 0)
	mustApply(t, s, "main")
	root := s.ReconItems(recon.Item{}, recon.Item{}, 1)[0].Addr()

	// An empty ship set is an empty batch.
	c, err := s.Snapshot("main")
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := s.ExportSet(c, map[Hash]bool{}, AsOf, "")
	if err != nil || len(batch) != 0 {
		t.Fatalf("empty ship: %d commits, err %v", len(batch), err)
	}
	c.Close()
	if _, _, err := s.ExportSet(c, map[Hash]bool{root: true}, AsOf, ""); !errors.Is(err, ErrNoCapture) {
		t.Fatalf("closed capture: err = %v, want ErrNoCapture", err)
	}

	// A capture closed by the session's cleanup refuses the export: its
	// record of what is younger than the snapshot is gone.
	c, _ = s.Snapshot("main")
	mustApply(t, s, "main")
	if got := len(c.log); got != 1 {
		t.Fatalf("capture recorded %d installs, want 1", got)
	}
	c.Close()
	if _, _, err := s.ExportSet(c, map[Hash]bool{root: true}, AsOf, ""); !errors.Is(err, ErrNoCapture) {
		t.Fatalf("closed capture: err = %v, want ErrNoCapture", err)
	}
	if _, err := s.Snapshot("nope"); !errors.Is(err, ErrNoBranch) {
		t.Fatalf("unknown branch: err = %v, want ErrNoBranch", err)
	}

	// Everything installed after the snapshot is cut from ship, which the
	// caller sees shrink.
	c, _ = s.Snapshot("main")
	head := c.Head()
	mustApply(t, s, "main")
	young, _ := s.HeadHash("main")
	ship := map[Hash]bool{root: true, head: true, young: true}
	batch, _, err = s.ExportSet(c, ship, AsOf, "")
	if err != nil || len(batch) != 2 || ship[young] {
		t.Fatalf("batch of %d (want 2), young still in ship: %v, err %v", len(batch), ship[young], err)
	}

	// Only Close ends a capture: AsOf left this one armed, so a drain
	// still works, and Integrate opens none of its own. A second Close is
	// a no-op, and a closed capture records nothing and refuses every mode.
	mustApply(t, s, "main")
	if batch, _, err := s.ExportSet(c, nil, Drain, "remote/peer"); err != nil || len(batch) != 2 {
		t.Fatalf("drain after AsOf: %d commits, %v; want the two applies", len(batch), err)
	}
	peer := newCounterStoreAt("peer", 64)
	mustApply(t, peer, "peer")
	commits, heads, err := peer.Export("peer")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Integrate("main", "remote/peer", commits, heads); err != nil {
		t.Fatal(err)
	}
	if n := len(s.captures); n != 1 {
		t.Fatalf("%d captures open after Integrate, want the snapshot's alone", n)
	}
	c.Close()
	c.Close()
	if n := len(s.captures); n != 0 {
		t.Fatalf("%d captures open after Close", n)
	}
	recorded := len(c.log)
	mustApply(t, s, "main")
	if len(c.log) != recorded {
		t.Fatal("a closed capture still records installs")
	}
	for _, mode := range []ExportMode{AsOf, Drain} {
		if _, _, err := s.ExportSet(c, nil, mode, ""); !errors.Is(err, ErrNoCapture) {
			t.Fatalf("mode %d on a closed capture: err = %v, want ErrNoCapture", mode, err)
		}
	}
}

// TestIntegrateRecordsMergesAsOwn: Integrate mints nothing — it records
// the imported commits under the tracking branch and unions the head set
// — and the merge the next Apply commits is recorded as the store's own.
// So a reply ships no merge, a drain that skips the sender's commits
// still streams the Apply's merge, and only re-shipped commits count as
// redundant.
func TestIntegrateRecordsMergesAsOwn(t *testing.T) {
	s := newCounterStoreAt("main", 0)
	peer := newCounterStoreAt("peer", 64)
	mustApply(t, s, "main")
	mustApply(t, peer, "peer")
	// s already holds peer's first commit; the batch re-ships it.
	early, earlyHeads, err := peer.Export("peer")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Import("remote/peer", early, earlyHeads); err != nil {
		t.Fatal(err)
	}
	mustApply(t, peer, "peer")
	batch, heads, err := peer.Export("peer")
	if err != nil {
		t.Fatal(err)
	}
	local, _ := s.HeadHash("main")

	c, err := s.Snapshot("main")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	commits := s.NumCommits()
	redundant, after, moved, err := s.Integrate("main", "remote/peer", batch, heads)
	if err != nil {
		t.Fatal(err)
	}
	want := sortHashes([]Hash{local, heads[0]})
	if got := s.Heads("main"); !moved || after != HeadSetHash(want) || !slices.Equal(got, want) {
		t.Fatalf("Integrate: heads %v (%v) moved=%v, want the union %v", got, after, moved, want)
	}
	if redundant != len(early) || s.NumCommits() != commits+len(batch)-len(early) {
		t.Fatalf("redundant = %d, %d commits installed; want the %d re-shipped, no merge", redundant, s.NumCommits()-commits, len(early))
	}

	// The reply to a peer that wants the local commit: that commit alone,
	// under both heads, and nothing the peer sent. It grafts onto the peer.
	ship := map[Hash]bool{local: true}
	reply, replyHeads, err := s.ExportSet(c, ship, Drain, "remote/peer")
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != 1 || len(ship) != 1 || !slices.Equal(replyHeads, want) {
		t.Fatalf("reply of %d commits under %v, ship %v; want the local commit under %v", len(reply), replyHeads, ship, want)
	}
	if err := peer.Import("remote/main", reply, replyHeads); err != nil {
		t.Fatalf("reply does not graft onto the peer: %v", err)
	}

	// The next Apply commits the canonical merge, then its op; a link's
	// drain skips what the peer sent, not those.
	mustApply(t, s, "main")
	drained, _, err := s.ExportSet(c, nil, Drain, "remote/peer")
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != 2 || len(drained[0].Parents) != 2 || len(drained[1].Parents) != 1 {
		t.Fatalf("drained %d commits %+v, want the merge and the op", len(drained), drained)
	}
}

// TestExportSetCaptureSkipsWhatTheReceiverSent: a serving session's
// reply folds in everything installed since its hello ack — except what
// arrived under the receiver's own tracking branch, on this session or
// on one that crossed it, which the receiver provably holds.
func TestExportSetCaptureSkipsWhatTheReceiverSent(t *testing.T) {
	s := newCounterStoreAt("main", 0)
	peer := newCounterStoreAt("peer", 64)
	third := newCounterStoreAt("third", 128)
	mustApply(t, peer, "peer")
	mustApply(t, third, "third")

	c, err := s.Snapshot("main")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustApply(t, s, "main")
	for _, src := range []*counterStoreT{peer, third} {
		branch := src.Branches()[0]
		commits, head, err := src.Export(branch)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Import("remote/"+branch, commits, head); err != nil {
			t.Fatal(err)
		}
	}
	local, _ := s.HeadHash("main")
	fromPeer, _ := peer.HeadHash("peer")
	fromThird, _ := third.HeadHash("third")

	ship := make(map[Hash]bool)
	batch, heads, err := s.ExportSet(c, ship, Drain, "remote/peer")
	if err != nil {
		t.Fatal(err)
	}
	if HeadSetHash(heads) != local || len(batch) != 2 || !ship[local] || !ship[fromThird] || ship[fromPeer] {
		t.Fatalf("reply of %d commits, ship local=%v third=%v peer=%v; want the local and third-party commit only",
			len(batch), ship[local], ship[fromThird], ship[fromPeer])
	}
}

// TestDrainCaptureStreamsWhatTheReceiverLacks: a link's capture, armed
// with the connect session's snapshot, outlives the session's export and
// drains batch by batch — everything installed since, bar what came from
// the receiver — and every batch grafts onto the receiver.
func TestDrainCaptureStreamsWhatTheReceiverLacks(t *testing.T) {
	s := newCounterStoreAt("main", 0)
	peer := newCounterStoreAt("peer", 64)
	third := newCounterStoreAt("third", 128)
	mustApply(t, peer, "peer")
	mustApply(t, third, "third")

	link, err := s.Snapshot("main")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ExportSet(link, map[Hash]bool{}, AsOf, ""); err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, "main")
	for _, src := range []*counterStoreT{peer, third} {
		if err := absorb(s, src, src.Branches()[0]); err != nil {
			t.Fatal(err)
		}
	}
	batch, heads, err := s.ExportSet(link, nil, Drain, "remote/peer")
	if err != nil {
		t.Fatal(err)
	}
	// The local commit and third's commit under the three heads; not
	// peer's own, and no merge: pulls mint none.
	if now := s.Heads("main"); len(batch) != 2 || len(heads) != 3 || !slices.Equal(heads, now) {
		t.Fatalf("drained %d commits under %v, want 2 under the heads %v", len(batch), heads, now)
	}
	if err := peer.Import("remote/main", batch, heads); err != nil {
		t.Fatalf("batch does not graft onto the receiver: %v", err)
	}

	// The capture stays armed: the next drain holds only what came after.
	if again, _, err := s.ExportSet(link, nil, Drain, "remote/peer"); err != nil || len(again) != 0 {
		t.Fatalf("second drain: %d commits, %v; want none", len(again), err)
	}
	// An apply over three heads commits their two-step canonical merge,
	// then the op.
	mustApply(t, s, "main")
	next, heads, err := s.ExportSet(link, nil, Drain, "remote/peer")
	if err != nil || len(next) != 3 {
		t.Fatalf("drain after one apply: %d commits, %v", len(next), err)
	}
	if err := peer.Import("remote/main", next, heads); err != nil {
		t.Fatalf("second batch does not graft: %v", err)
	}
	link.Close()
	if _, _, err := s.ExportSet(link, nil, Drain, "remote/peer"); !errors.Is(err, ErrNoCapture) {
		t.Fatalf("closed capture: err = %v, want ErrNoCapture", err)
	}
}
