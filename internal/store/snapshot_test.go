package store

import (
	"errors"
	"math/rand"
	"runtime"
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
	batch, _, err := local.ExportSet(c, ship, AsOf, "")
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("seed %d: ExportSet(AsOf): %v", seed, err)
	}

	if err := receiver.Import("remote/main", batch, h0); err != nil {
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
	anc := local.ancestors(h0)
	local.mu.RUnlock()
	for h := range anc {
		if !now[h] {
			t.Fatalf("seed %d: ancestor %v of the snapshot head missing at the receiver", seed, h)
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
	commits, head, err := peer.Export("peer")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Integrate("main", "remote/peer", commits, head); err != nil {
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
	for _, mode := range []ExportMode{AsOf, Reply, Drain} {
		if _, _, err := s.ExportSet(c, nil, mode, ""); !errors.Is(err, ErrNoCapture) {
			t.Fatalf("mode %d on a closed capture: err = %v, want ErrNoCapture", mode, err)
		}
	}
}

// TestIntegrateRecordsMergesAsOwn: a capture armed before an Integrate
// whose pull mints a merge records the merge as the store's own and the
// imported commits under the tracking branch — so a reply ships the
// merge with no list of what the pull minted, a drain that skips the
// sender's commits still streams it, and only re-shipped commits count
// as redundant.
func TestIntegrateRecordsMergesAsOwn(t *testing.T) {
	s := newCounterStoreAt("main", 0)
	peer := newCounterStoreAt("peer", 64)
	mustApply(t, s, "main")
	mustApply(t, peer, "peer")
	// s already holds peer's first commit; the batch re-ships it.
	early, earlyHead, err := peer.Export("peer")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Import("remote/peer", early, earlyHead); err != nil {
		t.Fatal(err)
	}
	mustApply(t, peer, "peer")
	batch, head, err := peer.Export("peer")
	if err != nil {
		t.Fatal(err)
	}
	local, _ := s.HeadHash("main")

	c, err := s.Snapshot("main")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	redundant, merged, moved, err := s.Integrate("main", "remote/peer", batch, head)
	if err != nil {
		t.Fatal(err)
	}
	if now, _ := s.HeadHash("main"); !moved || merged != now {
		t.Fatalf("Integrate: head %v moved=%v, want the branch head %v", merged, moved, now)
	}
	if mc, _ := s.Commit(merged); len(mc.Parents) != 2 {
		t.Fatalf("pull minted %v with %d parents, want a merge", merged, len(mc.Parents))
	}
	if redundant != len(early) {
		t.Fatalf("redundant = %d, want the %d re-shipped commits", redundant, len(early))
	}

	// The reply to a peer that wants the local commit: that commit plus
	// the merge, and nothing the peer sent. It grafts onto the peer.
	ship := map[Hash]bool{local: true}
	reply, replyHead, err := s.ExportSet(c, ship, Reply, "remote/peer")
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != 2 || len(ship) != 2 || !ship[merged] || replyHead != merged {
		t.Fatalf("reply of %d commits under %v, ship %v; want the local commit and the merge %v", len(reply), replyHead, ship, merged)
	}
	if err := peer.Import("remote/main", reply, replyHead); err != nil {
		t.Fatalf("reply does not graft onto the peer: %v", err)
	}

	// A link's drain skips what the peer sent, not what the pull minted.
	drained, _, err := s.ExportSet(c, nil, Drain, "remote/peer")
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != 1 || len(drained[0].Parents) != 2 {
		t.Fatalf("drained %d commits %+v, want the merge alone", len(drained), drained)
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
	batch, head, err := s.ExportSet(c, ship, Reply, "remote/peer")
	if err != nil {
		t.Fatal(err)
	}
	if head != local || len(batch) != 2 || !ship[local] || !ship[fromThird] || ship[fromPeer] {
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
	batch, head, err := s.ExportSet(link, nil, Drain, "remote/peer")
	if err != nil {
		t.Fatal(err)
	}
	// The local commit, third's commit and the two merges; not peer's own.
	if now, _ := s.HeadHash("main"); len(batch) != 4 || head != now {
		t.Fatalf("drained %d commits under %v, want 4 under the head %v", len(batch), head, now)
	}
	if err := peer.Import("remote/main", batch, head); err != nil {
		t.Fatalf("batch does not graft onto the receiver: %v", err)
	}

	// The capture stays armed: the next drain holds only what came after.
	if again, _, err := s.ExportSet(link, nil, Drain, "remote/peer"); err != nil || len(again) != 0 {
		t.Fatalf("second drain: %d commits, %v; want none", len(again), err)
	}
	mustApply(t, s, "main")
	next, head, err := s.ExportSet(link, nil, Drain, "remote/peer")
	if err != nil || len(next) != 1 {
		t.Fatalf("drain after one apply: %d commits, %v", len(next), err)
	}
	if err := peer.Import("remote/main", next, head); err != nil {
		t.Fatalf("second batch does not graft: %v", err)
	}
	link.Close()
	if _, _, err := s.ExportSet(link, nil, Drain, "remote/peer"); !errors.Is(err, ErrNoCapture) {
		t.Fatalf("closed capture: err = %v, want ErrNoCapture", err)
	}
}

// TestDrainCaptureSkipsVirtualBases: a criss-cross pull folds its merge
// bases into a virtual commit on no branch; the drain leaves it out —
// every store that needs it folds it itself.
func TestDrainCaptureSkipsVirtualBases(t *testing.T) {
	x := newCounterStoreAt("main", 0)
	y := newCounterStoreAt("main", 64)
	mustApply(t, x, "main")
	mustApply(t, y, "main")
	early, earlyHead, err := x.Export("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := absorb(x, y, "main"); err != nil { // x merges y's commit
		t.Fatal(err)
	}
	if err := y.Import("remote/main", early, earlyHead); err != nil {
		t.Fatal(err)
	}
	if err := y.Pull("main", "remote/main"); err != nil { // y merges x's: a criss-cross
		t.Fatal(err)
	}

	link, err := x.Snapshot("main")
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	before := len(commitSet(x))
	if err := absorb(x, y, "main"); err != nil {
		t.Fatal(err)
	}
	if grown := len(commitSet(x)) - before; grown != 2 {
		t.Fatalf("criss-cross pull installed %d commits, want y's merge and a virtual base", grown)
	}
	batch, _, err := x.ExportSet(link, nil, Drain, "elsewhere")
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].Time == 0 {
		t.Fatalf("drained %d commits %+v, want y's merge alone", len(batch), batch)
	}
}
