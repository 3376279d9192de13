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
// from (Snapshot + ExportSetAsOf): however local Applies and foreign
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
	h0, token, err := local.Snapshot("main")
	if err != nil {
		t.Fatal(err)
	}
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
	batch, err := local.ExportSetAsOf(h0, ship, token)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("seed %d: ExportSetAsOf: %v", seed, err)
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

	// An empty ship set is an empty batch, and consumes the token.
	head, token, err := s.Snapshot("main")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.ExportSetAsOf(head, map[Hash]bool{}, token)
	if err != nil || len(batch) != 0 {
		t.Fatalf("empty ship: %d commits, err %v", len(batch), err)
	}
	if _, err := s.ExportSetAsOf(head, map[Hash]bool{root: true}, token); !errors.Is(err, ErrNoCapture) {
		t.Fatalf("consumed token: err = %v, want ErrNoCapture", err)
	}

	// A token ended by the session's cleanup refuses the export: its
	// record of what is younger than the snapshot is gone.
	head, token, _ = s.Snapshot("main")
	mustApply(t, s, "main")
	if got := s.EndInstallCapture(token); len(got) != 1 {
		t.Fatalf("capture recorded %d installs, want 1", len(got))
	}
	if _, err := s.ExportSetAsOf(head, map[Hash]bool{root: true}, token); !errors.Is(err, ErrNoCapture) {
		t.Fatalf("ended token: err = %v, want ErrNoCapture", err)
	}
	if _, _, err := s.Snapshot("nope"); !errors.Is(err, ErrNoBranch) {
		t.Fatalf("unknown branch: err = %v, want ErrNoBranch", err)
	}

	// Everything installed after the snapshot is cut from ship, which the
	// caller sees shrink.
	head, token, _ = s.Snapshot("main")
	mustApply(t, s, "main")
	young, _ := s.HeadHash("main")
	ship := map[Hash]bool{root: true, head: true, young: true}
	batch, err = s.ExportSetAsOf(head, ship, token)
	if err != nil || len(batch) != 2 || ship[young] {
		t.Fatalf("batch of %d (want 2), young still in ship: %v, err %v", len(batch), ship[young], err)
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

	token := s.BeginInstallCapture()
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
	batch, head, err := s.ExportSetCapture("main", ship, token, "remote/peer")
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

	head, token, link, err := s.SnapshotLink("main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExportSetAsOf(head, map[Hash]bool{}, token); err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, "main")
	for _, src := range []*counterStoreT{peer, third} {
		if err := absorb(s, src, src.Branches()[0]); err != nil {
			t.Fatal(err)
		}
	}
	batch, head, err := s.DrainCapture("main", link, "remote/peer")
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

	// The token stays armed: the next drain holds only what came after.
	if again, _, err := s.DrainCapture("main", link, "remote/peer"); err != nil || len(again) != 0 {
		t.Fatalf("second drain: %d commits, %v; want none", len(again), err)
	}
	mustApply(t, s, "main")
	next, head, err := s.DrainCapture("main", link, "remote/peer")
	if err != nil || len(next) != 1 {
		t.Fatalf("drain after one apply: %d commits, %v", len(next), err)
	}
	if err := peer.Import("remote/main", next, head); err != nil {
		t.Fatalf("second batch does not graft: %v", err)
	}
	s.EndInstallCapture(link)
	if _, _, err := s.DrainCapture("main", link, "remote/peer"); !errors.Is(err, ErrNoCapture) {
		t.Fatalf("ended token: err = %v, want ErrNoCapture", err)
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

	link := x.BeginInstallCapture()
	before := len(commitSet(x))
	if err := absorb(x, y, "main"); err != nil {
		t.Fatal(err)
	}
	if grown := len(commitSet(x)) - before; grown != 2 {
		t.Fatalf("criss-cross pull installed %d commits, want y's merge and a virtual base", grown)
	}
	batch, _, err := x.DrainCapture("main", link, "elsewhere")
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].Time == 0 {
		t.Fatalf("drained %d commits %+v, want y's merge alone", len(batch), batch)
	}
}
