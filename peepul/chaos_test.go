package peepul_test

// The chaos acceptance gate: a ten-node mesh runs through a seeded
// fault-injection net — 25% connection drops, rolling two-way
// partitions, and one peer whose every byte stream is corrupted — with
// commits landing throughout. After the partitions heal, the nine
// honest nodes must converge to identical heads with VerifyPack-clean
// stores, and the corrupter's supervisor must have quarantined it with
// a recorded reason. Once the corrupter is repaired, the full ten
// converge and the quarantine lifts. The race detector guards the
// whole run in CI.

import (
	"context"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/peepul"
)

// waitConverged polls until every node reports the same counter value
// AND the same head hash — equal values can coincide while commits are
// still in flight; equal heads cannot.
func waitConverged(t *testing.T, want int64, timeout time.Duration, nodes ...*counterNode) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		var ref store.Hash
		for i, n := range nodes {
			if value(t, n) != want {
				ok = false
				break
			}
			head, err := n.head()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = head
			} else if head != ref {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, n := range nodes {
		head, _ := n.head()
		t.Logf("node %s: counter = %d (want %d), head %v", n.Name(), value(t, n), want, head)
	}
	t.Fatalf("nodes did not converge to identical heads at %d within %v", want, timeout)
}

func TestChaosMeshConvergesAndQuarantinesCorrupter(t *testing.T) {
	fn := faultnet.New(42)
	fn.SetDefaultLink(faultnet.Link{
		DropRate: 0.25,
		Latency:  time.Millisecond,
		Jitter:   time.Millisecond,
	})
	// Every byte stream the corrupter writes — and every stream an
	// honest dialer reads from it — gets bits flipped.
	fn.SetLink("c", faultnet.Any, faultnet.Link{CorruptRate: 0.9})

	names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "c"}
	nodes := make([]*counterNode, len(names))
	for i, name := range names {
		nodes[i] = newMeshCounterNode(t, name, i+1,
			peepul.WithTransport(fn.Transport(name)),
			peepul.WithSyncTimeout(300*time.Millisecond),
			peepul.WithSessionTimeout(2*time.Second),
			peepul.WithMeshQuarantine(2, 100*time.Millisecond, time.Second),
			peepul.WithObservability(),
		)
	}
	honest := nodes[:9]
	corrupter := nodes[9]
	// Forensics on failure: the corrupter's flight recorder and its
	// supervisor's (n8 — the node that must quarantine it) say which
	// sessions broke, how they were classified, and when the quarantine
	// moved.
	defer func() {
		if t.Failed() {
			t.Logf("corrupter flight recorder:\n%s", obs.FormatTrace(corrupter.Trace()))
			t.Logf("supervisor (n8) flight recorder:\n%s", obs.FormatTrace(nodes[8].Trace()))
		}
	}()
	// Ring supervision: node i keeps node i+1 in sync, so n8 supervises
	// the corrupter and is the node that must quarantine it.
	for i, n := range nodes {
		n.AddPeer(nodes[(i+1)%len(nodes)].Addr())
	}

	// Rolling partitions: two splits that cut the ring along different
	// axes, with healed holds between, looping for the fault horizon.
	ctx, cancel := context.WithCancel(context.Background())
	steps := []faultnet.Step{
		{Hold: 150 * time.Millisecond, Groups: [][]string{
			{"n0", "n1", "n2", "n3", "n4"}, {"n5", "n6", "n7", "n8", "c"}}},
		{Hold: 100 * time.Millisecond},
		{Hold: 150 * time.Millisecond, Groups: [][]string{
			{"n0", "n2", "n4", "n6", "n8"}, {"n1", "n3", "n5", "n7", "c"}}},
		{Hold: 100 * time.Millisecond},
	}
	scheduleDone := fn.RunSchedule(ctx, steps, true)

	// Commits land on every honest node throughout the fault horizon.
	var total int64
	for round := 0; round < 10; round++ {
		for _, n := range honest {
			inc(t, n, 1)
			total++
		}
		time.Sleep(100 * time.Millisecond)
	}

	// End the horizon: heal partitions and clear the default drops, but
	// the corrupter stays corrupting.
	cancel()
	select {
	case <-scheduleDone:
	case <-time.After(5 * time.Second):
		t.Fatal("partition schedule did not stop")
	}
	fn.SetDefaultLink(faultnet.Link{})

	// Phase 1: the nine honest nodes converge to identical heads despite
	// the corrupter still poisoning its links.
	waitConverged(t, total, 45*time.Second, honest...)
	for _, n := range honest {
		if err := n.obj.Store().VerifyPack(); err != nil {
			t.Fatalf("node %s store corrupt after chaos: %v", n.Name(), err)
		}
	}

	// The corrupter's supervisor has it quarantined, reason recorded.
	supervisor := nodes[8]
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := supervisor.PeerMeshStats(corrupter.Addr())
		if ok && st.Quarantined {
			if st.QuarantineReason == "" {
				t.Fatalf("quarantine recorded no reason: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("corrupter never quarantined: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: repair the corrupter. Its next clean exchange lifts the
	// quarantine and the full ten-node mesh converges, corrupter included.
	fn.SetLink("c", faultnet.Any, faultnet.Link{})
	inc(t, corrupter, 5)
	total += 5
	waitConverged(t, total, 45*time.Second, nodes...)
	for _, n := range nodes {
		if err := n.obj.Store().VerifyPack(); err != nil {
			t.Fatalf("node %s store corrupt after heal: %v", n.Name(), err)
		}
	}
	// The supervisor lifts the quarantine on its next clean exchange —
	// which waits out the quarantine backoff, so convergence (via the
	// corrupter's own dials) can land first.
	deadline = time.Now().Add(30 * time.Second)
	for {
		st, ok := supervisor.PeerMeshStats(corrupter.Addr())
		if ok && !st.Quarantined {
			if st.QuarantineReason == "" {
				t.Fatalf("recovery erased the quarantine record: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quarantine not lifted by a clean exchange: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
