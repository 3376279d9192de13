package peepul_test

// Tests for snapshot sync sessions: a client session ships from the
// state it connected with and holds no lock across its round trips, so
// local commits never wait for the network, crossed sessions need no
// tie-break, and only a pull that really moved the head is remote news.

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/faultnet"
	"repro/peepul"
)

func incOp(n int64) counter.Op { return counter.Op{Kind: counter.Inc, N: n} }

// settle runs up to maxSyncs quiescent syncs and requires one head,
// every op on both sides and clean packs.
func settle(t *testing.T, a, b *counterNode, want int64, maxSyncs int) {
	t.Helper()
	for i := 1; ; i++ {
		if err := a.SyncWith(b.Addr()); err != nil {
			t.Fatal(err)
		}
		ha, _ := a.head()
		hb, _ := b.head()
		if ha == hb {
			break
		}
		if i == maxSyncs {
			t.Fatalf("heads still differ after %d quiescent sync(s): %v vs %v", i, ha, hb)
		}
	}
	for _, n := range []*counterNode{a, b} {
		if v := value(t, n); v != want {
			t.Fatalf("node %s holds %d, want %d", n.Name(), v, want)
		}
		if err := n.obj.Store().VerifyPack(); err != nil {
			t.Fatalf("node %s: %v", n.Name(), err)
		}
	}
}

// TestDoBoundedByStoreNotSession: while A syncs B over a link charging
// 20 ms per hop, every Do on A returns in less than half a hop. A Do
// that waits on the session waits in every session; a scheduler stall
// on a loaded machine (about one run in a hundred here) does not
// repeat, so a slow sample gets two more sessions to show which it was.
func TestDoBoundedByStoreNotSession(t *testing.T) {
	const hop = 20 * time.Millisecond
	fn := faultnet.New(1)
	a := newMeshCounterNode(t, "a", 1, peepul.WithTransport(fn.Transport("a")))
	b := newMeshCounterNode(t, "b", 2, peepul.WithTransport(fn.Transport("b")))
	total := int64(0)
	for i := 0; i < 40; i++ {
		inc(t, a, 1)
		inc(t, b, 1)
		total += 2
	}
	if err := a.SyncWith(b.Addr()); err != nil { // learn the dialect
		t.Fatal(err)
	}

	fn.SetDefaultLink(faultnet.Link{Latency: hop})
	for attempt := 1; ; attempt++ {
		inc(t, b, 1) // news in both directions
		total++
		session := make(chan error, 1)
		go func() { session <- a.SyncWith(b.Addr()) }()
		var worst time.Duration
		during := 0
		for done := false; !done; {
			select {
			case err := <-session:
				if err != nil {
					t.Fatal(err)
				}
				done = true
			default:
				start := time.Now()
				inc(t, a, 1)
				if d := time.Since(start); d > worst {
					worst = d
				}
				total++
				during++
				time.Sleep(time.Millisecond)
			}
		}
		if worst < hop/2 {
			if during < 20 {
				t.Fatalf("only %d Do calls overlapped the session; the test did not exercise it", during)
			}
			break
		}
		if attempt == 3 {
			t.Fatalf("slowest of %d Do calls during a session took %v in each of %d sessions, want < %v (one hop is %v)",
				during, worst, attempt, hop/2, hop)
		}
		t.Logf("session %d: slowest of %d Do calls took %v; measuring again", attempt, during, worst)
	}
	fn.SetDefaultLink(faultnet.Link{})
	settle(t, a, b, total, 1)
	for _, n := range []*counterNode{a, b} {
		if r := n.Stats().RedundantCommits; r != 0 {
			t.Fatalf("node %s received %d redundant commits", n.Name(), r)
		}
	}
}

// TestCrossedSessionsNeedNoTieBreak: two nodes syncing each other at the
// same moment, with writers on both, never refuse or stall each other —
// whichever of the two names sorts first.
func TestCrossedSessionsNeedNoTieBreak(t *testing.T) {
	for _, names := range [][2]string{{"a", "b"}, {"b", "a"}} {
		t.Run(names[0]+names[1], func(t *testing.T) {
			const sessionTimeout = 5 * time.Second
			x := newMeshCounterNode(t, names[0], 1, peepul.WithSessionTimeout(sessionTimeout),
				peepul.WithObservability())
			y := newMeshCounterNode(t, names[1], 2, peepul.WithSessionTimeout(sessionTimeout))
			var total atomic.Int64
			for iter := 0; iter < 50; iter++ {
				var wg sync.WaitGroup
				for _, pair := range [][2]*counterNode{{x, y}, {y, x}} {
					from, to := pair[0], pair[1]
					wg.Add(2)
					go func() {
						defer wg.Done()
						if err := from.SyncWith(to.Addr()); err != nil {
							t.Errorf("iteration %d: %s.SyncWith(%s): %v", iter, from.Name(), to.Name(), err)
						}
					}()
					go func() {
						defer wg.Done()
						for k := 0; k < 5; k++ {
							if _, err := from.obj.Do(incOp(1)); err != nil {
								t.Error(err)
								return
							}
							total.Add(1)
						}
					}()
				}
				finished := make(chan struct{})
				go func() { wg.Wait(); close(finished) }()
				select {
				case <-finished:
				case <-time.After(2 * sessionTimeout):
					t.Fatalf("iteration %d: crossed sessions did not finish", iter)
				}
				if t.Failed() {
					return
				}
			}
			// RedundantCommits stays out of this oracle: each of two crossed
			// sessions may ship the other a commit its twin delivered first.
			settle(t, x, y, total.Load(), 2)
		})
	}
}

// TestWatchSilentForLocalWrites: a Do that lands while a reply is being
// integrated moves the head, but is not remote news — the watcher of a
// node whose peer has nothing new stays silent however often it syncs.
func TestWatchSilentForLocalWrites(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	inc(t, a, 1)
	convergePair(t, a, b)
	ctx, cancel := context.WithCancel(context.Background())
	events := a.obj.Watch(ctx)

	// Each round races one session against local commits that keep
	// landing until it returns — paced and capped, so a slow session
	// cannot feed the next one an ever larger backlog.
	for round := 0; round < 100; round++ {
		var returned atomic.Bool
		burst := make(chan error, 1)
		go func() {
			for k := 0; k < 400 && !returned.Load(); k++ {
				if _, err := a.obj.Do(incOp(1)); err != nil {
					burst <- err
					return
				}
				for next := time.Now().Add(50 * time.Microsecond); time.Now().Before(next); {
					runtime.Gosched()
				}
			}
			burst <- nil
		}()
		err := a.SyncWith(b.Addr())
		returned.Store(true)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-burst; err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	n := 0
	for range events {
		n++
	}
	if n != 0 {
		t.Fatalf("watcher on the writing node received %d events for its own commits", n)
	}
}

// countingTransport counts the dials a node makes.
type countingTransport struct {
	peepul.Transport
	dials atomic.Int64
}

func (c *countingTransport) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c.dials.Add(1)
	return c.Transport.Dial(ctx, addr)
}

// TestSpanProbeTransportErrorKeepsMemo: a span probe whose reply is cut
// mid-frame is a transport failure, not a refusal — the round fails on
// its one dial and the next round still opens with the span probe.
func TestSpanProbeTransportErrorKeepsMemo(t *testing.T) {
	fn := faultnet.New(3)
	tr := &countingTransport{Transport: fn.Transport("a")}
	a := newMeshCounterNode(t, "a", 1, peepul.WithTransport(tr), peepul.WithObservability())
	b := newMeshCounterNode(t, "b", 2, peepul.WithTransport(fn.Transport("b")))
	inc(t, a, 1)
	inc(t, b, 1)
	convergePair(t, a, b)
	spanProbes := func() int64 {
		return seriesSum(a.Metrics(), "peepul_recon_span_probes_total")
	}

	fn.SetLink("b", "a", faultnet.Link{CutRate: 1})
	dials := tr.dials.Load()
	if err := a.SyncWith(b.Addr()); err == nil {
		t.Fatal("sync over a link that cuts every reply succeeded")
	}
	if got := tr.dials.Load() - dials; got != 1 {
		t.Fatalf("failed round dialled %d times, want 1", got)
	}

	fn.SetLink("b", "a", faultnet.Link{})
	probes := spanProbes()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := spanProbes() - probes; got != 1 {
		t.Fatalf("round after a cut reply answered %d span probes, want 1: the recon memo was dropped", got)
	}
}
