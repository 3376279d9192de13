package peepul

// Daemon unit tests against a scripted syncer and fake links, on a node
// that listens nowhere: supervision cadence, the link's lifecycle
// (connect on AddPeer, stream on kicks, heartbeat when idle, reconnect
// after failure, relink on a scope change), backoff growth and recovery,
// interest learning, removal and drain, and the quarantine state
// machine: the node's classifier decides transient vs. violation,
// violations accumulate toward quarantine across interleaved transient
// failures, the quarantine schedule replaces the ordinary backoff, and
// one clean exchange lifts the state while keeping the recorded reason.
// Timing assertions are one-sided (at least / at most with generous
// slack) so loaded CI machines do not flake them.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

// call records one syncer invocation: kind is "link" (openLink) or
// "round" (meshSync).
type call struct {
	addr, kind string
}

// script is a programmable syncer: fn decides each call's outcome, and
// every call and every link it opened is recorded.
type script struct {
	mu    sync.Mutex
	calls []call
	links []*fakeLink
	fn    func(ctx context.Context, n int, addr, kind string) (missed []string, _ error)
	// beat is the heartbeat period of the links it opens (default long).
	beat time.Duration
	// push, when set, scripts every link's Push.
	push func(heartbeat bool) (bool, error)
}

func (s *script) invoke(ctx context.Context, addr, kind string) ([]string, error) {
	s.mu.Lock()
	n := len(s.calls)
	s.calls = append(s.calls, call{addr: addr, kind: kind})
	fn := s.fn
	s.mu.Unlock()
	if fn == nil {
		return nil, nil
	}
	return fn(ctx, n, addr, kind)
}

func (s *script) meshSync(ctx context.Context, addr string) ([]string, error) {
	return s.invoke(ctx, addr, "round")
}

func (s *script) openLink(ctx context.Context, addr string) (link, []string, error) {
	missed, err := s.invoke(ctx, addr, "link")
	if err != nil {
		return nil, missed, err
	}
	l := &fakeLink{addr: addr, beat: s.beat, push: s.push, done: make(chan struct{})}
	if l.beat == 0 {
		l.beat = time.Hour
	}
	s.mu.Lock()
	s.links = append(s.links, l)
	s.mu.Unlock()
	return l, missed, nil
}

func (s *script) snapshot() []call {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.calls)
}

func (s *script) opened() []*fakeLink {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.links)
}

// count returns how many calls of kind were made.
func (s *script) count(kind string) int {
	n := 0
	for _, c := range s.snapshot() {
		if c.kind == kind {
			n++
		}
	}
	return n
}

// fakeLink is a scripted link: it counts pushes and heartbeats, and dies
// when the test fails it or the supervisor closes it.
type fakeLink struct {
	addr string
	beat time.Duration
	push func(heartbeat bool) (bool, error)

	mu                 sync.Mutex
	pushes, heartbeats int
	closed             bool

	once sync.Once
	done chan struct{}
	err  error
}

func (l *fakeLink) Push(heartbeat bool) (bool, error) {
	l.mu.Lock()
	if heartbeat {
		l.heartbeats++
	} else {
		l.pushes++
	}
	l.mu.Unlock()
	if l.push != nil {
		return l.push(heartbeat)
	}
	return false, nil
}

func (l *fakeLink) Heartbeat() time.Duration { return l.beat }
func (l *fakeLink) Done() <-chan struct{}    { return l.done }

func (l *fakeLink) Err() error {
	select {
	case <-l.done:
		return l.err
	default:
		return nil
	}
}

func (l *fakeLink) fail(err error) {
	l.once.Do(func() {
		l.err = err
		close(l.done)
	})
}

func (l *fakeLink) Close() {
	l.fail(errors.New("closed"))
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

func (l *fakeLink) counts() (pushes, heartbeats int, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pushes, l.heartbeats, l.closed
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// scriptedNode is a node whose daemon drives s instead of real sessions,
// at a test cadence — rounds every 20ms, no jitter, tight backoff so
// failure paths run inside the test timeout — adjusted by opts.
func scriptedNode(t *testing.T, s *script, opts ...NodeOption) *Node {
	t.Helper()
	fast := []NodeOption{
		WithMeshInterval(20 * time.Millisecond),
		WithMeshJitter(0),
		WithMeshBackoff(10*time.Millisecond, 40*time.Millisecond),
	}
	n, err := NewNode("scripted", 1, append(fast, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	n.mesh.syncer = s
	t.Cleanup(func() { n.Close() })
	return n
}

// peerState snapshots addr's daemon state, failing if it is not
// supervised.
func peerState(t *testing.T, n *Node, addr string) MeshStats {
	t.Helper()
	st, ok := n.PeerMeshStats(addr)
	if !ok {
		t.Fatalf("peer %s not supervised", addr)
	}
	return st
}

// linkUp waits for addr's link to be up.
func linkUp(t *testing.T, n *Node, addr string) {
	t.Helper()
	waitFor(t, "link up", func() bool { return peerState(t, n, addr).LinkUp })
}

func TestAntiEntropyRounds(t *testing.T) {
	s := &script{}
	n := scriptedNode(t, s)
	n.AddPeer("p1")

	waitFor(t, "three anti-entropy rounds", func() bool { return peerState(t, n, "p1").Rounds >= 3 })
	calls := s.snapshot()
	if calls[0].kind != "link" {
		t.Fatalf("first exchange was a %s, want the link's connect session", calls[0].kind)
	}
	for _, c := range calls {
		if c.addr != "p1" {
			t.Fatalf("synced unexpected peer %q", c.addr)
		}
	}
	if k := s.count("link"); k != 1 {
		t.Fatalf("healthy peer dialled its link %d times, want 1", k)
	}
	st := peerState(t, n, "p1")
	if !st.LinkUp || st.Failures != 0 || st.Backoff != 0 || st.Score != 1 {
		t.Fatalf("healthy peer has failure state: %+v", st)
	}
	if st.LastConverged.IsZero() {
		t.Fatal("LastConverged not set after successful rounds")
	}
}

// TestLinkConnectsOnAddPeer: the link dials at once, not after a round
// interval.
func TestLinkConnectsOnAddPeer(t *testing.T) {
	n := scriptedNode(t, &script{}, WithMeshInterval(time.Hour))
	start := time.Now()
	n.AddPeer("p1")
	linkUp(t, n, "p1")
	if d := time.Since(start); d > time.Second {
		t.Fatalf("link took %v to connect", d)
	}
}

// TestLinkStreamsOnKick: a commit notification is one push on the live
// link, counted when it carried commits; no round runs for it. The
// commits the link counts into the traffic series show in MeshStats.
func TestLinkStreamsOnKick(t *testing.T) {
	s := &script{}
	n := scriptedNode(t, s, WithMeshInterval(time.Hour)) // isolate the stream
	sent := n.metrics.reg.Counter(commitsSeries, "dir", "sent", "peer", "p1")
	s.push = func(heartbeat bool) (bool, error) {
		sent.Add(2)
		return true, nil
	}
	n.AddPeer("p1")
	linkUp(t, n, "p1")
	// The streamer's first push flushes what the connect session left.
	waitFor(t, "initial push", func() bool {
		p, _, _ := s.opened()[0].counts()
		return p >= 1
	})

	n.notifyCommit()
	waitFor(t, "kicked push", func() bool {
		p, _, _ := s.opened()[0].counts()
		return p >= 2
	})
	waitFor(t, "push counted", func() bool {
		st := peerState(t, n, "p1")
		return st.Pushes >= 2 && st.CommitsSent >= 4
	})
	if k := s.count("round"); k != 0 {
		t.Fatalf("a kick ran %d rounds, want the link alone", k)
	}
}

// TestIdleLinkHeartbeats: a silent link writes a heartbeat every
// Heartbeat period, and heartbeats are not pushes.
func TestIdleLinkHeartbeats(t *testing.T) {
	s := &script{beat: 5 * time.Millisecond}
	n := scriptedNode(t, s, WithMeshInterval(time.Hour))
	n.AddPeer("p1")
	linkUp(t, n, "p1")
	waitFor(t, "three heartbeats", func() bool {
		_, hb, _ := s.opened()[0].counts()
		return hb >= 3
	})
	if st := peerState(t, n, "p1"); st.Pushes != 0 {
		t.Fatalf("heartbeats counted as %d pushes", st.Pushes)
	}
}

// TestFailedLinkReconnects: a link that dies is a failure on the backoff
// schedule, and the supervisor reconnects it.
func TestFailedLinkReconnects(t *testing.T) {
	s := &script{}
	n := scriptedNode(t, s, WithMeshInterval(time.Hour))
	n.AddPeer("p1")
	linkUp(t, n, "p1")
	s.opened()[0].fail(errors.New("connection reset"))
	waitFor(t, "reconnect", func() bool {
		return len(s.opened()) >= 2 && peerState(t, n, "p1").LinkUp
	})
	if st := peerState(t, n, "p1"); st.Failures != 1 {
		t.Fatalf("a dead link counted %d failures, want 1", st.Failures)
	}
	if _, _, closed := s.opened()[0].counts(); !closed {
		t.Fatal("the dead link was never closed")
	}
}

// TestRelinkIsNotAFailure: a link ending on errRelink reconnects at once
// without touching the failure state.
func TestRelinkIsNotAFailure(t *testing.T) {
	s := &script{}
	// A failure would park the peer for an hour.
	n := scriptedNode(t, s, WithMeshInterval(time.Hour), WithMeshBackoff(time.Hour, 40*time.Millisecond))
	n.AddPeer("p1")
	linkUp(t, n, "p1")
	s.opened()[0].fail(fmt.Errorf("%w: object opened", errRelink))
	waitFor(t, "relink", func() bool {
		return len(s.opened()) >= 2 && peerState(t, n, "p1").LinkUp
	})
	if st := peerState(t, n, "p1"); st.Failures != 0 {
		t.Fatalf("relink counted as a failure: %+v", st)
	}
}

// TestRoundLearningInterestRelinks: the connect session found the peer
// not hosting x, so the link skips it; a later round that finds x hosted
// reconnects the link to cover it.
func TestRoundLearningInterestRelinks(t *testing.T) {
	var learned sync.Map
	s := &script{}
	s.fn = func(_ context.Context, _ int, _, kind string) ([]string, error) {
		if _, ok := learned.Load("x"); !ok && kind == "link" {
			return []string{"x"}, nil
		}
		return nil, nil
	}
	n := scriptedNode(t, s)
	n.AddPeer("p1")
	linkUp(t, n, "p1")
	// The peer starts hosting x: the next round reports no miss.
	learned.Store("x", true)
	waitFor(t, "relink after the round", func() bool { return s.count("link") >= 2 })
	if _, _, closed := s.opened()[0].counts(); !closed {
		t.Fatal("the link that skipped x was never closed")
	}
	if st := peerState(t, n, "p1"); st.Failures != 0 {
		t.Fatalf("learning interest counted as a failure: %+v", st)
	}
}

func TestBackoffGrowsAndRecovers(t *testing.T) {
	var failing sync.Map
	failing.Store("on", true)
	s := &script{}
	s.fn = func(context.Context, int, string, string) ([]string, error) {
		if on, _ := failing.Load("on"); on.(bool) {
			return nil, errors.New("dial refused")
		}
		return nil, nil
	}
	n := scriptedNode(t, s)
	n.AddPeer("p1")

	waitFor(t, "three consecutive failures", func() bool {
		return peerState(t, n, "p1").ConsecutiveFailures >= 3
	})
	st := peerState(t, n, "p1")
	if st.Backoff < 40*time.Millisecond {
		t.Fatalf("backoff %v after %d failures, want cap 40ms", st.Backoff, st.ConsecutiveFailures)
	}
	if st.Score >= 0.5 {
		t.Fatalf("score %v after repeated failures, want < 0.5", st.Score)
	}
	if st.LastError == "" || st.LinkUp {
		t.Fatalf("failing peer: %+v", st)
	}

	failing.Store("on", false)
	waitFor(t, "recovery", func() bool {
		st := peerState(t, n, "p1")
		return st.ConsecutiveFailures == 0 && st.Rounds >= 1
	})
	st = peerState(t, n, "p1")
	if st.Backoff != 0 {
		t.Fatalf("backoff %v after success, want 0", st.Backoff)
	}
	if st.Score <= 0.5 {
		t.Fatalf("score %v after recovery, want > 0.5 (halfway to 1)", st.Score)
	}
	if st.LastError != "" {
		t.Fatalf("LastError %q after success, want cleared", st.LastError)
	}
	if st.Failures < 3 {
		t.Fatalf("cumulative Failures %d, want >= 3", st.Failures)
	}
}

func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		65 * time.Millisecond, 65 * time.Millisecond,
	}
	for i, w := range want {
		if got := doubling(i+1, 10*time.Millisecond, 65*time.Millisecond); got != w {
			t.Fatalf("doubling(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestRemovePeerStopsSupervision(t *testing.T) {
	s := &script{}
	n := scriptedNode(t, s)
	n.AddPeer("p1")
	n.AddPeer("p2")
	if got := n.Peers(); !slices.Equal(got, []string{"p1", "p2"}) {
		t.Fatalf("Peers() = %v", got)
	}
	waitFor(t, "p1 round", func() bool { return peerState(t, n, "p1").Rounds >= 2 })
	n.RemovePeer("p1")
	n.RemovePeer("p1") // idempotent
	if got := n.Peers(); !slices.Equal(got, []string{"p2"}) {
		t.Fatalf("Peers() after remove = %v", got)
	}
	if _, ok := n.PeerMeshStats("p1"); ok {
		t.Fatal("removed peer still reports stats")
	}
	// RemovePeer waits for the supervisor: the link is closed already and
	// the call count for p1 never moves again.
	for _, l := range s.opened() {
		if _, _, closed := l.counts(); l.addr == "p1" && !closed {
			t.Fatal("removed peer's link still open")
		}
	}
	p1Calls := func() int {
		k := 0
		for _, c := range s.snapshot() {
			if c.addr == "p1" {
				k++
			}
		}
		return k
	}
	settled := p1Calls()
	time.Sleep(100 * time.Millisecond) // ≥ 5 intervals: an alive supervisor would round
	if again := p1Calls(); again != settled {
		t.Fatalf("removed peer kept syncing: %d -> %d calls", settled, again)
	}
}

// TestCloseDrainsBlockedSync: a connect session that blocks until its
// context is cancelled does not wedge Close — Close cancels the daemon's
// context (unblocking the exchange) and waits for the supervisor to
// exit.
func TestCloseDrainsBlockedSync(t *testing.T) {
	started := make(chan struct{}, 1)
	s := &script{}
	s.fn = func(ctx context.Context, _ int, _, _ string) ([]string, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done() // the node's dial/exchange aborts the same way
		return nil, ctx.Err()
	}
	n := scriptedNode(t, s)
	n.AddPeer("p1")
	<-started

	done := make(chan struct{})
	go func() { n.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a blocked sync")
	}
	n.Close() // idempotent
	n.AddPeer("p2")
	if got := n.Peers(); !slices.Equal(got, []string{"p1"}) {
		t.Fatalf("AddPeer after Close changed the peer set: %v", got)
	}
}

// TestCloseClosesLinks: node shutdown closes every live link.
func TestCloseClosesLinks(t *testing.T) {
	s := &script{}
	n := scriptedNode(t, s)
	n.AddPeer("p1")
	n.AddPeer("p2")
	linkUp(t, n, "p1")
	linkUp(t, n, "p2")
	n.Close()
	for i, l := range s.opened() {
		if _, _, closed := l.counts(); !closed {
			t.Fatalf("link %d still open after Close", i)
		}
	}
}

// errCorrupt is a protocol violation as the node's sessions report one:
// a framing error over a healthy connection.
var errCorrupt = fmt.Errorf("%w: corrupt frame from peer", wire.ErrFraming)

// quarantineNode is scriptedNode with a tight quarantine window: three
// violations in a row, then retries from 60ms doubling to 240ms.
func quarantineNode(t *testing.T, s *script) *Node {
	t.Helper()
	return scriptedNode(t, s, WithMeshQuarantine(3, 60*time.Millisecond, 240*time.Millisecond))
}

func TestQuarantineAfterConsecutiveViolations(t *testing.T) {
	s := &script{fn: func(context.Context, int, string, string) ([]string, error) {
		return nil, errCorrupt
	}}
	n := quarantineNode(t, s)
	n.AddPeer("p1")
	waitFor(t, "quarantine", func() bool { return peerState(t, n, "p1").Quarantined })
	st := peerState(t, n, "p1")
	if st.Violations < 3 || st.ConsecutiveViolations < 3 {
		t.Fatalf("violations = %d (consecutive %d), want >= 3", st.Violations, st.ConsecutiveViolations)
	}
	if st.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", st.Quarantines)
	}
	if !strings.Contains(st.QuarantineReason, "corrupt frame") {
		t.Fatalf("quarantine reason %q does not record the violation", st.QuarantineReason)
	}
	if st.Backoff < 60*time.Millisecond {
		t.Fatalf("backoff %v below the quarantine schedule's minimum", st.Backoff)
	}
}

func TestTransientFailuresNeverQuarantine(t *testing.T) {
	s := &script{fn: func(context.Context, int, string, string) ([]string, error) {
		return nil, errors.New("connection refused")
	}}
	n := quarantineNode(t, s)
	n.AddPeer("p1")
	waitFor(t, "a failing streak", func() bool { return peerState(t, n, "p1").ConsecutiveFailures >= 5 })
	st := peerState(t, n, "p1")
	if st.Quarantined || st.Violations != 0 {
		t.Fatalf("transient failures quarantined the peer: %+v", st)
	}
	if st.Backoff > 40*time.Millisecond {
		t.Fatalf("backoff %v escaped the ordinary schedule", st.Backoff)
	}
}

func TestTransientFailureDoesNotResetViolationStreak(t *testing.T) {
	// Violations interleaved with resets — the signature of a corrupting
	// peer whose cuts sometimes beat its corruption. The streak must
	// survive the transient failures, or mixed-fault peers never
	// quarantine. The violations alternate between a refusal and a
	// framing error.
	s := &script{fn: func(_ context.Context, k int, _, _ string) ([]string, error) {
		switch k % 4 {
		case 0:
			return nil, errCorrupt
		case 2:
			return nil, fmt.Errorf("%w: peer refused the stream", ErrProtocol)
		}
		return nil, errors.New("connection reset")
	}}
	n := quarantineNode(t, s)
	n.AddPeer("p1")
	waitFor(t, "quarantine despite interleaved resets", func() bool {
		return peerState(t, n, "p1").Quarantined
	})
}

func TestQuarantineRecoveryOnCleanExchange(t *testing.T) {
	s := &script{fn: func(_ context.Context, k int, _, _ string) ([]string, error) {
		if k < 4 {
			return nil, errCorrupt
		}
		return nil, nil
	}}
	n := quarantineNode(t, s)
	n.AddPeer("p1")
	waitFor(t, "quarantine then recovery", func() bool {
		st := peerState(t, n, "p1")
		return !st.Quarantined && st.Quarantines == 1 && st.LastError == ""
	})
	st := peerState(t, n, "p1")
	if st.ConsecutiveViolations != 0 || st.ConsecutiveFailures != 0 {
		t.Fatalf("streaks not cleared on recovery: %+v", st)
	}
	if !strings.Contains(st.QuarantineReason, "corrupt frame") {
		t.Fatalf("recovery erased the quarantine record: %q", st.QuarantineReason)
	}
	if st.Violations < 3 {
		t.Fatalf("violation total %d lost history", st.Violations)
	}
}

func TestQuarantineBackoffDoublesToMax(t *testing.T) {
	s := &script{fn: func(context.Context, int, string, string) ([]string, error) {
		return nil, errCorrupt
	}}
	n := quarantineNode(t, s)
	n.AddPeer("p1")
	waitFor(t, "quarantine backoff cap", func() bool {
		return peerState(t, n, "p1").Backoff == 240*time.Millisecond
	})
	// Still quarantined, still counting, never past the cap.
	if st := peerState(t, n, "p1"); !st.Quarantined {
		t.Fatalf("peer left quarantine while still violating: %+v", st)
	}
}

// TestClassifyFailure pins the one taxonomy both the session counters
// and the supervisor read: what the bytes got wrong is a violation,
// what the network did is transient, and a network cause wins over the
// framing error that wraps it.
func TestClassifyFailure(t *testing.T) {
	opErr := &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
	reset := &net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", syscall.ECONNRESET)}
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"nil", nil, outcomeOK},
		{"ErrProtocol", fmt.Errorf("%w: bad hello", ErrProtocol), outcomeViolation},
		{"wire.ErrFraming", fmt.Errorf("%w: 5 fields exceeds limit", wire.ErrFraming), outcomeViolation},
		{"wire.ErrMalformed", fmt.Errorf("decode: %w", wire.ErrMalformed), outcomeViolation},
		{"wire.ErrVersion", fmt.Errorf("%w: 9", wire.ErrVersion), outcomeViolation},
		{"store.ErrBadImport", fmt.Errorf("commit 1: %w", store.ErrBadImport), outcomeViolation},
		{"store.ErrCorruptPack", fmt.Errorf("state: %w", store.ErrCorruptPack), outcomeViolation},
		{"net.OpError", opErr, outcomeTransient},
		{"io.EOF", io.EOF, outcomeTransient},
		{"io.ErrUnexpectedEOF", fmt.Errorf("read: %w", io.ErrUnexpectedEOF), outcomeTransient},
		{"net.ErrClosed", fmt.Errorf("write: %w", net.ErrClosed), outcomeTransient},
		{"context.Canceled", context.Canceled, outcomeTransient},
		{"context.DeadlineExceeded", fmt.Errorf("dial: %w", context.DeadlineExceeded), outcomeTransient},
		{"framing over ECONNRESET", fmt.Errorf("%w: %w", wire.ErrFraming, reset), outcomeTransient},
		{"plain error", errors.New("connection refused"), outcomeTransient},
	} {
		if got := classifyFailure(tc.err); got != tc.want {
			t.Errorf("%s: classifyFailure(%v) = %q, want %q", tc.name, tc.err, got, tc.want)
		}
	}
}
