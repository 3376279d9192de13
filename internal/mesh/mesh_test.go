package mesh

// Engine unit tests against a scripted Syncer and fake links:
// supervision cadence, the link's lifecycle (connect on AddPeer, stream
// on kicks, heartbeat when idle, reconnect after failure, relink on a
// scope change), backoff growth and recovery, interest learning, removal
// and drain. Timing assertions are one-sided (at least / at most with
// generous slack) so loaded CI machines do not flake them.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// call records one Syncer invocation: kind is "link" (OpenLink) or
// "round" (MeshSync).
type call struct {
	addr, kind string
}

// script is a programmable Syncer: fn decides each call's outcome, and
// every call and every link it opened is recorded.
type script struct {
	mu    sync.Mutex
	calls []call
	links []*fakeLink
	fn    func(ctx context.Context, n int, addr, kind string) (Report, error)
	// beat is the heartbeat period of the links it opens (default long).
	beat time.Duration
	// push, when set, scripts every link's Push.
	push func(heartbeat bool) (bool, error)
}

func (s *script) invoke(ctx context.Context, addr, kind string) (Report, error) {
	s.mu.Lock()
	n := len(s.calls)
	s.calls = append(s.calls, call{addr: addr, kind: kind})
	fn := s.fn
	s.mu.Unlock()
	if fn == nil {
		return Report{}, nil
	}
	return fn(ctx, n, addr, kind)
}

func (s *script) MeshSync(ctx context.Context, addr string) (Report, error) {
	return s.invoke(ctx, addr, "round")
}

func (s *script) OpenLink(ctx context.Context, addr string) (Link, Report, error) {
	rep, err := s.invoke(ctx, addr, "link")
	if err != nil {
		return nil, rep, err
	}
	l := &fakeLink{addr: addr, beat: s.beat, push: s.push, done: make(chan struct{})}
	if l.beat == 0 {
		l.beat = time.Hour
	}
	s.mu.Lock()
	s.links = append(s.links, l)
	s.mu.Unlock()
	return l, rep, nil
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

// fakeLink is a scripted Link: it counts pushes and heartbeats, and dies
// when the test fails it or the engine closes it.
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

// fastConfig is a test cadence: rounds every 20ms, no jitter, tight
// backoff so failure paths run inside the test timeout.
func fastConfig() Config {
	return Config{
		Interval:   20 * time.Millisecond,
		Jitter:     -1,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 40 * time.Millisecond,
	}
}

// linkUp waits for addr's link to be up.
func linkUp(t *testing.T, e *Engine, addr string) {
	t.Helper()
	waitFor(t, "link up", func() bool {
		st, _ := e.PeerStats(addr)
		return st.LinkUp
	})
}

func TestAntiEntropyRounds(t *testing.T) {
	s := &script{}
	e := New(s, fastConfig())
	defer e.Close()
	e.AddPeer("p1")

	waitFor(t, "three anti-entropy rounds", func() bool {
		st, _ := e.PeerStats("p1")
		return st.Rounds >= 3
	})
	calls := s.snapshot()
	if calls[0].kind != "link" {
		t.Fatalf("first exchange was a %s, want the link's connect session", calls[0].kind)
	}
	for _, c := range calls {
		if c.addr != "p1" {
			t.Fatalf("synced unexpected peer %q", c.addr)
		}
	}
	if n := s.count("link"); n != 1 {
		t.Fatalf("healthy peer dialled its link %d times, want 1", n)
	}
	st, ok := e.PeerStats("p1")
	if !ok {
		t.Fatal("peer stats missing")
	}
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
	cfg := fastConfig()
	cfg.Interval = time.Hour
	s := &script{}
	e := New(s, cfg)
	defer e.Close()
	start := time.Now()
	e.AddPeer("p1")
	linkUp(t, e, "p1")
	if d := time.Since(start); d > time.Second {
		t.Fatalf("link took %v to connect", d)
	}
}

// TestLinkStreamsOnKick: a commit notification is one push on the live
// link, counted when it carried commits; no round runs for it. The
// commits the link counts into the traffic series show in PeerStats.
func TestLinkStreamsOnKick(t *testing.T) {
	cfg := fastConfig()
	cfg.Interval = time.Hour // isolate the stream
	cfg.Obs = obs.NewRegistry()
	sent := cfg.Obs.Counter(CommitsSeries, "dir", "sent", "peer", "p1")
	s := &script{push: func(heartbeat bool) (bool, error) {
		sent.Add(2)
		return true, nil
	}}
	e := New(s, cfg)
	defer e.Close()
	e.AddPeer("p1")
	linkUp(t, e, "p1")
	// The streamer's first push flushes what the connect session left.
	waitFor(t, "initial push", func() bool {
		p, _, _ := s.opened()[0].counts()
		return p >= 1
	})

	e.NotifyCommit()
	waitFor(t, "kicked push", func() bool {
		p, _, _ := s.opened()[0].counts()
		return p >= 2
	})
	waitFor(t, "push counted", func() bool {
		st, _ := e.PeerStats("p1")
		return st.Pushes >= 2 && st.CommitsSent >= 4
	})
	if n := s.count("round"); n != 0 {
		t.Fatalf("a kick ran %d rounds, want the link alone", n)
	}
}

// TestIdleLinkHeartbeats: a silent link writes a heartbeat every
// Heartbeat period, and heartbeats are not pushes.
func TestIdleLinkHeartbeats(t *testing.T) {
	cfg := fastConfig()
	cfg.Interval = time.Hour
	s := &script{beat: 5 * time.Millisecond}
	e := New(s, cfg)
	defer e.Close()
	e.AddPeer("p1")
	linkUp(t, e, "p1")
	waitFor(t, "three heartbeats", func() bool {
		_, hb, _ := s.opened()[0].counts()
		return hb >= 3
	})
	if st, _ := e.PeerStats("p1"); st.Pushes != 0 {
		t.Fatalf("heartbeats counted as %d pushes", st.Pushes)
	}
}

// TestFailedLinkReconnects: a link that dies is a failure on the backoff
// schedule, and the supervisor reconnects it.
func TestFailedLinkReconnects(t *testing.T) {
	cfg := fastConfig()
	cfg.Interval = time.Hour
	s := &script{}
	e := New(s, cfg)
	defer e.Close()
	e.AddPeer("p1")
	linkUp(t, e, "p1")
	s.opened()[0].fail(errors.New("connection reset"))
	waitFor(t, "reconnect", func() bool {
		st, _ := e.PeerStats("p1")
		return len(s.opened()) >= 2 && st.LinkUp
	})
	st, _ := e.PeerStats("p1")
	if st.Failures != 1 {
		t.Fatalf("a dead link counted %d failures, want 1", st.Failures)
	}
	if _, _, closed := s.opened()[0].counts(); !closed {
		t.Fatal("the dead link was never closed")
	}
}

// TestRelinkIsNotAFailure: a link ending on ErrRelink reconnects at once
// without touching the failure state.
func TestRelinkIsNotAFailure(t *testing.T) {
	cfg := fastConfig()
	cfg.Interval = time.Hour
	cfg.BackoffMin = time.Hour // a failure would park the peer
	s := &script{}
	e := New(s, cfg)
	defer e.Close()
	e.AddPeer("p1")
	linkUp(t, e, "p1")
	s.opened()[0].fail(fmt.Errorf("%w: object opened", ErrRelink))
	waitFor(t, "relink", func() bool {
		st, _ := e.PeerStats("p1")
		return len(s.opened()) >= 2 && st.LinkUp
	})
	if st, _ := e.PeerStats("p1"); st.Failures != 0 {
		t.Fatalf("relink counted as a failure: %+v", st)
	}
}

// TestRoundLearningInterestRelinks: the connect session found the peer
// not hosting x, so the link skips it; a later round that finds x hosted
// reconnects the link to cover it.
func TestRoundLearningInterestRelinks(t *testing.T) {
	var learned sync.Map
	s := &script{}
	s.fn = func(_ context.Context, n int, addr, kind string) (Report, error) {
		if _, ok := learned.Load("x"); !ok && kind == "link" {
			return Report{Missed: []string{"x"}}, nil
		}
		return Report{}, nil
	}
	e := New(s, fastConfig())
	defer e.Close()
	e.AddPeer("p1")
	linkUp(t, e, "p1")
	// The peer starts hosting x: the next round reports no miss.
	learned.Store("x", true)
	waitFor(t, "relink after the round", func() bool { return s.count("link") >= 2 })
	if _, _, closed := s.opened()[0].counts(); !closed {
		t.Fatal("the link that skipped x was never closed")
	}
	if st, _ := e.PeerStats("p1"); st.Failures != 0 {
		t.Fatalf("learning interest counted as a failure: %+v", st)
	}
}

func TestBackoffGrowsAndRecovers(t *testing.T) {
	cfg := fastConfig()
	var failing sync.Map
	failing.Store("on", true)
	s := &script{}
	s.fn = func(_ context.Context, n int, addr, kind string) (Report, error) {
		if on, _ := failing.Load("on"); on.(bool) {
			return Report{}, errors.New("dial refused")
		}
		return Report{}, nil
	}
	e := New(s, cfg)
	defer e.Close()
	e.AddPeer("p1")

	waitFor(t, "three consecutive failures", func() bool {
		st, _ := e.PeerStats("p1")
		return st.ConsecutiveFailures >= 3
	})
	st, _ := e.PeerStats("p1")
	if st.Backoff < cfg.BackoffMax {
		t.Fatalf("backoff %v after %d failures, want cap %v", st.Backoff, st.ConsecutiveFailures, cfg.BackoffMax)
	}
	if st.Score >= 0.5 {
		t.Fatalf("score %v after repeated failures, want < 0.5", st.Score)
	}
	if st.LastError == "" || st.LinkUp {
		t.Fatalf("failing peer: %+v", st)
	}

	failing.Store("on", false)
	waitFor(t, "recovery", func() bool {
		st, _ := e.PeerStats("p1")
		return st.ConsecutiveFailures == 0 && st.Rounds >= 1
	})
	st, _ = e.PeerStats("p1")
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
	e := New(s, fastConfig())
	defer e.Close()
	e.AddPeer("p1")
	e.AddPeer("p2")
	if got := e.Peers(); !slices.Equal(got, []string{"p1", "p2"}) {
		t.Fatalf("Peers() = %v", got)
	}
	waitFor(t, "p1 round", func() bool {
		st, _ := e.PeerStats("p1")
		return st.Rounds >= 2
	})
	e.RemovePeer("p1")
	e.RemovePeer("p1") // idempotent
	if got := e.Peers(); !slices.Equal(got, []string{"p2"}) {
		t.Fatalf("Peers() after remove = %v", got)
	}
	if _, ok := e.PeerStats("p1"); ok {
		t.Fatal("removed peer still reports stats")
	}
	// RemovePeer waits for the supervisor: the link is closed already and
	// the call count for p1 never moves again.
	for _, l := range s.opened() {
		if _, _, closed := l.counts(); l.addr == "p1" && !closed {
			t.Fatal("removed peer's link still open")
		}
	}
	var p1Calls = func() int {
		n := 0
		for _, c := range s.snapshot() {
			if c.addr == "p1" {
				n++
			}
		}
		return n
	}
	settled := p1Calls()
	time.Sleep(100 * time.Millisecond) // ≥ 5 intervals: an alive supervisor would round
	if again := p1Calls(); again != settled {
		t.Fatalf("removed peer kept syncing: %d -> %d calls", settled, again)
	}
}

// TestCloseDrainsBlockedSync: a connect session that blocks until its
// context is cancelled does not wedge Close — Close cancels the engine
// context (unblocking the exchange) and waits for the supervisor to
// exit.
func TestCloseDrainsBlockedSync(t *testing.T) {
	started := make(chan struct{}, 1)
	s := &script{}
	s.fn = func(ctx context.Context, n int, addr, kind string) (Report, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done() // the real syncer's dial/exchange aborts the same way
		return Report{}, ctx.Err()
	}
	e := New(s, fastConfig())
	e.AddPeer("p1")
	<-started

	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a blocked sync")
	}
	e.Close() // idempotent
	e.AddPeer("p2")
	if got := e.Peers(); !slices.Equal(got, []string{"p1"}) {
		t.Fatalf("AddPeer after Close changed the peer set: %v", got)
	}
}

// TestCloseClosesLinks: engine shutdown closes every live link.
func TestCloseClosesLinks(t *testing.T) {
	s := &script{}
	e := New(s, fastConfig())
	e.AddPeer("p1")
	e.AddPeer("p2")
	linkUp(t, e, "p1")
	linkUp(t, e, "p2")
	e.Close()
	for i, l := range s.opened() {
		if _, _, closed := l.counts(); !closed {
			t.Fatalf("link %d still open after Close", i)
		}
	}
}
