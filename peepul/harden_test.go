package peepul_test

// Hardening regression tests: the inbound session cap under a dial
// storm, backoff on a listener whose Accept keeps failing, goroutine
// hygiene when peers misbehave (malformed hellos, mid-frame disconnects,
// Close racing in-flight sessions), and the idle/session deadlines that
// cut off silent and dribbling peers.

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/peepul"
)

// waitGoroutines polls until the goroutine count returns to (near) the
// baseline. The slack absorbs runtime bookkeeping goroutines; leaks
// from sync sessions come in whole handler stacks, well above it.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
}

// TestDialStormShedsExcessInbound: with a tiny inbound cap, a storm of
// silent connections is shed promptly — the excess are closed rather
// than piling up handler goroutines — and the node keeps serving real
// syncs once the storm passes.
func TestDialStormShedsExcessInbound(t *testing.T) {
	srv := newMeshCounterNode(t, "srv", 1,
		peepul.WithMaxInbound(2),
		peepul.WithSyncTimeout(200*time.Millisecond))
	inc(t, srv, 9)

	// 20 stormers connect and say nothing. At most 2 occupy handlers
	// (until the sync timeout cuts them); the rest must be shed.
	conns := make([]net.Conn, 0, 20)
	for i := 0; i < 20; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	// Every stormer is closed by the node: shed ones at once, served ones
	// once the sync timeout cuts their handler (after its refusal frame),
	// so reading each to EOF sees every handler finish.
	closed := 0
	for _, c := range conns {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.Copy(io.Discard, c); err == nil {
			closed++
		}
	}
	if closed == 0 {
		t.Fatal("no stormer was closed by the server")
	}
	if shed := srv.Stats().InboundShed; shed == 0 {
		t.Fatalf("InboundShed = 0 after a dial storm, %d conns closed", closed)
	}

	// The node is still healthy: a real peer syncs at the first try. A
	// handler frees its slot before it closes its stormer, so once every
	// stormer has seen EOF every slot is free.
	cli := newMeshCounterNode(t, "cli", 2)
	if err := cli.SyncWith(srv.Addr()); err != nil {
		t.Fatalf("sync after storm: %v", err)
	}
	if got := value(t, cli); got != 9 {
		t.Fatalf("post-storm sync got %d, want 9", got)
	}
}

// failingListener fails every Accept — the listener of a process out of
// file descriptors — counting the calls.
type failingListener struct{ accepts atomic.Int64 }

func (l *failingListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	return nil, errors.New("accept: too many open files")
}

func (l *failingListener) Close() error { return nil }

func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// failingTransport listens on a failingListener.
type failingTransport struct {
	peepul.TCPTransport
	ln *failingListener
}

func (t failingTransport) Listen(string) (net.Listener, error) { return t.ln, nil }

// TestAcceptErrorsBackOff: a listener that fails every Accept is retried
// with backoff, not in a busy loop, and Close still returns promptly.
func TestAcceptErrorsBackOff(t *testing.T) {
	ln := &failingListener{}
	n, err := peepul.NewNode("srv", 1, peepul.WithTransport(failingTransport{ln: ln}))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	accepts := ln.accepts.Load()
	start := time.Now()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v while the accept loop backed off", d)
	}
	if accepts > 10 {
		t.Fatalf("%d Accept calls in 100ms, want at most 10", accepts)
	}
}

// TestMalformedHelloLeaksNoGoroutines: garbage instead of a hello must
// end the session and release its goroutine.
func TestMalformedHelloLeaksNoGoroutines(t *testing.T) {
	srv := newMeshCounterNode(t, "srv", 1)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c.Write([]byte("\xffnot a frame at all, not even close"))
		c.Close()
	}
	waitGoroutines(t, baseline)
}

// TestMidFrameDisconnectLeaksNoGoroutines: a peer that promises a frame
// and dies mid-body must not wedge the handler.
func TestMidFrameDisconnectLeaksNoGoroutines(t *testing.T) {
	srv := newMeshCounterNode(t, "srv", 1, peepul.WithSyncTimeout(200*time.Millisecond))
	baseline := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Header: kind byte + field count 1, then a field length promising
		// 4096 bytes — deliver 10 and vanish.
		hdr := []byte{0x01}
		hdr = binary.BigEndian.AppendUint32(hdr, 1)
		hdr = binary.BigEndian.AppendUint32(hdr, 4096)
		c.Write(hdr)
		c.Write(make([]byte, 10))
		c.Close()
	}
	waitGoroutines(t, baseline)
}

// TestCloseDuringInflightInboundSession: Close while an inbound session
// is mid-read returns promptly and leaves no handler behind.
func TestCloseDuringInflightInboundSession(t *testing.T) {
	baseline := runtime.NumGoroutine()
	n, err := peepul.NewNode("srv", 1, meshOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peepul.Open(n, peepul.PNCounter, "counter"); err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// Park a session mid-frame: the handler is blocked reading the body
	// when Close lands.
	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hdr := []byte{0x01}
	hdr = binary.BigEndian.AppendUint32(hdr, 1)
	hdr = binary.BigEndian.AppendUint32(hdr, 4096)
	c.Write(hdr)
	time.Sleep(30 * time.Millisecond) // let the handler reach the blocking read

	done := make(chan error, 1)
	go func() { done <- n.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on an in-flight inbound session")
	}
	waitGoroutines(t, baseline)
}

// TestSyncTimeoutCutsSilentPeer: a connection that goes silent after
// connecting is cut within the idle window instead of holding its
// handler forever.
func TestSyncTimeoutCutsSilentPeer(t *testing.T) {
	srv := newMeshCounterNode(t, "srv", 1, peepul.WithSyncTimeout(100*time.Millisecond))
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The server may report the violation with an error frame before
	// hanging up; what matters is that the session terminates within
	// the idle window rather than holding its handler forever.
	start := time.Now()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		t.Fatalf("draining the cut session: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("silent peer held its handler for %v", d)
	}
}

// TestSessionTimeoutCutsDribblingPeer: one byte per idle window is
// progress forever under the idle deadline alone; the session deadline
// must cut the connection regardless.
func TestSessionTimeoutCutsDribblingPeer(t *testing.T) {
	srv := newMeshCounterNode(t, "srv", 1,
		peepul.WithSyncTimeout(150*time.Millisecond),
		peepul.WithSessionTimeout(300*time.Millisecond))
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Dribble a plausible frame header, then one body byte per 50ms —
	// always inside the idle window, never finishing.
	hdr := []byte{0x01}
	hdr = binary.BigEndian.AppendUint32(hdr, 1)
	hdr = binary.BigEndian.AppendUint32(hdr, 1<<20)
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for time.Since(start) < 2*time.Second {
		if _, err := c.Write([]byte{0}); err != nil {
			break // server cut us off
		}
		time.Sleep(50 * time.Millisecond)
	}
	if d := time.Since(start); d >= 2*time.Second {
		t.Fatalf("dribbling peer survived %v past the session deadline", d)
	}
}
