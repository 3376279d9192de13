package peepul_test

// Session-connection tests: a protocol turn leaves in one write, a
// refusal still reaches the peer before the server hangs up, and a
// session the transport cut is recorded as transport trouble, not as a
// protocol violation.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
	"repro/peepul"
)

// connOps counts the raw reads and writes one connection made.
type connOps struct {
	reads, writes atomic.Int64
	closed        chan struct{}
}

type opConn struct {
	net.Conn
	ops  *connOps
	once sync.Once
}

func (c *opConn) Read(p []byte) (int, error) {
	c.ops.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *opConn) Write(p []byte) (int, error) {
	c.ops.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *opConn) Close() error {
	c.once.Do(func() { close(c.ops.closed) })
	return c.Conn.Close()
}

// opTransport is TCP that counts the raw operations of every connection
// it dials or accepts.
type opTransport struct {
	peepul.TCPTransport
	mu               sync.Mutex
	dialed, accepted []*connOps
}

func (t *opTransport) track(conn net.Conn, into *[]*connOps) net.Conn {
	ops := &connOps{closed: make(chan struct{})}
	t.mu.Lock()
	*into = append(*into, ops)
	t.mu.Unlock()
	return &opConn{Conn: conn, ops: ops}
}

func (t *opTransport) Dial(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := t.TCPTransport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return t.track(conn, &t.dialed), nil
}

func (t *opTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.TCPTransport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &opListener{Listener: ln, t: t}, nil
}

type opListener struct {
	net.Listener
	t *opTransport
}

func (l *opListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.track(conn, &l.t.accepted), nil
}

// last returns the newest connection's counters, after waiting for it
// to close (a server handler finishes after its client hangs up).
func (t *opTransport) last(tb testing.TB, accepted bool) *connOps {
	tb.Helper()
	t.mu.Lock()
	list := t.dialed
	if accepted {
		list = t.accepted
	}
	if len(list) == 0 {
		t.mu.Unlock()
		tb.Fatal("no connection recorded")
	}
	ops := list[len(list)-1]
	t.mu.Unlock()
	select {
	case <-ops.closed:
	case <-time.After(5 * time.Second):
		tb.Fatal("connection never closed")
	}
	return ops
}

// TestReconSessionOneFlushPerTurn pins the buffered session: every
// protocol turn — span probe, hello with its root probe, each descent
// probe, want plus delta — leaves the client in exactly one write, each
// reply that fits the read buffer arrives in one read, and the server
// answers each turn with one write, bar the want: it answers that in
// two, the reply before its integrate and FrameLanded after it. The
// client reads FrameLanded with the reply or in one read of its own.
func TestReconSessionOneFlushPerTurn(t *testing.T) {
	ta, tb := &opTransport{}, &opTransport{}
	a := newObsCounterNode(t, "a", 1, peepul.WithTransport(ta))
	b := newObsCounterNode(t, "b", 2, peepul.WithTransport(tb))
	// A history deep enough that the root answer is a split, so the
	// descent takes probes of its own.
	for i := 0; i < 200; i++ {
		inc(t, a, 1)
	}
	convergePair(t, a, b)
	for i := 0; i < 3; i++ {
		inc(t, a, 1)
		inc(t, b, 1)
	}

	before := a.Stats()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	after := a.Stats()
	// Ranges sent: the span probe, the hello's root probe and every probe
	// of the descent — one turn each; the want and delta make one more.
	ranges := after.RangesSent - before.RangesSent
	if ranges <= 2 {
		t.Fatalf("diverged re-sync sent %d ranges; the descent took no probe of its own", ranges)
	}
	if after.DeltaSyncs != before.DeltaSyncs+1 {
		t.Fatalf("exchange did not complete one object: %+v", after)
	}
	turns := ranges + 1
	cli, srv := ta.last(t, false), tb.last(t, true)
	if w, r := cli.writes.Load(), cli.reads.Load(); w != turns || r < turns || r > turns+1 {
		t.Fatalf("client made %d writes and %d reads for %d turns, want one write per turn and one read per turn plus at most one for FrameLanded", w, r, turns)
	}
	if w := srv.writes.Load(); w != turns+1 {
		t.Fatalf("server made %d writes for %d turns, want one per turn and one more for FrameLanded", w, turns)
	}

	// A converged re-sync is the span probe and its match: one turn.
	convergePair(t, a, b)
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	cli, srv = ta.last(t, false), tb.last(t, true)
	if w, r := cli.writes.Load(), cli.reads.Load(); w != 1 || r != 1 {
		t.Fatalf("converged re-sync made %d writes and %d reads, want 1 and 1", w, r)
	}
	if w := srv.writes.Load(); w != 1 {
		t.Fatalf("server answered a converged re-sync in %d writes, want 1", w)
	}
}

// serverSessions returns the server-role session counts of n by outcome.
func serverSessions(n *counterNode) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range n.Metrics() {
		if m.Name == "peepul_replica_sessions_total" && m.Labels["role"] == "server" {
			out[m.Labels["outcome"]] += m.Value
		}
	}
	return out
}

// rawHello frames a hello for object with its root probe field.
func rawHello(object, datatype string, root []byte) []byte {
	hello := wire.EncodeHello(wire.Hello{Node: "raw", Object: object, Datatype: datatype})
	return frameOf(wire.FrameHello, hello, root)
}

func frameOf(kind wire.FrameKind, fields ...[]byte) []byte {
	var buf bytes.Buffer
	if err := wire.WriteMsg(&buf, kind, fields...); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestServerRefusalsReachThePeer: every refusal the server sends leaves
// before it hangs up — buffering never turns a violation into a bare
// EOF, which the client would classify as transient and so never
// quarantine. The refusing side records each one as a violation.
func TestServerRefusalsReachThePeer(t *testing.T) {
	srv := newObsCounterNode(t, "srv", 1, peepul.WithObservability())
	root := wire.EncodeReconRange(wire.ReconRange{Count: 1})
	cases := []struct {
		name string
		send []byte
		kind wire.FrameKind
		text string
	}{
		{"bad hello", frameOf(wire.FrameHello), wire.FrameErr, "bad hello"},
		{"malformed root probe", rawHello("counter", "pn-counter", root[:len(root)-1]), wire.FrameErr, "malformed"},
		{"unhosted object", rawHello("nope", "pn-counter", root), wire.FrameHelloMiss, "object not hosted: nope"},
		{"datatype mismatch", rawHello("counter", "g-set", root), wire.FrameHelloMiss, "is pn-counter here, peer has g-set"},
		{"probe outside an exchange", frameOf(wire.FrameReconFP, root), wire.FrameErr, "recon probe outside a recon exchange"},
		{"unknown frame kind", frameOf(99), wire.FrameErr, "bad request"},
		// Kind 1 was the retired one-shot full-history request.
		{"v1 bad request", frameOf(1, []byte("raw"), []byte("x")), wire.FrameErr, "bad request"},
	}
	violations := int64(0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			kind, fields, err := wire.ReadMsg(c)
			if err != nil {
				t.Fatalf("read the server's answer: %v", err)
			}
			if kind != tc.kind || len(fields) != 1 || !strings.Contains(string(fields[0]), tc.text) {
				t.Fatalf("got kind %d %q, want kind %d containing %q", kind, fields, tc.kind, tc.text)
			}
			if kind != wire.FrameErr {
				return // a miss keeps the session open for the next hello
			}
			violations++
			if _, _, err := wire.ReadMsg(c); err != io.EOF {
				t.Fatalf("after the refusal: %v, want the server to hang up", err)
			}
		})
	}
	if got := serverSessions(srv)["violation"]; got != violations {
		t.Fatalf("server recorded %d violations for %d refusals", got, violations)
	}
}

// TestServerCountsHangupAsTransient: a client that hangs up during its
// want + delta turn — mid-stream, or with a reset that also kills the
// reply — broke the transport, not the protocol, and the server's
// session outcome says so.
func TestServerCountsHangupAsTransient(t *testing.T) {
	cases := map[string]func(c *net.TCPConn, head store.Hash){
		"mid-delta": func(c *net.TCPConn, head store.Hash) {
			var turn bytes.Buffer
			wire.WriteMsg(&turn, wire.FrameReconWant, wire.EncodeReconWant(nil))
			wire.WriteMsg(&turn, wire.FrameDeltaHeader, append(append([]byte{0, 0, 0, 1}, head[:]...), 0, 0, 0, 1))
			c.Write(turn.Bytes())
		},
		"reset after delta": func(c *net.TCPConn, head store.Hash) {
			var turn bytes.Buffer
			wire.WriteMsg(&turn, wire.FrameReconWant, wire.EncodeReconWant(nil))
			wire.WriteDeltaPacked(&turn, nil, []store.Hash{head})
			c.Write(turn.Bytes())
			c.SetLinger(0)
		},
	}
	for name, send := range cases {
		t.Run(name, func(t *testing.T) {
			srv := newObsCounterNode(t, "srv", 1, peepul.WithObservability())
			inc(t, srv, 1)
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			c := conn.(*net.TCPConn)
			c.SetDeadline(time.Now().Add(5 * time.Second))
			root := wire.EncodeReconRange(wire.ReconRange{Count: 1})
			if _, err := c.Write(rawHello("counter", "pn-counter", root)); err != nil {
				t.Fatal(err)
			}
			kind, fields, err := wire.ReadMsg(c)
			if err != nil || kind != wire.FrameHelloAck {
				t.Fatalf("hello ack: kind %d, %v", kind, err)
			}
			ack, err := wire.DecodeHello(fields[0])
			if err != nil {
				t.Fatal(err)
			}
			// Skip the descent: want nothing, ship an empty delta onto the
			// server's own head.
			send(c, ack.Head)
			c.Close()

			deadline := time.Now().Add(5 * time.Second)
			for {
				got := serverSessions(srv)
				if got["transient"] == 1 && got["violation"] == 0 && got["ok"] == 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("server session outcomes %v, want one transient", got)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestUnsupportedVersionRefused: a hello or a span probe of another
// protocol version is answered with a FrameErr naming that version, and
// the server records one violation for each; a client whose peer acks in
// another version fails with ErrProtocol.
func TestUnsupportedVersionRefused(t *testing.T) {
	srv := newObsCounterNode(t, "srv", 1, peepul.WithObservability())
	// Version 3, the single-head dialect; version 4, whose server never
	// sends FrameLanded; version 5, whose commits address states by the
	// SHA-256 of the whole encoding; and a version from the future.
	var sends [][]byte
	var wants []string
	for _, other := range []byte{3, 4, 5, wire.Version + 1} {
		hello := wire.EncodeHello(wire.Hello{Node: "raw", Object: "counter", Datatype: "pn-counter"})
		hello[0] = other
		span := wire.EncodeReconSpan(wire.ReconSpan{})
		span[0] = other
		root := wire.EncodeReconRange(wire.ReconRange{})
		sends = append(sends, frameOf(wire.FrameHello, hello, root), frameOf(wire.FrameReconSpan, span))
		want := fmt.Sprintf("unsupported protocol version %d", other)
		wants = append(wants, want, want)
	}
	for i, send := range sends {
		want := wants[i]
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write(send); err != nil {
			t.Fatal(err)
		}
		kind, fields, err := wire.ReadMsg(c)
		if err != nil || kind != wire.FrameErr || len(fields) != 1 || string(fields[0]) != want {
			t.Fatalf("frame %d: kind %d %q (%v), want a FrameErr %q", i, kind, fields, err, want)
		}
		if _, _, err := wire.ReadMsg(c); err != io.EOF {
			t.Fatalf("frame %d: after the refusal: %v, want the server to hang up", i, err)
		}
		c.Close()
		if got := serverSessions(srv); got["violation"] != int64(i+1) || got["ok"] != 0 {
			t.Fatalf("frame %d: server session outcomes %v, want %d violation(s)", i, got, i+1)
		}
	}

	// A peer that answers the hello in another version.
	other := wire.Version + 1
	want := fmt.Sprintf("unsupported protocol version %d", other)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := wire.ReadMsg(conn); err != nil {
			return
		}
		ack := wire.EncodeHello(wire.Hello{Node: "peer", Object: "counter", Datatype: "pn-counter"})
		ack[0] = other
		wire.WriteMsg(conn, wire.FrameHelloAck, ack, wire.EncodeReconAnswer(wire.ReconAnswer{Kind: wire.FrameReconMatch}))
	}()
	cli := newCounterNode(t, "cli", 2)
	err = cli.SyncWith(ln.Addr().String())
	if !errors.Is(err, peepul.ErrProtocol) || !strings.Contains(err.Error(), want) {
		t.Fatalf("client against another version: %v, want ErrProtocol naming %q", err, want)
	}
}
