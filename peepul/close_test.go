package peepul_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/chat"
	"repro/internal/wire"
	"repro/peepul"
)

// TestCloseIdempotent: Close must be safe to call any number of times —
// deferred cleanup plus explicit shutdown is the common pattern — and
// must keep returning the first call's result instead of panicking on
// the closed channel.
func TestCloseIdempotent(t *testing.T) {
	n, err := peepul.NewNode("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	first := n.Close()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("second Close panicked: %v", r)
		}
	}()
	if second := n.Close(); second != first {
		t.Fatalf("second Close returned %v, first returned %v", second, first)
	}
	if third := n.Close(); third != first {
		t.Fatalf("third Close returned %v, first returned %v", third, first)
	}
}

// TestCloseIdempotentWithoutListen: a node that never listened must
// close cleanly twice as well.
func TestCloseIdempotentWithoutListen(t *testing.T) {
	n, err := peepul.NewNode("y", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peepul.Open(n, peepul.Datatype[chat.State, chat.Op, chat.Val]{Name: "chat", Impl: chat.Chat{}, Codec: wire.Chat{}}, "room"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSecondListenRefused: a node serves one listener. A second Listen
// is refused — were it to replace the first, the first accept loop would
// never be woken, and Close would wait for it forever.
func TestSecondListenRefused(t *testing.T) {
	n, err := peepul.NewNode("z", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	first := n.Addr()
	// Serve one request first, so the accept loop is parked on the first
	// listener when the second Listen comes.
	c, err := net.Dial("tcp", first)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteMsg(c, 99); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := wire.ReadMsg(c); err != nil || kind != wire.FrameErr {
		t.Fatalf("first listener answered kind %d, %v", kind, err)
	}
	c.Close()
	time.Sleep(10 * time.Millisecond)
	if err := n.Listen("127.0.0.1:0"); err == nil {
		t.Error("second Listen succeeded")
	}
	if got := n.Addr(); got != first {
		t.Errorf("Addr moved from %s to %s", first, got)
	}
	done := make(chan error, 1)
	go func() { done <- n.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close still waiting after 2s")
	}
}
