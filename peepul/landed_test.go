package peepul_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/peepul"
)

// Tests of the end of an exchange: the server replies before it
// integrates the client's delta, so the two imports overlap, and ends
// the exchange with FrameLanded or a refusal.

// gatedCodec is wire.PNCounter whose Check, once armed, calls hook
// first — a test's view into when each side's import verifies a state.
type gatedCodec struct {
	wire.PNCounter
	armed *atomic.Bool
	hook  func() error
}

func (c gatedCodec) Check(b []byte) error {
	if c.armed.Load() {
		if err := c.hook(); err != nil {
			return err
		}
	}
	return c.PNCounter.Check(b)
}

// codecNode is a counter node whose object uses codec.
func codecNode(t *testing.T, name string, id int, codec store.Codec[counter.PNState]) *counterNode {
	t.Helper()
	n, err := peepul.NewNode(name, id)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := peepul.Open(n, peepul.Datatype[counter.PNState, counter.Op, counter.Val]{Name: "pn-counter", Impl: counter.PNCounter{}, Codec: codec}, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return &counterNode{Node: n, obj: obj}
}

// TestSessionImportsOverlap: the server's import of the client's delta
// cannot finish a check until the client has checked a state of the
// server's reply, so a session that ran the two imports one after the
// other would fail (after a bounded wait, not a hang). It succeeds, and
// both sides end on the same state.
func TestSessionImportsOverlap(t *testing.T) {
	var armed atomic.Bool
	replyDecoded := make(chan struct{})
	var once sync.Once
	cli := codecNode(t, "cli", 1, gatedCodec{armed: &armed, hook: func() error {
		once.Do(func() { close(replyDecoded) })
		return nil
	}})
	srv := codecNode(t, "srv", 2, gatedCodec{armed: &armed, hook: func() error {
		select {
		case <-replyDecoded:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the client checked no state of the reply while the server imported")
		}
	}})
	for i := 0; i < 4; i++ {
		inc(t, cli, 1)
		if _, err := srv.obj.Do(counter.Op{Kind: counter.Dec, N: 1}); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	if err := cli.SyncWith(srv.Addr()); err != nil {
		t.Fatalf("SyncWith: %v", err)
	}
	armed.Store(false)
	want := counter.PNState{P: 4, N: 4}
	for _, n := range []*counterNode{cli, srv} {
		if got, err := n.obj.State(); err != nil || got != want {
			t.Fatalf("%s ends on %+v (%v), want %+v", n.Name(), got, err, want)
		}
	}
}

// pickyCodec is wire.PNCounter that decodes the state with P == bad to a
// different state, so that state's encoding is not canonical here.
type pickyCodec struct {
	wire.PNCounter
	bad int64
}

func (c pickyCodec) Decode(b []byte) (counter.PNState, error) {
	s, err := c.PNCounter.Decode(b)
	if err == nil && s.P == c.bad {
		s.N++
	}
	return s, err
}

// Check holds to the Check contract for this Decode, which the embedded
// wire.PNCounter's Check would break: it fails where the round trip does.
func (c pickyCodec) Check(b []byte) error {
	s, err := c.Decode(b)
	if err == nil && !bytes.Equal(c.Encode(s), b) {
		return errors.New("decodes to a state that encodes differently")
	}
	return err
}

// TestPeerRefusalAfterReplyFailsSync: a server that cannot land the
// client's delta refuses it after replying. The client's SyncWith fails
// with ErrProtocol naming the first bad commit, the server holds exactly
// the commits before it, and the client has landed the reply.
func TestPeerRefusalAfterReplyFailsSync(t *testing.T) {
	const k = 3 // the batch position of the commit the server refuses
	cli := newCounterNode(t, "cli", 1)
	srv := codecNode(t, "srv", 2, pickyCodec{bad: k + 1})
	var batch []store.Hash
	for i := 0; i < 6; i++ {
		inc(t, cli, 1)
		h, err := cli.head()
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, h)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.obj.Do(counter.Op{Kind: counter.Dec, N: 1}); err != nil {
			t.Fatal(err)
		}
	}
	srvHead, err := srv.head()
	if err != nil {
		t.Fatal(err)
	}

	err = cli.SyncWith(srv.Addr())
	if !errors.Is(err, peepul.ErrProtocol) || !strings.Contains(err.Error(), fmt.Sprintf("commit %d state encoding is not canonical", k)) {
		t.Fatalf("SyncWith = %v, want ErrProtocol naming commit %d", err, k)
	}
	for i, h := range batch {
		if got := srv.obj.Store().HasCommit(h); got != (i < k) {
			t.Errorf("server holds batch commit %d = %v, want %v", i, got, i < k)
		}
	}
	if !cli.obj.Store().HasCommit(srvHead) {
		t.Fatal("client lacks the server's head: the reply did not land")
	}
	if got, err := cli.obj.State(); err != nil || got != (counter.PNState{P: 6, N: 3}) {
		t.Fatalf("client state %+v (%v), want its own 6 incs and the reply's 3 decs", got, err)
	}
}
