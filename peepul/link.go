package peepul

// Links: the mesh daemon's long-lived outbound connections. A link is a
// client session whose connection outlives it. The connect session runs
// unchanged — span probe or hellos, recon descent, packed delta each way
// — and then hands its captures to the link instead of closing them:
// each records every commit installed since the session's snapshot,
// which is exactly what the stream must drain (store.Drain). The
// connection then switches to stream mode, one direction only: the
// dialer writes a FrameLinkBatch per object with news, and its reader
// waits only for a refusal or the peer hanging up. The serving side
// integrates each batch as a session integrates a delta (serveSession
// dispatches them after the session's exchanges).

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

// peerLink is the dial side of a link.
type peerLink struct {
	n    *Node
	conn *countedConn
	// via is the label the peer's batches land under: commits recorded
	// with it came from the peer and never stream back.
	via string
	// objs are the objects the link streams, each with its connect
	// session's capture.
	objs []sessionObject
	// known counts the objects the node hosted at connect, streamed or
	// missed; a node hosting more has opened one the link does not cover.
	known int

	once   sync.Once
	done   chan struct{}
	err    error
	reader chan struct{} // closed when the reader goroutine returns
}

// newPeerLink starts the reader of a connect session's connection, now in
// stream mode. Objects the peer missed stream nothing: their captures
// close here. The peer's name comes from the first-contact set: an object
// the peer did not miss was acked, in this session or — when a span
// match settled it — in an earlier one.
func (n *Node) newPeerLink(c *countedConn, addr string, scope []sessionObject, missed []string) *peerLink {
	l := &peerLink{n: n, conn: c, known: len(scope), done: make(chan struct{}), reader: make(chan struct{})}
	if peer, ok := n.ackedPeers.Load(addr); ok {
		l.via = "remote/" + peer.(string)
	}
	skip := make(map[string]bool, len(missed))
	for _, name := range missed {
		skip[name] = true
	}
	for _, so := range scope {
		if skip[so.name] {
			so.capture.Close()
			continue
		}
		l.objs = append(l.objs, so)
	}
	go l.read()
	return l
}

// read is the link's reader goroutine. Nothing legitimate arrives on a
// streaming connection: a refusal is the peer rejecting a batch, any
// other frame a violation, and an end of stream the peer hanging up.
func (l *peerLink) read() {
	defer close(l.reader)
	kind, fields, err := wire.ReadMsg(l.conn)
	switch {
	case err == nil && kind == wire.FrameErr:
		err = fmt.Errorf("%w: peer refused the stream: %s", ErrProtocol, peerMsg(fields))
	case err == nil:
		err = fmt.Errorf("%w: unexpected frame kind %d on a link", ErrProtocol, kind)
	case errors.Is(err, io.EOF):
		err = fmt.Errorf("link closed by peer: %w", err)
	}
	l.fail(err)
}

// fail records the link's first cause of death and severs the
// connection, which unblocks both the reader and a write in flight.
func (l *peerLink) fail(err error) {
	l.once.Do(func() {
		l.err = err
		close(l.done)
		l.conn.Conn.Close()
	})
}

// Done and Err implement link.
func (l *peerLink) Done() <-chan struct{} { return l.done }

func (l *peerLink) Err() error {
	select {
	case <-l.done:
		return l.err
	default:
		return nil
	}
}

// Heartbeat implements link: a third of the idle bound, so two
// heartbeats can be late before the peer's read deadline fires.
func (l *peerLink) Heartbeat() time.Duration { return l.n.cfg.syncTimeout() / 3 }

// Close implements link. A Push still in flight finds the captures
// closed and fails like any push on a dead link.
func (l *peerLink) Close() {
	l.fail(net.ErrClosed)
	<-l.reader
	closeScope(l.objs)
}

// Push implements link: per object, drain the link capture and
// write what it held as one batch grafted on the branch head, then flush
// once. Drained commits that fail to leave are not retried: the link
// dies, and the next connect session's recon finds them. A failed push
// reports the link's first cause of death — a refusal the reader saw
// outranks the write it broke.
func (l *peerLink) Push(heartbeat bool) (carried bool, _ error) {
	select {
	case <-l.done:
		return false, l.err
	default:
	}
	if l.n.objectCount() > l.known {
		l.fail(fmt.Errorf("%w: an object was opened after the link connected", errRelink))
		return false, l.err
	}
	commits, err := l.write(heartbeat)
	if err != nil {
		l.fail(err)
		return commits > 0, l.err
	}
	return commits > 0, nil
}

// write drains every object's capture into the connection's buffer —
// one FrameLinkBatch and delta per object with news, or a bare heartbeat
// frame when asked and there is none — and flushes.
func (l *peerLink) write(heartbeat bool) (commits int, _ error) {
	for _, so := range l.objs {
		batch, heads, err := so.e.st.ExportSet(so.capture, nil, store.Drain, l.via)
		if err != nil {
			return commits, err
		}
		if len(batch) == 0 {
			continue
		}
		l.conn.at(so.e)
		hello := wire.Hello{Node: l.n.name, Object: so.name, Datatype: so.e.datatype, Head: store.HeadSetHash(heads)}
		if err := wire.WriteMsg(l.conn, wire.FrameLinkBatch, wire.EncodeHello(hello)); err != nil {
			return commits, err
		}
		if err := wire.WriteDeltaPacked(l.conn, batch, heads); err != nil {
			return commits, err
		}
		l.conn.flow.Load().shipped(batch)
		commits += len(batch)
	}
	if commits == 0 && heartbeat {
		if err := wire.WriteMsg(l.conn, wire.FrameLinkBatch); err != nil {
			return 0, err
		}
	}
	return commits, l.conn.w.Flush()
}
