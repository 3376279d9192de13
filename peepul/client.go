package peepul

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/recon"
	"repro/internal/store"
	"repro/internal/wire"
)

// SyncWith synchronizes every object this node hosts with the peer at
// addr over a single connection, object by object: range fingerprints
// resolve exactly which commits each side lacks, and only those cross
// the wire. Per object, the pair reconciles its commit sets, the peer
// replies with the commits this node lacks, and then both land at once:
// this node the reply, the peer this node's missing commits; landing
// unions the sender's head set into the branch and commits nothing. SyncWith returns once the peer reports
// its side landed. Objects the peer does not host (or hosts under a
// different datatype) are skipped and counted in Misses. The session
// ships what this node held when it connected; commits made on either
// side while it runs are not waited for and travel with the next stream
// batch or round. Between quiescent nodes a successful exchange leaves
// both with equal states on every shared object. A peer that refuses
// this node's commits does so after its reply, so a SyncWith that fails
// with ErrProtocol for that reason has still landed the reply, which is
// valid on its own; the peer keeps the commits before the first it
// refused.
func (n *Node) SyncWith(addr string) error {
	_, _, err := n.syncPeer(context.Background(), addr, false)
	return err
}

// peerLock returns the mutex serializing client sessions with addr: a
// manual SyncWith, a daemon round and a link's connect session aimed at
// the same peer take turns instead of running duplicate concurrent
// sessions. A link's stream, once connected, does not take it.
func (n *Node) peerLock(addr string) *sync.Mutex {
	mu, _ := n.peerMus.LoadOrStore(addr, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// syncPeer runs one client session with addr over every hosted object,
// taking turns per peer address. The session ships from the snapshot
// syncSession takes after the dial and, that turn aside, holds no lock
// across its round trips (see the package comment), so neither local
// commits nor inbound sessions wait for it, and an unreachable peer
// costs its supervisor a dial timeout and nothing else. With link set it
// is a link's connect session, and on success the connection comes back
// as the link, in stream mode. It returns the objects the peer missed.
func (n *Node) syncPeer(ctx context.Context, addr string, link bool) (missed []string, _ *peerLink, retErr error) {
	lock := n.peerLock(addr)
	lock.Lock()
	defer lock.Unlock()
	names := n.Objects()
	if len(names) == 0 && !link {
		return nil, nil, nil
	}
	start := time.Now()
	sp := n.newSpan("client", addr)
	defer func() {
		sp.finish(retErr)
		n.metrics.session("client", start, retErr)
	}()
	// The whole-node span probe is only worth a frame when the peer has
	// acked a hello before (see ackedPeers).
	_, acked := n.ackedPeers.Load(addr)
	return n.syncSession(ctx, addr, names, acked, link, sp)
}

// sessionObject is one object in a client session's scope together with
// the capture the session ships from: its head is the branch head at
// connect time. A link's connect session hands its captures on to the
// link, which drains them.
type sessionObject struct {
	name    string
	e       *objectEntry
	capture *store.Capture
}

// snapshotScope captures every named object the node still hosts.
func (n *Node) snapshotScope(names []string) ([]sessionObject, error) {
	scope := make([]sessionObject, 0, len(names))
	for _, name := range names {
		e, ok := n.entry(name)
		if !ok {
			continue // removed concurrently; nothing to sync
		}
		c, err := e.st.Snapshot(n.name)
		if err != nil {
			closeScope(scope)
			return nil, err
		}
		scope = append(scope, sessionObject{name: name, e: e, capture: c})
	}
	return scope, nil
}

// closeScope closes a scope's captures.
func closeScope(scope []sessionObject) {
	for _, so := range scope {
		so.capture.Close()
	}
}

// syncSession runs the client side of one session: one connection, one
// exchange per object. With spanFirst the session opens with a
// whole-node span probe: a match ends the round after two frames — the
// converged mesh pair's steady-state cost. The returned list names the
// objects the peer answered with a miss — the mesh daemon uses it to
// learn which objects a peer is interested in. With link set, a session
// that succeeds keeps its connection and returns it as a link.
func (n *Node) syncSession(ctx context.Context, addr string, names []string, spanFirst, link bool, sp *spanRec) ([]string, *peerLink, error) {
	conn, err := n.dialPeer(ctx, addr)
	if err != nil {
		return nil, nil, err
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	c := n.newConn(conn, addr, sp)

	// The snapshot precedes the first frame: everything this session
	// ships existed now, however many round trips it takes.
	scope, err := n.snapshotScope(names)
	var missed []string
	if err == nil {
		missed, err = n.exchange(c, addr, scope, spanFirst)
	}
	if !stop() && link && err == nil {
		err = ctx.Err() // cancelled on the way out: the connection is closed
	}
	if link && err == nil {
		err = c.stream()
	}
	if err != nil || !link {
		conn.Close()
		closeScope(scope)
		return missed, nil, err
	}
	return missed, n.newPeerLink(c, addr, scope, missed), nil
}

// exchange runs a session's frames over an open connection: the optional
// span probe, then one exchange per object in scope.
func (n *Node) exchange(c *countedConn, addr string, scope []sessionObject, spanFirst bool) ([]string, error) {
	if spanFirst {
		done, err := n.syncSpan(c, scope)
		if err != nil || done {
			return nil, err
		}
	}
	var missed []string
	for _, so := range scope {
		c.at(so.e)
		miss, err := n.syncObject(c, addr, so)
		if err != nil {
			return missed, err
		}
		if miss {
			missed = append(missed, so.name)
		}
	}
	return missed, nil
}

// syncSpan opens a session with the whole-node span probe over the
// session's snapshot heads. It reports done=true when the peer's span
// matched (nothing to sync anywhere); a refusal is a protocol violation.
func (n *Node) syncSpan(c *countedConn, scope []sessionObject) (done bool, _ error) {
	pStart := time.Now()
	c.flow.Load().rangesSent.Inc()
	var sp wire.ReconSpan
	for _, so := range scope {
		foldSpan(&sp, so.name, so.e, so.capture.Head())
	}
	if err := wire.WriteMsg(c, wire.FrameReconSpan, wire.EncodeReconSpan(sp)); err != nil {
		return false, err
	}
	kind, fields, err := wire.ReadMsg(c)
	switch {
	case err != nil:
		return false, err
	case kind == wire.FrameErr:
		return false, fmt.Errorf("%w: peer refused span probe: %s", ErrProtocol, peerMsg(fields))
	case kind == wire.FrameReconMatch:
		// One converged exchange per object, resolved in aggregate: the
		// per-object counters tick exactly as if each object had run its
		// own (trivial) exchange.
		for _, so := range scope {
			n.flow(so.e, c.peer).exchanges.Inc()
		}
		n.metrics.spanMatch.Inc()
		c.span.objects(len(scope))
		c.span.phase("span-probe", "", pStart)
		return true, nil
	case kind == wire.FrameReconSpan && len(fields) == 1:
		if _, err := wire.DecodeReconSpan(fields[0]); err != nil {
			return false, fmt.Errorf("%w: span reply: %w", ErrProtocol, err)
		}
		n.metrics.spanDiff.Inc()
		c.span.phase("span-probe", "", pStart)
		return false, nil // differs somewhere; run the per-object exchanges
	default:
		return false, fmt.Errorf("%w: unexpected span reply kind %d", ErrProtocol, kind)
	}
}

// peerMsg is the text of a FrameErr the peer sent.
func peerMsg(fields [][]byte) string {
	if len(fields) == 0 {
		return "unspecified"
	}
	return string(fields[0])
}

// syncObject opens one object's exchange on an open session: a hello
// carrying the snapshot head and the root range probe, whose ack answers
// the probe, so the descent starts one level down. It reports miss=true
// when the peer answered "object not hosted here" (the session stays
// usable for the next object).
func (n *Node) syncObject(c *countedConn, addr string, so sessionObject) (miss bool, _ error) {
	object, e := so.name, so.e
	negStart := time.Now()
	hello := wire.Hello{Node: n.name, Object: object, Datatype: e.datatype, Head: so.capture.Head()}
	// The root probe is the live fingerprint and count of the whole
	// keyspace.
	fp, count := e.st.ReconRange(recon.Item{}, recon.Item{})
	root := wire.ReconRange{FP: fp, Count: count}
	if err := wire.WriteMsg(c, wire.FrameHello, wire.EncodeHello(hello), wire.EncodeReconRange(root)); err != nil {
		return false, err
	}
	kind, fields, err := wire.ReadMsg(c)
	switch {
	case err != nil:
		return false, err
	case kind == wire.FrameHelloMiss:
		// Peer does not host this object (or hosts it as another type).
		c.flow.Load().misses.Inc()
		return true, nil
	case kind == wire.FrameErr:
		return false, fmt.Errorf("%w: peer refused hello for object %s: %s", ErrProtocol, object, peerMsg(fields))
	case kind != wire.FrameHelloAck || len(fields) != 2:
		return false, fmt.Errorf("%w: unexpected hello reply kind %d with %d fields", ErrProtocol, kind, len(fields))
	}
	ack, err := wire.DecodeHello(fields[0])
	if err != nil {
		return false, fmt.Errorf("%w: hello ack: %w", ErrProtocol, err)
	}
	if ack.Object != object {
		return false, fmt.Errorf("%w: peer acked object %q, want %q", ErrProtocol, ack.Object, object)
	}
	answer, err := wire.DecodeReconAnswer(fields[1])
	if err != nil {
		return false, fmt.Errorf("%w: root answer: %w", ErrProtocol, err)
	}
	n.ackedPeers.Store(addr, ack.Node)
	c.span.phase("negotiate", object, negStart)
	return false, n.syncObjectRecon(c, so, ack, answer)
}

// syncObjectRecon runs the client side of one object's reconciliation
// exchange, after the hello ack answered the root probe the hello
// carried. The client drives a lock-step descent over hash ranges: probe
// a range with its local fingerprint and count, and on mismatch either
// receive the server's items (small ranges — diffed locally into want
// and ship lists) or a split into two fingerprinted halves (matching
// halves are discarded locally, differing ones probed in turn). The
// descent terminates — every split strictly
// halves the server's range — and resolves the exact symmetric
// difference in O(diff · log n) frames. A want list and one delta in
// each direction then ship precisely the missing commits; the server's
// reply adds only what it installed during the exchange. The server
// replies before it lands the delta, so the two sides land at the same
// time, and its FrameLanded, read after this side has landed the reply,
// ends the exchange.
//
// The descent reads the live fingerprint tree, which local commits and
// inbound sessions keep growing; what ships is the resolved set cut back
// to the session's capture (store.AsOf), under the snapshot's heads.
func (n *Node) syncObjectRecon(c *countedConn, so sessionObject, ack wire.Hello, root wire.ReconAnswer) error {
	object, e, fl := so.name, so.e, c.flow.Load()
	type keyRange struct{ x, y recon.Item }
	var work []keyRange
	var want []store.Hash
	ship := make(map[store.Hash]bool)
	descStart, probes := time.Now(), 0
	countProbe := func() {
		fl.rangesSent.Inc()
		probes++
	}
	shipRange := func(x, y recon.Item) {
		for _, it := range e.st.ReconItems(x, y, -1) {
			ship[it.Addr()] = true
		}
	}
	// settle folds the server's answer for range r into the want and ship
	// lists, queueing the halves of a split that still differ.
	settle := func(r keyRange, a wire.ReconAnswer) {
		switch a.Kind {
		case wire.FrameReconMatch:
			// Identical fingerprint and count: the range agrees.
		case wire.FrameReconEmptyRange:
			// The server holds nothing here: everything local is news.
			shipRange(r.x, r.y)
		case wire.FrameReconItems:
			theirs := make(map[recon.Item]bool, len(a.Items))
			for _, it := range a.Items {
				theirs[it] = true
				if !e.st.HasCommit(it.Addr()) {
					want = append(want, it.Addr())
				}
			}
			for _, it := range e.st.ReconItems(r.x, r.y, -1) {
				if !theirs[it] {
					ship[it.Addr()] = true
				}
			}
		case wire.FrameReconSplit:
			sp := a.Split
			halves := []struct {
				x, y  recon.Item
				fp    recon.Fingerprint
				count int
			}{
				{r.x, sp.Mid, sp.FPLo, sp.CountLo},
				{sp.Mid, r.y, sp.FPHi, sp.CountHi},
			}
			for _, half := range halves {
				lfp, lcount := e.st.ReconRange(half.x, half.y)
				switch {
				case lfp == half.fp && lcount == half.count:
					// This half agrees; only the other one descends.
				case half.count == 0:
					shipRange(half.x, half.y)
				default:
					work = append(work, keyRange{half.x, half.y})
				}
			}
		}
	}
	// The root probe rode in the hello; the zero pair spans the whole
	// keyspace.
	countProbe()
	settle(keyRange{}, root)
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		fp, count := e.st.ReconRange(r.x, r.y)
		probe := wire.ReconRange{X: r.x, Y: r.y, FP: fp, Count: count}
		if err := wire.WriteMsg(c, wire.FrameReconFP, wire.EncodeReconRange(probe)); err != nil {
			return err
		}
		countProbe()
		kind, fields, err := wire.ReadMsg(c)
		if err != nil {
			return err
		}
		if kind == wire.FrameErr {
			return fmt.Errorf("%w: peer: %s", ErrProtocol, peerMsg(fields))
		}
		a, err := wire.ParseReconAnswer(kind, fields)
		if err != nil {
			return fmt.Errorf("%w: recon descent: %w", ErrProtocol, err)
		}
		settle(r, a)
	}
	c.span.phase("descend", object, descStart)
	n.metrics.descent(probes)
	// What ships is the resolved set as of the snapshot; commits younger
	// than the session ride the next stream batch or round.
	shipStart := time.Now()
	commits, heads, err := e.st.ExportSet(so.capture, ship, store.AsOf, "")
	if err != nil {
		return err
	}
	// Converged shortcut: equal sets and equal head sets need no delta
	// phase at all — the whole re-sync was the hello, its root probe and
	// the ack's answer. (Equal sets with differing head sets still run the
	// empty-delta exchange below, which unions them.)
	if len(want) == 0 && len(commits) == 0 && ack.Head == store.HeadSetHash(heads) {
		fl.exchanges.Inc()
		c.span.objects(1)
		return nil
	}
	if err := wire.WriteMsg(c, wire.FrameReconWant, wire.EncodeReconWant(want)); err != nil {
		return err
	}
	if err := wire.WriteDeltaPacked(c, commits, heads); err != nil {
		return err
	}
	c.span.phase("ship", object, shipStart)
	importStart := time.Now()
	reply, replyHeads, err := readDelta(c)
	if err != nil {
		return err
	}
	redundant, err := n.integrate(e, object, ack.Node, reply, replyHeads)
	if err != nil {
		return err
	}
	// The server integrates our delta while we land its reply; its
	// FrameLanded (or refusal) ends the exchange.
	kind, fields, err := wire.ReadMsg(c)
	switch {
	case err != nil:
		return err
	case kind == wire.FrameErr:
		return fmt.Errorf("%w: peer refused our delta: %s", ErrProtocol, peerMsg(fields))
	case kind != wire.FrameLanded || len(fields) != 0:
		return fmt.Errorf("%w: unexpected kind %d with %d fields after the reply, want landed", ErrProtocol, kind, len(fields))
	}
	fl.exchanges.Inc()
	fl.shipped(commits)
	fl.landed(reply, redundant)
	c.span.commits(len(commits), len(reply))
	c.span.objects(1)
	c.span.phase("import", object, importStart)
	return nil
}
