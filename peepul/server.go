package peepul

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/recon"
	"repro/internal/store"
	"repro/internal/wire"
)

// reconSession is the per-connection state of one object's exchange:
// set by a hello, consulted by the probe and want frames that follow on
// the same session, reset by the next hello. Sessions are
// single-goroutine, so no locking. capture is taken at the hello, before
// its root probe is answered, and the want handler drains it into its
// reply (store.Drain); it is nil between exchanges.
type reconSession struct {
	e       *objectEntry
	flow    *flow // the exchange's series
	hello   wire.Hello
	capture *store.Capture
	// probes counts the range probes answered this exchange — the
	// server-side descent depth, observed when the want frame ends it.
	probes int
}

// release closes a live session's capture and resets the session.
func (rs *reconSession) release() {
	if rs.capture != nil {
		rs.capture.Close()
	}
	*rs = reconSession{}
}

// handle serves one inbound sync session. A session is a sequence of
// per-object exchanges on a single connection — each a hello, range
// probes and a want/delta finish — and ends when the client hangs up. A
// whole-node span probe may open a session (one frame confirms a
// converged pair).
//
// The handler flushes on exit, so a trailing reply or FrameErr still
// reaches the client, and the session's outcome carries its real cause:
// a refusal is a protocol violation, while a connection that failed
// under a read, a mid-session flush or the exit flush is transport
// trouble.
func (n *Node) handle(raw net.Conn) {
	start := time.Now()
	sp := n.newSpan("server", "")
	conn := n.newConn(raw, "", sp)
	var rs reconSession
	err := n.serveSession(conn, &rs, sp)
	// A dropped connection or protocol error can abandon a session
	// mid-descent; its capture must not keep recording forever.
	rs.release()
	if ferr := conn.w.Flush(); err == nil {
		err = ferr
	}
	sp.finish(err)
	n.metrics.session("server", start, err)
}

// serveSession dispatches one inbound session's frames until the client
// hangs up (nil) or an exchange fails (its error).
func (n *Node) serveSession(conn *countedConn, rs *reconSession, sp *spanRec) error {
	for {
		kind, fields, err := wire.ReadMsg(conn)
		if err != nil {
			// Bare EOF is the client ending the session; anything else is
			// a framing violation worth reporting before hanging up.
			if errors.Is(err, io.EOF) {
				return nil
			}
			wire.WriteMsg(conn, wire.FrameErr, []byte("bad request"))
			return err
		}
		switch kind {
		case wire.FrameHello:
			rs.release()
			err = n.handleHello(conn, fields, rs, sp)
		case wire.FrameReconSpan:
			err = n.handleReconSpan(conn, fields, sp)
		case wire.FrameReconFP:
			err = n.handleReconProbe(conn, fields, rs)
		case wire.FrameReconWant:
			err = n.handleReconWant(conn, fields, rs, sp)
			rs.release()
		case wire.FrameLinkBatch:
			err = n.handleLinkBatch(conn, fields, sp)
		default:
			return refuse(conn, "bad request")
		}
		if err != nil {
			return err
		}
	}
}

// refuse answers a request this side will not serve: the client reads
// msg in a FrameErr, and the session ends on a protocol violation.
func refuse(conn *countedConn, msg string) error {
	wire.WriteMsg(conn, wire.FrameErr, []byte(msg))
	return fmt.Errorf("%w: %s", ErrProtocol, msg)
}

// refuseErr is refuse for a failure with a cause: the client reads the
// cause's text, and the session keeps the cause itself, so a connection
// that died under a read stays transport trouble.
func refuseErr(conn *countedConn, err error) error {
	wire.WriteMsg(conn, wire.FrameErr, []byte(err.Error()))
	return err
}

// handleHello opens one object's exchange: a hello carries the client's
// hello payload and its root range probe; the ack carries this node's
// head and the probe's answer (or the hello is answered with a miss for
// an object not hosted here). The handler arms the session state and
// returns — the probe and want frames that follow are dispatched by
// handle.
func (n *Node) handleHello(conn *countedConn, fields [][]byte, rs *reconSession, sp *spanRec) error {
	hStart := time.Now()
	if len(fields) == 0 {
		return refuse(conn, "bad hello")
	}
	// The hello payload is decoded first: it opens with the protocol
	// version, and a peer of another version is told so, whatever else
	// its hello carries.
	hello, err := wire.DecodeHello(fields[0])
	if err != nil {
		return refuseErr(conn, err)
	}
	if len(fields) != 2 {
		return refuse(conn, "bad hello")
	}
	root, err := wire.DecodeReconRange(fields[1])
	if err != nil {
		return refuseErr(conn, err)
	}
	sp.setPeer(hello.Node)
	// Re-point byte attribution before any reply: traffic of this
	// exchange must not land on the previous exchange's object.
	e, ok := n.entry(hello.Object)
	if !ok {
		conn.at(nil)
		conn.flow.Load().misses.Inc()
		return wire.WriteMsg(conn, wire.FrameHelloMiss, []byte("object not hosted: "+hello.Object))
	}
	conn.at(e)
	if dt := e.datatype; dt != hello.Datatype {
		conn.flow.Load().misses.Inc()
		return wire.WriteMsg(conn, wire.FrameHelloMiss,
			[]byte(fmt.Sprintf("object %s is %s here, peer has %s", hello.Object, dt, hello.Datatype)))
	}
	// Capture before answering the root probe: every commit installed from
	// here on joins the want handler's reply, and every older one is in
	// the tree every probe of the descent reads. The ack carries the
	// capture's head, which the client compares with its own for the
	// converged shortcut.
	capture, err := e.st.Snapshot(n.name)
	if err != nil {
		return refuseErr(conn, err)
	}
	*rs = reconSession{e: e, flow: conn.flow.Load(), hello: hello, capture: capture}
	answer, err := n.answerProbe(rs, root)
	if err != nil {
		return refuseErr(conn, err)
	}
	ack := wire.Hello{Node: n.name, Object: hello.Object, Datatype: hello.Datatype, Head: capture.Head()}
	if err := wire.WriteMsg(conn, wire.FrameHelloAck, wire.EncodeHello(ack), wire.EncodeReconAnswer(answer)); err != nil {
		return err
	}
	sp.phase("negotiate", hello.Object, hStart)
	return nil
}

// reconItemsCap is the range size below which a probed server
// enumerates the range instead of splitting it: recursion stops once
// enumeration is cheaper than more round trips.
const reconItemsCap = 64

// handleReconProbe answers one range-fingerprint probe with a frame of
// the answer's kind.
func (n *Node) handleReconProbe(conn *countedConn, fields [][]byte, rs *reconSession) error {
	if rs.capture == nil || len(fields) != 1 {
		return refuse(conn, "recon probe outside a recon exchange")
	}
	rr, err := wire.DecodeReconRange(fields[0])
	if err != nil {
		return refuseErr(conn, err)
	}
	answer, err := n.answerProbe(rs, rr)
	if err != nil {
		return refuseErr(conn, err)
	}
	return wire.WriteReconAnswer(conn, answer)
}

// answerProbe answers one range probe of the session's exchange — the
// root probe a hello carries as well as every probe of the descent — and
// counts it. Every read of the fingerprint tree is consistent under the
// store's read lock. Both sides' trees may grow mid-descent; each side's
// capture covers what grew (see store.Capture), so a range that moved
// surfaces as a re-negotiation next round, never as corruption.
func (n *Node) answerProbe(rs *reconSession, rr wire.ReconRange) (wire.ReconAnswer, error) {
	rs.flow.rangesRecv.Inc()
	rs.probes++
	obj := rs.e.st
	fp, count := obj.ReconRange(rr.X, rr.Y)
	switch {
	case fp == rr.FP && count == rr.Count:
		return wire.ReconAnswer{Kind: wire.FrameReconMatch}, nil
	case count == 0:
		return wire.ReconAnswer{Kind: wire.FrameReconEmptyRange}, nil
	case count <= reconItemsCap:
		// Enumerate the range as it is now, not capped at the count just
		// read: a commit that landed in the range since (a concurrent
		// import can add one below older items) would otherwise push an
		// older one out of the list, which the prober then never wants.
		return wire.ReconAnswer{Kind: wire.FrameReconItems, Items: obj.ReconItems(rr.X, rr.Y, -1)}, nil
	}
	// Split at the median item; both halves are non-empty because
	// count > reconItemsCap ≥ 2, so the descent strictly shrinks.
	mid, ok := obj.ReconSelect(rr.X, rr.Y, count/2)
	if !ok {
		return wire.ReconAnswer{}, errors.New("recon split lost the range")
	}
	fpLo, cLo := obj.ReconRange(rr.X, mid)
	fpHi, cHi := obj.ReconRange(mid, rr.Y)
	return wire.ReconAnswer{Kind: wire.FrameReconSplit,
		Split: wire.ReconSplit{Mid: mid, FPLo: fpLo, CountLo: cLo, FPHi: fpHi, CountHi: cHi}}, nil
}

// handleReconWant finishes a recon exchange: read the client's want list
// and its delta of commits we lack, reply through the session's capture
// with exactly the wanted commits plus whatever was installed since the
// hello — commits local writes and other sessions raced in, which the
// reply heads may reach — bar what arrived labelled with the client's
// name, and only then integrate the delta. The client cannot have any
// of the reply, and the reply re-ships nothing.
//
// The reply leaves before the integrate starts, so the client lands it
// while this side lands the delta: a session's two imports overlap
// instead of running one after the other. FrameLanded then tells the
// client the delta is in, so its SyncWith still returns only once both
// sides have landed. A delta that fails to integrate is refused after
// the reply: the client has landed a valid reply by then and fails its
// sync on the refusal.
func (n *Node) handleReconWant(conn *countedConn, fields [][]byte, rs *reconSession, sp *spanRec) error {
	wStart := time.Now()
	if rs.capture == nil || len(fields) != 1 {
		return refuse(conn, "recon want outside a recon exchange")
	}
	want, err := wire.DecodeReconWant(fields[0])
	if err != nil {
		return refuseErr(conn, err)
	}
	commits, heads, err := readDelta(conn)
	if err != nil {
		return refuseErr(conn, err)
	}
	e := rs.e
	ship := make(map[store.Hash]bool, len(want))
	for _, h := range want {
		ship[h] = true
	}
	reply, replyHeads, err := e.st.ExportSet(rs.capture, ship, store.Drain, "remote/"+rs.hello.Node)
	if err != nil {
		return refuseErr(conn, err)
	}
	rs.flow.shipped(reply)
	n.metrics.descent(rs.probes)
	sp.phase("ship", rs.hello.Object, wStart)
	if err := wire.WriteDeltaPacked(conn, reply, replyHeads); err != nil {
		return err
	}
	if err := conn.w.Flush(); err != nil {
		return err
	}
	landStart := time.Now()
	redundant, err := n.integrate(e, rs.hello.Object, rs.hello.Node, commits, heads)
	if err != nil {
		return refuseErr(conn, err)
	}
	// Count the exchange before FrameLanded goes out: the client may read
	// its own stats the moment its SyncWith returns, and this handler
	// goroutine has no happens-before edge past the write.
	rs.flow.exchanges.Inc()
	rs.flow.landed(commits, redundant)
	sp.commits(len(reply), len(commits))
	sp.objects(1)
	sp.phase("import", rs.hello.Object, landStart)
	return wire.WriteMsg(conn, wire.FrameLanded)
}

// handleLinkBatch integrates one batch of a link's stream: the commits
// the dialer installed since its previous batch, grafted on its branch
// heads, are united with the node branch exactly as a session's delta
// is.
// A batch that does not graft (or names an object not hosted here) is a
// violation: the refusal reaches the dialer's reader and ends the link.
// The first batch takes the connection out of the session clip: a link
// lives until its dialer closes it, kept past the idle deadline by
// heartbeats (a batch with no fields).
func (n *Node) handleLinkBatch(conn *countedConn, fields [][]byte, sp *spanRec) error {
	conn.sessionEnd = time.Time{}
	if len(fields) == 0 {
		return nil
	}
	if len(fields) != 1 {
		return refuse(conn, "bad link batch")
	}
	hello, err := wire.DecodeHello(fields[0])
	if err != nil {
		return refuseErr(conn, err)
	}
	sp.setPeer(hello.Node)
	e, ok := n.entry(hello.Object)
	if !ok || e.datatype != hello.Datatype {
		conn.at(nil)
		return refuse(conn, fmt.Sprintf("link batch for object %s (%s), not hosted here", hello.Object, hello.Datatype))
	}
	conn.at(e)
	commits, heads, err := readDelta(conn)
	if err != nil {
		return refuseErr(conn, err)
	}
	if store.HeadSetHash(heads) != hello.Head {
		return refuse(conn, "link batch head differs from its delta's")
	}
	redundant, err := n.integrate(e, hello.Object, hello.Node, commits, heads)
	if err != nil {
		return refuseErr(conn, err)
	}
	conn.flow.Load().landed(commits, redundant)
	sp.commits(0, len(commits))
	return nil
}

// handleReconSpan answers a whole-node span probe: fold a fingerprint
// over every hosted object and reply FrameReconMatch when it equals the
// prober's — one frame confirming a converged pair — or our own span
// when it does not (the prober then runs per-object exchanges).
func (n *Node) handleReconSpan(conn *countedConn, fields [][]byte, sp *spanRec) error {
	sStart := time.Now()
	if len(fields) != 1 {
		return refuse(conn, "bad request")
	}
	probe, err := wire.DecodeReconSpan(fields[0])
	if err != nil {
		return refuseErr(conn, err)
	}
	conn.at(nil)
	conn.flow.Load().rangesRecv.Inc()
	names := n.Objects()
	mine := n.nodeSpan(names)
	if mine == probe {
		// Mirror the client's accounting: a matching span completes one
		// converged exchange per hosted object.
		for _, name := range names {
			if e, ok := n.entry(name); ok {
				n.flow(e, "").exchanges.Inc()
			}
		}
		n.metrics.spanMatch.Inc()
		sp.objects(len(names))
		sp.phase("span-probe", "", sStart)
		return wire.WriteMsg(conn, wire.FrameReconMatch)
	}
	n.metrics.spanDiff.Inc()
	sp.phase("span-probe", "", sStart)
	return wire.WriteMsg(conn, wire.FrameReconSpan, wire.EncodeReconSpan(mine))
}

// nodeSpan folds the named objects, at their live heads, into one
// digest (see foldSpan).
func (n *Node) nodeSpan(names []string) wire.ReconSpan {
	var sp wire.ReconSpan
	for _, name := range names {
		if e, ok := n.entry(name); ok {
			head, _ := e.st.HeadHash(n.name)
			foldSpan(&sp, name, e, head)
		}
	}
	return sp
}

// foldSpan folds one object into a whole-node span: the commit-set
// fingerprint XOR a domain-separated hash of the object's name and
// branch head. Equal spans mean the pair agrees on object names, commit
// sets and heads all at once; the count (total commits) guards the XOR
// against the trivial collision of swapped sets.
func foldSpan(sp *wire.ReconSpan, name string, e *objectEntry, head store.Hash) {
	root, count := e.st.ReconRoot()
	h := sha256.New()
	h.Write([]byte("peepul-recon-span\x00"))
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(head[:])
	var fold recon.Fingerprint
	copy(fold[:], h.Sum(nil))
	sp.FP.Xor(root)
	sp.FP.Xor(fold)
	sp.Count += count
}
