package peepul

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// ErrProtocol is wrapped by all protocol-level failures: a SyncWith that
// fails because the peer sent malformed frames, refused this node's
// commits or speaks another protocol version.
var ErrProtocol = errors.New("peepul: protocol error")

// ErrObject is wrapped by Open's failures: a datatype mismatch, or
// storage that cannot be opened or belongs to another datatype, node or
// build.
var ErrObject = errors.New("peepul: object error")

// defaultSyncTimeout bounds how long one read or write of a sync
// exchange may stall (override with WithSyncTimeout). A peer that keeps
// making progress can transfer arbitrarily much; one that goes silent
// errors out instead of wedging the node (exchanges serialize per peer
// address, so an unbounded stall would block every later sync with that
// peer).
const defaultSyncTimeout = 30 * time.Second

// defaultSessionTimeout bounds a whole sync session (override or
// disable with WithSessionTimeout). The idle timeout alone cannot stop
// a dribbling peer — one byte per idle window makes progress forever —
// so the session bound is what caps how long a hostile peer can hold a
// handler slot, a peer-address turn and a session's store capture.
const defaultSessionTimeout = 3 * time.Minute

// countedConn is a session connection: buffered both ways, so a protocol
// turn leaves in one write (see the package comment), and metered at the
// raw layer underneath the buffers. It counts the bytes crossing the
// socket into one flow — the series of the object whose exchange is in
// flight, with the peer it dialled (none on inbound handlers) — and into
// the session's span. Every raw fill and flush refreshes the idle
// deadline, capped by the absolute session deadline.
type countedConn struct {
	net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	node *Node
	peer string // the dialled address; "" on inbound handlers
	flow atomic.Pointer[flow]
	// span is the session's flight-recorder span (nil without a
	// recorder, and once a link streams: the link's reader and writer
	// then share the connection).
	span *spanRec
	// idle is the per-operation stall bound; sessionEnd (zero = none) is
	// the whole-session deadline no refresh may extend past.
	idle       time.Duration
	sessionEnd time.Time
	// streaming marks the dial side of a link in stream mode, where the
	// reader goroutine and the writer share the connection: a raw fill
	// neither flushes (the writer flushes after each batch) nor times out.
	streaming bool
}

// FrameRead and FrameWrote implement wire.FrameMeter: the framing layer
// reports each complete frame's kind and size here.
func (c *countedConn) FrameRead(kind wire.FrameKind, bytes int) {
	c.node.metrics.frame(false, kind, bytes)
}

func (c *countedConn) FrameWrote(kind wire.FrameKind, bytes int) {
	c.node.metrics.frame(true, kind, bytes)
}

// at points byte attribution at e's exchange (nil: traffic no exchange
// owns) before any of its frames cross.
func (c *countedConn) at(e *objectEntry) { c.flow.Store(c.node.flow(e, c.peer)) }

// stamp computes the next operation deadline: now+idle, clipped to the
// session end.
func (c *countedConn) stamp() time.Time {
	d := time.Now().Add(c.idle)
	if !c.sessionEnd.IsZero() && c.sessionEnd.Before(d) {
		d = c.sessionEnd
	}
	return d
}

// Read and Write are the framing layer's view: they go through the
// session buffers.
func (c *countedConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *countedConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// fill is the raw read under the read buffer. It runs only when the
// buffer is empty — the session is about to block on the peer — so it
// first flushes this side's pending turn: the peer cannot answer what it
// has not been sent. A streaming link's reader skips both the flush and
// the deadline.
func (c *countedConn) fill(p []byte) (int, error) {
	if !c.streaming {
		if err := c.w.Flush(); err != nil {
			return 0, err
		}
		if err := c.Conn.SetReadDeadline(c.stamp()); err != nil {
			return 0, err
		}
	}
	n, err := c.Conn.Read(p)
	c.flow.Load().bytesRecv.Add(int64(n))
	c.span.bytes(0, n)
	return n, err
}

// flush is the raw write under the write buffer. It counts the bytes
// before writing them: the peer may read and answer them before Write
// returns, and whoever then reads this node's counters must see them.
// What a failed write did not send is taken back.
func (c *countedConn) flush(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(c.stamp()); err != nil {
		return 0, err
	}
	sent := c.flow.Load().bytesSent
	sent.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	if n < len(p) {
		sent.Add(int64(n - len(p)))
	}
	c.span.bytes(n, 0)
	return n, err
}

// stream switches the dial side of a finished connect session to stream
// mode, before its reader goroutine starts: the session clip no longer
// applies, writes keep their idle deadline, reads wait for as long as
// the link lives, and the connect session's span stops counting.
func (c *countedConn) stream() error {
	c.streaming = true
	c.span = nil
	c.sessionEnd = time.Time{}
	return c.Conn.SetReadDeadline(time.Time{})
}

// sessionWriteBuf sizes a session's write buffer: a typical turn — a
// hello, a probe, a want with a delta of a few dozen commits — leaves in
// one write, and a larger delta streams out in writes of this size. The
// read buffer keeps bufio's default; a reply larger than it arrives in
// several reads of one turn.
const sessionWriteBuf = 16 << 10

// readerFunc and writerFunc adapt countedConn's raw methods to the
// interfaces its buffers wrap.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// newConn wraps a session connection with the session buffers and the
// node's byte accounting and deadline policy. peer is the dialled
// address, "" for an inbound connection.
func (n *Node) newConn(conn net.Conn, peer string, span *spanRec) *countedConn {
	c := &countedConn{Conn: conn, node: n, peer: peer, span: span, idle: n.cfg.syncTimeout()}
	c.at(nil)
	c.r = bufio.NewReader(readerFunc(c.fill))
	c.w = bufio.NewWriterSize(writerFunc(c.flush), sessionWriteBuf)
	if d := n.cfg.sessionTimeout(); d > 0 {
		c.sessionEnd = time.Now().Add(d)
	}
	return c
}

// dialTimeout bounds a sync dial to a peer; context cancellation (node
// close, peer removal) aborts earlier.
const dialTimeout = 10 * time.Second

// dialPeer opens a sync connection through the node's transport,
// honouring ctx for the dial. The caller ties the rest of the exchange
// to ctx itself, closing the connection from a context.AfterFunc.
func (n *Node) dialPeer(ctx context.Context, addr string) (net.Conn, error) {
	return n.cfg.transportOrTCP().Dial(ctx, addr)
}

// objectEntry pairs a hosted object with the store surface its sessions
// use, its traffic series per peer, its Watch subscribers and, on
// durable nodes, its pack log.
type objectEntry struct {
	name string
	// datatype is the registered datatype name; hellos carry it so two
	// nodes never merge states of different types under one object name.
	datatype string
	// handle is the *Handle[S, Op, Val] every Open of the object returns.
	handle   any
	st       syncStore
	log      *disk.Log
	flows    sync.Map // peer -> *flow
	watchers *watcherSet
}

// Node is one replica hosting a set of named replicated objects. Create
// objects with Open; replicate with Listen/SyncWith. Safe for concurrent
// use, and read-parallel: per-object queries (State, Stats, range
// fingerprints, delta export) share a read lock on the object's store and
// run concurrently with each other, serializing only against mutations
// (Do, Pull, Sync). Merge cost is O(divergence) — the store's
// generation-guided DAG walks never descend past the merge base — so
// long-lived replicas pull as fast as freshly created ones.
type Node struct {
	name      string
	replicaID int
	cfg       nodeConfig

	mu      sync.Mutex // guards objects
	objects map[string]*objectEntry

	// peerMus serializes whole exchanges per peer address, so a manual
	// SyncWith and a mesh daemon round to the same peer never run
	// concurrently (and never duplicate each other's transfer), while
	// exchanges with different peers overlap freely.
	peerMus sync.Map // addr -> *sync.Mutex

	// mesh is the always-on sync daemon (mesh.go, supervisor.go); it has
	// no peers (and spawns no goroutines) until WithPeers or AddPeer
	// names some.
	mesh daemon

	// flows holds the series of traffic no exchange owns, per peer.
	flows sync.Map // peer -> *flow
	// ackedPeers is the first-contact set: addresses that have acked a
	// hello, with the node name the latest ack carried. Only a session to
	// such an address opens with the whole-node span probe — a first
	// session never pays that turn, since against a peer it has never
	// synced with the probe would only report a difference. A link labels
	// its peer's batches with the name. The set only grows; a peer that
	// restarts in place answers the probe like any other.
	ackedPeers sync.Map // addr -> peer node name

	ln     net.Listener
	closed chan struct{}
	// inbound tracks live inbound session connections so Close can sever
	// them: a handler parked mid-read would otherwise hold wg.Wait until
	// its idle deadline fires.
	inboundMu sync.Mutex
	inbound   map[net.Conn]struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	// metrics is the node's view of its registry (obs.go), always on.
	// rec is the flight recorder, nil without WithObservability or
	// WithDebugAddr, in which case every span hook is one nil check.
	// debug is the live debug HTTP server (debug.go), nil without
	// WithDebugAddr.
	metrics *nodeMetrics
	rec     *obs.Recorder
	debug   *debugServer
}

// MaxReplicaID is the largest node id accepted by NewNode; each node
// reserves a block of 64 branch-clock replica ids per object so that
// timestamps are unique fleet-wide within every object's DAG.
const MaxReplicaID = 1023

// NewNode creates a replica named name with fleet-unique id replicaID in
// [0, MaxReplicaID]. The name doubles as the node's branch name in every
// object's store and as its peer identity on the wire; names and ids must
// be unique across the fleet.
func NewNode(name string, replicaID int, opts ...NodeOption) (*Node, error) {
	if replicaID < 0 || replicaID > MaxReplicaID {
		return nil, fmt.Errorf("peepul: id %d out of range [0, %d]", replicaID, MaxReplicaID)
	}
	n := &Node{
		name:      name,
		replicaID: replicaID,
		objects:   make(map[string]*objectEntry),
		inbound:   make(map[net.Conn]struct{}),
		closed:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(&n.cfg)
	}
	n.cfg.obsReg = obs.NewRegistry()
	n.metrics = newNodeMetrics(n.cfg.obsReg)
	if n.cfg.obsEnabled {
		n.rec = obs.NewRecorder()
	}
	n.cfg.resolveMesh()
	n.mesh.syncer = n
	n.mesh.ctx, n.mesh.cancel = context.WithCancel(context.Background())
	n.mesh.peers = make(map[string]*meshPeer)
	for _, addr := range n.cfg.peers {
		n.AddPeer(addr)
	}
	if n.cfg.debugAddr != "" {
		if err := n.startDebug(n.cfg.debugAddr); err != nil {
			n.closeMesh()
			return nil, err
		}
	}
	return n, nil
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Objects returns the names of the objects the node hosts, sorted.
func (n *Node) Objects() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.objects))
	for name := range n.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// objectCount returns how many objects the node hosts.
func (n *Node) objectCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.objects)
}

// entry returns the object entry for object, if hosted.
func (n *Node) entry(object string) (*objectEntry, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.objects[object]
	return e, ok
}

// Listen starts serving sync requests on addr ("127.0.0.1:0" picks a free
// port) through the node's transport. The chosen address is available
// from Addr. A node serves one listener: a second Listen is an error.
func (n *Node) Listen(addr string) error {
	if n.ln != nil {
		return fmt.Errorf("peepul: node %s already listening on %s", n.name, n.ln.Addr())
	}
	ln, err := n.cfg.transportOrTCP().Listen(addr)
	if err != nil {
		return err
	}
	n.ln = ln
	n.wg.Add(1)
	go n.serve()
	return nil
}

// Addr returns the listening address, or "" before Listen.
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Close drains the mesh daemon (cancelling any in-flight round — a peer
// that is down cannot wedge shutdown), stops serving, waits for in-flight
// handlers, detaches every watcher, then flushes and closes every
// object's pack log, so a durable node's on-disk state is complete the
// moment Close returns. Close is idempotent: second and later calls are
// no-ops returning the first call's error.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.closeMesh()
		close(n.closed)
		if n.debug != nil {
			n.debug.close()
		}
		if n.ln != nil {
			n.closeErr = n.ln.Close()
		}
		// Sever live inbound sessions: a handler parked mid-read must not
		// hold shutdown until its idle deadline.
		n.inboundMu.Lock()
		for conn := range n.inbound {
			conn.Close()
		}
		n.inboundMu.Unlock()
		n.wg.Wait()
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, e := range n.objects {
			e.watchers.shutdown()
			if e.log == nil {
				continue
			}
			if err := e.st.FlushStorage(); err != nil && n.closeErr == nil {
				n.closeErr = err
			}
			if err := e.log.Close(); err != nil && n.closeErr == nil {
				n.closeErr = err
			}
		}
	})
	return n.closeErr
}

// Accept backoff: after a failed Accept the serve loop waits
// acceptBackoffMin, doubling per consecutive failure up to
// acceptBackoffMax, and resets on the next success — a listener stuck
// failing (out of file descriptors, say) costs a few wakeups a second,
// not a core.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// serve accepts inbound sync sessions, one handler goroutine each, with
// concurrency capped by a semaphore (WithMaxInbound): a dial storm gets
// its excess connections closed promptly instead of an unbounded
// goroutine pile-up (counted in SyncStats.InboundShed).
func (n *Node) serve() {
	defer n.wg.Done()
	sem := make(chan struct{}, n.cfg.inboundLimit())
	var backoff time.Duration
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			select {
			case <-n.closed:
				return
			case <-time.After(backoff):
				continue
			}
		}
		backoff = 0
		select {
		case sem <- struct{}{}:
		default:
			n.metrics.shed.Inc()
			conn.Close()
			continue
		}
		n.inboundMu.Lock()
		n.inbound[conn] = struct{}{}
		n.inboundMu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handle(conn)
			// The slot goes back before the connection closes: a client
			// that redials the moment it sees EOF must find it free.
			<-sem
			conn.Close()
			n.inboundMu.Lock()
			delete(n.inbound, conn)
			n.inboundMu.Unlock()
		}()
	}
}

// integrate lands a peer's batch on an object's store, labelled with the
// peer's name for open captures (store.Integrate). A union that moved the
// node branch's head set fires the object's watchers and re-notifies the
// mesh daemon: the commits it brought in are themselves streamed onward,
// so they cascade hop by hop through ring and mesh topologies instead of
// waiting out an anti-entropy round per hop. (The cascade terminates: a
// link never streams a commit back to the peer it came from, and a commit
// already present installs nothing.) Whether the head set moved is the
// store's verdict, so a Do racing the integrate never fires watchers.
func (n *Node) integrate(e *objectEntry, object, peer string, batch []store.ExportedCommit, heads []store.Hash) (redundant int, _ error) {
	redundant, after, moved, err := e.st.Integrate(n.name, "remote/"+peer, batch, heads)
	if moved {
		e.watchers.broadcast(WatchEvent{Object: object, From: peer, Head: after})
		n.notifyCommit()
	}
	return redundant, err
}

// readDelta reads the peer's delta — a client's ship set or a server's
// reply; a refusal the peer sent in its place is a protocol error.
func readDelta(c *countedConn) ([]store.ExportedCommit, []store.Hash, error) {
	commits, heads, err := wire.ReadDelta(c)
	var pe *wire.PeerError
	if errors.As(err, &pe) {
		err = fmt.Errorf("%w: peer: %s", ErrProtocol, pe.Msg)
	}
	return commits, heads, err
}

var _ io.ReadWriter = (*countedConn)(nil)
