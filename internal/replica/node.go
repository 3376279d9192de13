// Package replica is the network replication layer: it runs MRDTs on
// geo-distributed nodes that exchange their commit histories peer-to-peer
// over TCP — the deployment model of the paper's system (Irmin replicas
// synchronizing Git-style, §1, §7).
//
// A Node hosts any number of named replicated objects, the way an Irmin
// repository hosts many keys: each object is an independent versioned
// store (internal/store) of one registered datatype. One sync connection
// reconciles every object the two nodes share, in one protocol whose
// hello and span payloads open with wire.Version (any other version is
// refused). Per object, the client's hello carries the object's name,
// its datatype, its branch head and the root range probe of its commit
// set; the ack carries the server's head and the probe's answer (or a
// miss for objects the server does not host). The client then descends
// the hash ranges that differ until the exact symmetric difference is
// known, ships a want list and a packed delta of the commits the server
// lacks, and the server replies with exactly the wanted commits plus the
// merges its pull minted. The receiver grafts the partial DAG onto the
// commits it already holds and performs a store Pull, whose DAG-based
// lowest common ancestor is correct even when history reached a node
// indirectly through third parties — ring and mesh gossip topologies
// converge, which per-pair state exchange cannot achieve. A peer that has
// acked a hello before is opened with a whole-node span probe, so a
// re-sync of a converged pair costs one round trip, not one per object.
// Merging is the store's job and keeps its guarantees verbatim: every
// pull merges over a base carrying exactly the operations common to both
// heads (Ψ_lca by construction), and fast-forwards adopt commits.
//
// Session connections flush on block: each is buffered both ways, frames
// written during a protocol turn accumulate in the write buffer, and the
// raw read under the read buffer — which runs only when the session is
// about to wait for the peer — first flushes them. A turn (a hello with
// its root recon probe, a probe, a want with its delta, a reply) thus
// leaves in one write however many frames and fields it holds, a session
// costs about two conn operations per round trip, and the framing layer
// (internal/wire) never learns that buffering exists. The serving
// handler flushes once more on exit, so its last reply or refusal still
// reaches the client. Deadlines and byte accounting apply per raw fill
// and flush.
//
// Replication can be always-on: every node embeds an internal/mesh
// engine. Peers configured with WithPeers (or added with AddPeer) get a
// supervisor goroutine that keeps one outbound link to the peer (link.go)
// and runs jittered anti-entropy rounds — the same syncPeer code path a
// manual SyncWith uses — while the link is up. A link is a client session
// whose connection outlives it: the connect session repairs the pair, and
// then the connection streams, one way, every commit the node installs —
// local commits and remote-merge head moves alike — except those that
// arrived from that peer. The serving side integrates each stream batch
// as it integrates a session's delta. Failures back off exponentially per
// peer, and a failed link reconnects, its connect session the repair.
// Watch exposes the merge path's head moves as a notification channel.
//
// Concurrency discipline: a client session is a reader of a snapshot.
// Right after the dial, before its first frame, it takes for every
// object in scope the branch head H0 and a store install-capture token
// in one store critical section. The span probe and hello advertise H0;
// the recon descent reads the live fingerprint tree (a superset of the
// snapshot); the ship set is the resolved diff minus everything the
// token captured, exported with head H0; and the peer's reply is merged
// into whatever head the branch has by then — a fast-forward, a semantic
// fast-forward or one merge commit, all ordinary store.Pull cases. A
// session's work is therefore bounded by the state it connected with,
// and commits younger than it ride the link's next batch or the next
// round. Local commits (Do, PullLocal, SyncLocal) take only the store's
// lock and never wait for a session. The serving side answers from the
// live store: its reply export folds in whatever landed since its hello
// ack — bar what arrived under the client's own tracking branch —
// because its reply head is the head it just merged.
//
// The one replica-level lock on the data path is the per-object merge
// lock: a session holds it around "import the peer's delta, pull it into
// the node branch (and, serving, export the reply)", so two sessions
// sharing a tracking branch cannot pull each other's import and each
// reply matches the pull that minted it. It covers local store calls
// only — nothing blocks on a connection while holding it — so two nodes
// syncing each other simultaneously have no waits-for edge between them
// and need no tie-break. That crossed sessions still converge is the
// store's doing, not a lock's: Pull declines to mint a merge when the
// operation sets already agree and elects the smaller head hash, so
// crossed merges meet on one head within a round or two. What crossing
// can cost is a second delivery: two sessions running opposite ways
// between one pair may both carry the same commit (one in its ship set,
// one in its reply), which content addressing drops on arrival and
// RedundantCommits counts. Uncrossed sessions ship exactly once, and a
// link never streams back what its peer sent, so between linked nodes
// crossing happens only between a round (or connect session) and the
// other side's stream. Client sessions additionally take turns per peer
// address (a session-admission lock no write, no handler and no link's
// stream ever takes), so a daemon round, a connect session and a manual
// SyncWith to the same peer never duplicate each other's transfer.
package replica

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
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// ErrProtocol is wrapped by all protocol-level failures.
var ErrProtocol = errors.New("replica: protocol error")

// ErrObject is wrapped by object lookup and registration failures.
var ErrObject = errors.New("replica: object error")

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
// handler slot, a peer-address turn and a session's capture token.
const defaultSessionTimeout = 3 * time.Minute

// countedConn is a session connection: buffered both ways, so a protocol
// turn leaves in one write (see the package comment), and metered at the
// raw layer underneath the buffers. It counts the bytes crossing the
// socket into the node's aggregate stats, the stats of the object whose
// exchange is in flight, and (client side) the per-exchange counters the
// mesh engine attributes to one peer. Every raw fill and flush refreshes
// the idle deadline, capped by the absolute session deadline.
type countedConn struct {
	net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	total *syncStats
	call  *syncStats // one exchange's counters; nil on inbound handlers
	obj   atomic.Pointer[syncStats]
	// idle is the per-operation stall bound; sessionEnd (zero = none) is
	// the whole-session deadline no refresh may extend past.
	idle       time.Duration
	sessionEnd time.Time
	// metrics feeds the per-frame wire counters (nil when the node runs
	// without observability).
	metrics *nodeMetrics
	// streaming marks the dial side of a link in stream mode, where the
	// reader goroutine and the writer share the connection: a raw fill
	// neither flushes (the writer flushes after each batch) nor times out.
	streaming bool
}

// FrameRead and FrameWrote implement wire.FrameMeter: the framing layer
// reports each complete frame's kind and size here.
func (c *countedConn) FrameRead(kind wire.FrameKind, bytes int) {
	c.metrics.frame(false, kind, bytes)
}

func (c *countedConn) FrameWrote(kind wire.FrameKind, bytes int) {
	c.metrics.frame(true, kind, bytes)
}

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
	c.total.bytesRecv.Add(int64(n))
	if c.call != nil {
		c.call.bytesRecv.Add(int64(n))
	}
	if s := c.obj.Load(); s != nil {
		s.bytesRecv.Add(int64(n))
	}
	return n, err
}

// flush is the raw write under the write buffer.
func (c *countedConn) flush(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(c.stamp()); err != nil {
		return 0, err
	}
	n, err := c.Conn.Write(p)
	c.total.bytesSent.Add(int64(n))
	if c.call != nil {
		c.call.bytesSent.Add(int64(n))
	}
	if s := c.obj.Load(); s != nil {
		s.bytesSent.Add(int64(n))
	}
	return n, err
}

// stream switches the dial side of a finished connect session to stream
// mode, before its reader goroutine starts: the session clip no longer
// applies, writes keep their idle deadline, and reads wait for as long
// as the link lives.
func (c *countedConn) stream() error {
	c.streaming = true
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
// node's byte accounting and deadline policy.
func (n *Node) newConn(conn net.Conn, call *syncStats) *countedConn {
	c := &countedConn{Conn: conn, total: &n.total, call: call, idle: n.cfg.syncTimeout(), metrics: n.metrics}
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

// objectEntry pairs a hosted object with its sync counters, its Watch
// subscribers and, on durable nodes, its pack log.
type objectEntry struct {
	obj      Object
	log      *disk.Log
	stats    syncStats
	watchers *watcherSet
	// mergeMu makes a session's "import, pull (and export the reply)" one
	// step with respect to other sessions on this object. It is held over
	// store calls only, never across a connection read or write, and
	// local commits do not take it (see the package comment).
	mergeMu sync.Mutex
}

// Node is one replica hosting a set of named MRDT objects. It is safe
// for concurrent use.
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

	// engine is the always-on sync daemon; it has no peers (and spawns
	// no goroutines) until WithPeers or AddPeer names some.
	engine *mesh.Engine

	total syncStats
	// ackedPeers is the first-contact set: addresses that have acked a
	// hello, with the node name the latest ack carried. Only a session to
	// such an address opens with the whole-node span probe — a first
	// session never pays that turn, since against a peer it has never
	// synced with the probe would only report a difference. A link takes
	// the name for its peer's tracking branch. The set only grows; a peer
	// that restarts in place answers the probe like any other.
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

	// metrics and rec are the node's observability hooks (obs.go),
	// allocated by WithObservability / WithDebugAddr; nil by default, in
	// which case every instrumentation site is one nil check. debug is
	// the live debug HTTP server (debug.go), nil without WithDebugAddr.
	metrics *nodeMetrics
	rec     *obs.Recorder
	debug   *debugServer
}

// MaxReplicaID is the largest node id; each node reserves a block of 64
// branch-clock replica ids per object so that timestamps are unique
// fleet-wide within every object's DAG.
const MaxReplicaID = 1023

// NewNode creates a replica named name with fleet-unique id replicaID.
// Node names double as branch names in each object's embedded store and
// as peer identities on the wire; names and ids must be unique across the
// fleet. Options configure durable storage (WithStorage, WithFsync); they
// apply to every object subsequently opened on the node.
func NewNode(name string, replicaID int, opts ...NodeOption) (*Node, error) {
	if replicaID < 0 || replicaID > MaxReplicaID {
		return nil, fmt.Errorf("replica: id %d out of range [0, %d]", replicaID, MaxReplicaID)
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
	if n.cfg.obsEnabled {
		n.cfg.obsReg = obs.NewRegistry()
		n.cfg.obsRec = obs.NewRecorder()
		n.metrics = newNodeMetrics(n.cfg.obsReg)
		n.rec = n.cfg.obsRec
	}
	n.engine = mesh.New(n, n.cfg.meshConfig())
	for _, addr := range n.cfg.peers {
		n.engine.AddPeer(addr)
	}
	if n.cfg.debugAddr != "" {
		if err := n.startDebug(n.cfg.debugAddr); err != nil {
			n.engine.Close()
			return nil, err
		}
	}
	return n, nil
}

// AddPeer registers addr with the node's always-on sync daemon: a
// supervisor goroutine dials its link immediately — a connect session,
// then a stream of every commit the node installs — and runs
// anti-entropy rounds while the link is up. Unreachable peers are
// retried with exponential backoff. Adding a present peer is a no-op.
func (n *Node) AddPeer(addr string) { n.engine.AddPeer(addr) }

// RemovePeer stops the daemon's supervision of addr and closes its link
// before returning. Removing an unknown peer is a no-op.
func (n *Node) RemovePeer(addr string) { n.engine.RemovePeer(addr) }

// Peers returns the daemon's supervised peer addresses, sorted.
func (n *Node) Peers() []string { return n.engine.Peers() }

// MeshStats snapshots the daemon's per-peer state: link up or down,
// rounds, stream batches, failures, backoff, health score, wire cost and
// last-converged time, keyed by peer address.
func (n *Node) MeshStats() map[string]mesh.PeerStats { return n.engine.Stats() }

// PeerMeshStats snapshots one peer's daemon state; ok is false for
// addresses the daemon does not supervise.
func (n *Node) PeerMeshStats(addr string) (mesh.PeerStats, bool) {
	return n.engine.PeerStats(addr)
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Objects returns the names of the hosted objects, sorted.
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

// Object returns the hosted object named object.
func (n *Node) Object(object string) (Object, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.objects[object]
	if !ok {
		return nil, false
	}
	return e.obj, true
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
		return fmt.Errorf("replica: node %s already listening on %s", n.name, n.ln.Addr())
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
		n.engine.Close()
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
			if err := e.obj.FlushStorage(); err != nil && n.closeErr == nil {
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
			n.total.inboundShed.Add(1)
			if m := n.metrics; m != nil {
				m.shed.Inc()
			}
			conn.Close()
			continue
		}
		n.inboundMu.Lock()
		n.inbound[conn] = struct{}{}
		n.inboundMu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() { <-sem }()
			defer func() {
				conn.Close()
				n.inboundMu.Lock()
				delete(n.inbound, conn)
				n.inboundMu.Unlock()
			}()
			// A per-session stat set rides along so the handler's span can
			// report this session's bytes and commits in isolation.
			var sess syncStats
			n.handle(n.newConn(conn, &sess))
		}()
	}
}

// lockMerge takes e's merge lock for a session, recording how long the
// session waited behind another one's merge section.
func (n *Node) lockMerge(e *objectEntry) {
	m := n.metrics
	if m == nil {
		e.mergeMu.Lock()
		return
	}
	start := time.Now()
	e.mergeMu.Lock()
	m.mergeWaitNs.Observe(time.Since(start).Nanoseconds())
}

// readDelta reads the peer's delta — a client's ship set or a server's
// reply; a refusal the peer sent in its place is a protocol error.
func readDelta(c *countedConn) ([]store.ExportedCommit, store.Hash, error) {
	commits, head, err := wire.ReadDelta(c)
	var pe *wire.PeerError
	if errors.As(err, &pe) {
		err = fmt.Errorf("%w: peer: %s", ErrProtocol, pe.Msg)
	}
	return commits, head, err
}

var _ io.ReadWriter = (*countedConn)(nil)
