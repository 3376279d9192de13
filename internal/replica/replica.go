// Package replica is the network replication layer: it runs MRDTs on
// geo-distributed nodes that exchange their commit histories peer-to-peer
// over TCP — the deployment model of the paper's system (Irmin replicas
// synchronizing Git-style, §1, §7).
//
// A Node hosts any number of named replicated objects, the way an Irmin
// repository hosts many keys: each object is an independent versioned
// store (internal/store) of one registered datatype. One sync connection
// negotiates and delta-syncs every object the two nodes share. Per object,
// a sync is an incremental delta exchange (protocol v2): the client opens
// with a hello carrying the object's name, its datatype, and the branch
// frontier — head hash plus a sampled have-set — the server answers with
// its own frontier (or a miss for objects it does not host), and then each
// side streams only the commits the other's frontier does not dominate.
// The receiver grafts the partial DAG onto the commits it already holds
// (content addressing deduplicates anything shipped twice) and performs a
// store Pull, whose DAG-based lowest common ancestor is correct even when
// history reached a node indirectly through third parties — ring and mesh
// gossip topologies converge, which per-pair state exchange cannot
// achieve. A re-sync of an already-converged pair therefore costs
// O(frontier) bytes, not O(history). Peers that do not speak the frontier
// negotiation (or fail it before it starts) are handled by falling back to
// the legacy v1 one-shot full-history exchange. Merging is the store's
// job and keeps its guarantees verbatim: every pull merges over a base
// carrying exactly the operations common to both heads (Ψ_lca by
// construction), and fast-forwards adopt commits.
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
// supervisor goroutine running jittered anti-entropy rounds through the
// same syncPeer code path a manual SyncWith uses, local commits and
// remote-merge head moves are pushed to interested peers immediately,
// and failures back off exponentially per peer. Watch exposes the merge
// path's head moves as a notification channel.
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
// and commits younger than it ride the push their NotifyCommit already
// queued. Local commits (Do, PullLocal, SyncLocal) take only the store's
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
// RedundantCommits counts. Uncrossed sessions ship exactly once. Client
// sessions additionally take turns per peer address (a session-admission
// lock no write and no handler ever takes), so a daemon round and a
// manual SyncWith to the same peer never duplicate each other's
// transfer.
package replica

import (
	"bufio"
	"context"
	"crypto/sha256"
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
	"repro/internal/recon"
	"repro/internal/store"
	"repro/internal/wire"
)

// ErrProtocol is wrapped by all protocol-level failures.
var ErrProtocol = errors.New("replica: protocol error")

// ErrObject is wrapped by object lookup and registration failures.
var ErrObject = errors.New("replica: object error")

// errFallback marks a failed v2 negotiation; SyncWith retries with the
// legacy full-history protocol.
var errFallback = errors.New("replica: delta negotiation unavailable")

// SyncStats counts sync traffic across both client and server roles.
// The node's aggregate stats cover both directions of every connection
// the node took part in; per-object stats attribute commits exactly and
// bytes to the object whose exchange was in flight when they crossed the
// wire. Commit counts are commits shipped, before content-address
// deduplication on the receiving side.
type SyncStats struct {
	BytesSent   int64
	BytesRecv   int64
	CommitsSent int64
	CommitsRecv int64
	// DeltaSyncs and FullSyncs count completed exchanges by protocol, one
	// per role (a two-node delta exchange increments each node once).
	DeltaSyncs int64
	FullSyncs  int64
	// Fallbacks counts delta negotiations abandoned for the full path.
	Fallbacks int64
	// Misses counts hellos answered with "object not hosted here".
	Misses int64
	// PatchesSent and PatchesRecv count commits that crossed the wire as
	// binary patches rather than full states — the packed dialect's win.
	PatchesSent int64
	PatchesRecv int64
	// RangesSent and RangesRecv count reconciliation range probes, by
	// role: probes this node issued as a client and probes it answered
	// as a server — the whole-node span probe, the root probe a recon
	// hello carries (counted once the ack answers it; a peer with recon
	// off ignores it and nothing is counted) and every probe of the
	// descent. A converged pair exchanges exactly one (the span) per
	// re-sync.
	RangesSent int64
	RangesRecv int64
	// RedundantCommits counts received commits that were already present
	// — re-ships a sampled frontier failed to subtract. The
	// reconciliation dialect's contract is to keep this at zero.
	RedundantCommits int64
	// InboundShed counts inbound connections closed unserved because the
	// concurrent-session cap (WithMaxInbound) was reached.
	InboundShed int64
	// ReconSessions, PackedSessions, PlainSessions and V1Sessions count
	// completed per-object exchanges by the negotiation-ladder tier they
	// ran at: range-fingerprint reconciliation, packed (patch-bearing)
	// delta, plain (full-state) delta, and the legacy v1 full-history
	// protocol. The first three partition DeltaSyncs; V1Sessions mirrors
	// FullSyncs. They pin down which rung a pairing actually negotiated.
	ReconSessions  int64
	PackedSessions int64
	PlainSessions  int64
	V1Sessions     int64
}

type syncStats struct {
	bytesSent, bytesRecv     atomic.Int64
	commitsSent, commitsRecv atomic.Int64
	deltaSyncs, fullSyncs    atomic.Int64
	fallbacks, misses        atomic.Int64
	patchesSent, patchesRecv atomic.Int64
	rangesSent, rangesRecv   atomic.Int64
	redundantCommits         atomic.Int64
	inboundShed              atomic.Int64
	reconSessions            atomic.Int64
	packedSessions           atomic.Int64
	plainSessions            atomic.Int64
	v1Sessions               atomic.Int64
}

// addTier counts one completed per-object exchange at its ladder tier.
func (s *syncStats) addTier(t tier) {
	switch t {
	case tierRecon:
		s.reconSessions.Add(1)
	case tierPacked:
		s.packedSessions.Add(1)
	case tierPlain:
		s.plainSessions.Add(1)
	case tierV1:
		s.v1Sessions.Add(1)
	}
}

func (s *syncStats) snapshot() SyncStats {
	return SyncStats{
		BytesSent:        s.bytesSent.Load(),
		BytesRecv:        s.bytesRecv.Load(),
		CommitsSent:      s.commitsSent.Load(),
		CommitsRecv:      s.commitsRecv.Load(),
		DeltaSyncs:       s.deltaSyncs.Load(),
		FullSyncs:        s.fullSyncs.Load(),
		Fallbacks:        s.fallbacks.Load(),
		Misses:           s.misses.Load(),
		PatchesSent:      s.patchesSent.Load(),
		PatchesRecv:      s.patchesRecv.Load(),
		RangesSent:       s.rangesSent.Load(),
		RangesRecv:       s.rangesRecv.Load(),
		RedundantCommits: s.redundantCommits.Load(),
		InboundShed:      s.inboundShed.Load(),
		ReconSessions:    s.reconSessions.Load(),
		PackedSessions:   s.packedSessions.Load(),
		PlainSessions:    s.plainSessions.Load(),
		V1Sessions:       s.v1Sessions.Load(),
	}
}

// callState is one client exchange's in-flight context: the byte and
// commit counters feeding the mesh Report, the flight-recorder span,
// and the ladder tier the exchange settled at. span is nil (and every
// use of it a no-op) when the node runs without observability.
type callState struct {
	stats syncStats
	span  *spanRec
	tier  tier
}

// object records one completed per-object exchange at tier t.
func (cs *callState) object(t tier) {
	cs.tier = t
	cs.span.object(t)
}

// countPatches reports how many of the commits travel as patches.
func countPatches(commits []store.ExportedCommit) int64 {
	n := int64(0)
	for i := range commits {
		if commits[i].Patch != nil {
			n++
		}
	}
	return n
}

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
// has not been sent.
func (c *countedConn) fill(p []byte) (int, error) {
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	if err := c.Conn.SetReadDeadline(c.stamp()); err != nil {
		return 0, err
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

	total    syncStats
	fullOnly atomic.Bool
	// reconOff disables the reconciliation dialect on both roles: the
	// node neither advertises nor echoes wire.CapRecon, so pairings
	// converge on the frontier-sampling dialect. Benchmarks use it as
	// the baseline switch; tests use it to pin the downgrade ladder.
	reconOff atomic.Bool
	// plainPeers remembers addresses that rejected the capability hello,
	// so periodic re-syncs with a pre-capability peer skip the doomed
	// probe connection instead of paying it every round. Like the
	// fullOnly switch it is best-effort session state: a peer upgraded
	// in place keeps getting the plain dialect until this node restarts.
	plainPeers sync.Map // addr -> struct{}
	// reconPeers remembers addresses that echoed wire.CapRecon, the
	// confidence gate for the two cheap openings of the recon dialect —
	// the whole-node span probe and head-only hello frontiers. Both
	// degrade safely when the memo goes stale (a span refusal clears it
	// and the round retries; a head-only frontier only costs re-shipped
	// commits), so like plainPeers it is best-effort session state.
	reconPeers sync.Map // addr -> struct{}

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
// fleet. Options configure durable storage (WithStorage, WithFsync) and
// per-object store tunables (WithStoreOptions); they apply to every
// object subsequently opened on the node.
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
// supervisor goroutine starts anti-entropy rounds against it immediately
// and receives push-on-commit notifications. Unreachable peers are
// retried with exponential backoff. Adding a present peer is a no-op.
func (n *Node) AddPeer(addr string) { n.engine.AddPeer(addr) }

// RemovePeer stops the daemon's supervision of addr. Removing an unknown
// peer is a no-op.
func (n *Node) RemovePeer(addr string) { n.engine.RemovePeer(addr) }

// Peers returns the daemon's supervised peer addresses, sorted.
func (n *Node) Peers() []string { return n.engine.Peers() }

// MeshStats snapshots the daemon's per-peer state: rounds, pushes,
// failures, backoff, health score, wire cost and last-converged time,
// keyed by peer address.
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

// Stats returns a snapshot of the node's aggregate sync counters.
func (n *Node) Stats() SyncStats { return n.total.snapshot() }

// ObjectStats returns a snapshot of one object's sync counters (zero for
// objects the node does not host).
func (n *Node) ObjectStats(object string) SyncStats {
	n.mu.Lock()
	e, ok := n.objects[object]
	n.mu.Unlock()
	if !ok {
		return SyncStats{}
	}
	return e.stats.snapshot()
}

// SetFullSyncOnly forces outgoing syncs onto the legacy v1 full-history
// protocol (the serving side always speaks both). Benchmarks use it to
// compare protocols; tests use it to pin down the fallback path.
func (n *Node) SetFullSyncOnly(v bool) { n.fullOnly.Store(v) }

// SetReconEnabled switches the set-reconciliation dialect on or off
// (default on) for both roles: disabled, the node negotiates the
// frontier-sampling dialects instead. Benchmarks use it to compare
// negotiation strategies; tests use it to pin the downgrade ladder.
func (n *Node) SetReconEnabled(v bool) { n.reconOff.Store(!v) }

func (n *Node) reconEnabled() bool { return !n.reconOff.Load() }

// entry returns the object entry for object, if hosted.
func (n *Node) entry(object string) (*objectEntry, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.objects[object]
	return e, ok
}

// soleEntry returns the node's only object, for legacy v1 requests that
// predate object naming.
func (n *Node) soleEntry() (string, *objectEntry, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.objects) != 1 {
		return "", nil, false
	}
	for name, e := range n.objects {
		return name, e, true
	}
	return "", nil, false // unreachable
}

// Listen starts serving sync requests on addr ("127.0.0.1:0" picks a free
// port) through the node's transport. The chosen address is available
// from Addr.
func (n *Node) Listen(addr string) error {
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

// serve accepts inbound sync sessions, one handler goroutine each, with
// concurrency capped by a semaphore (WithMaxInbound): a dial storm gets
// its excess connections closed promptly instead of an unbounded
// goroutine pile-up (counted in SyncStats.InboundShed).
func (n *Node) serve() {
	defer n.wg.Done()
	sem := make(chan struct{}, n.cfg.inboundLimit())
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
				continue
			}
		}
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

// writeDelta streams a delta in the dialect the session negotiated.
func writeDelta(c *countedConn, commits []store.ExportedCommit, head store.Hash, packed bool) error {
	if packed {
		return wire.WriteDeltaPacked(c, commits, head)
	}
	return wire.WriteDelta(c, commits, head)
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

// reconSession is the per-connection state of a reconciliation-dialect
// exchange: set by a hello that negotiated wire.CapRecon, consulted by
// the probe and want frames that follow on the same session, reset by
// the next hello. Sessions are single-goroutine, so no locking. token
// is a store install capture armed by the hello, before its root probe
// is answered, and consumed by the want handler's export: local commits
// installed while the descent is in flight (an Apply takes only the
// store lock) would otherwise be invisible to both the probes and the
// want list, and a reply minted on top of them would graft onto commits
// the client has never heard of.
type reconSession struct {
	active    bool
	e         *objectEntry
	hello     wire.Hello
	peerPatch bool
	token     int
	// probes counts the range probes answered this exchange — the
	// server-side descent depth, observed when the want frame ends it.
	probes int
}

// release ends a live session's install capture (a no-op when the want
// handler's export already consumed it) and resets the session.
func (rs *reconSession) release() {
	if rs.active {
		rs.e.obj.EndInstallCapture(rs.token)
	}
	*rs = reconSession{}
}

// handle serves one inbound sync session. A session is a sequence of
// per-object exchanges on a single connection: each v2 hello negotiates
// and delta-syncs one named object — a hello that negotiated the recon
// dialect is instead followed by range probes and a want/delta finish on
// the same session — and the session ends when the client hangs up. A
// whole-node span probe may open a session (one frame confirms a
// converged pair). A v1 request gets the legacy one-shot exchange and
// closes the session.
//
// The handler flushes on exit, so a trailing reply or FrameErr still
// reaches the client, and the session's outcome carries its real cause:
// a refusal is a protocol violation, while a connection that failed
// under a read, a mid-session flush or the exit flush is transport
// trouble.
func (n *Node) handle(conn *countedConn) {
	start := time.Now()
	sp := n.newSpan("server", "")
	var rs reconSession
	err := n.serveSession(conn, &rs, sp)
	// A dropped connection or protocol error can abandon a session
	// mid-descent; its install capture must not keep recording forever.
	rs.release()
	if ferr := conn.w.Flush(); err == nil {
		err = ferr
	}
	sp.finish(conn.call, err)
	if m := n.metrics; m != nil {
		m.sessionNsServer.Observe(time.Since(start).Nanoseconds())
		outcome := "ok"
		if err != nil {
			outcome = failClassName(classifyFailure(err))
		}
		m.session("server", tierFromName(sp.tierName()), outcome)
	}
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
		case wire.FrameSyncRequest:
			return n.handleFull(conn, fields, sp)
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

// handleHello serves one object's v2 negotiation: answer with the local
// frontier (or a miss for unhosted objects) and, in the classic dialects,
// read the client's missing-commit delta, merge it, and stream back the
// commits the client's frontier does not dominate. A capability hello
// carries the client's capability set in its second field; the ack then
// carries ours. A client that advertised wire.CapPatch exchanges packed
// (delta-state) commit chunks in both directions. One that advertised
// wire.CapRecon sends its root range probe as a third field; if this
// node echoes the capability, the ack's third field answers that probe
// and the handler arms the session state and returns — the probe and
// want frames that follow are dispatched by handle. A node with recon
// off ignores the probe. One-field hellos are the pre-capability dialect
// and get full-state chunks.
func (n *Node) handleHello(conn *countedConn, fields [][]byte, rs *reconSession, sp *spanRec) error {
	hStart := time.Now()
	if len(fields) < 1 || len(fields) > 3 {
		return refuse(conn, "bad hello")
	}
	peerPatch, peerRecon := false, false
	if len(fields) >= 2 {
		caps, err := wire.DecodeCaps(fields[1])
		if err != nil {
			return refuseErr(conn, err)
		}
		peerPatch = caps&wire.CapPatch != 0
		peerRecon = caps&wire.CapRecon != 0 && n.reconEnabled()
	}
	var root wire.ReconRange
	if peerRecon {
		if len(fields) != 3 {
			return refuse(conn, "bad hello")
		}
		var err error
		if root, err = wire.DecodeReconRange(fields[2]); err != nil {
			return refuseErr(conn, err)
		}
	}
	hello, err := wire.DecodeHello(fields[0])
	if err != nil {
		return refuseErr(conn, err)
	}
	sp.setPeer(hello.Node)
	// Re-point byte attribution before any reply: traffic of this
	// exchange must not land on the previous exchange's object.
	conn.obj.Store(nil)
	e, ok := n.entry(hello.Object)
	if !ok {
		n.total.misses.Add(1)
		return wire.WriteMsg(conn, wire.FrameHelloMiss, []byte("object not hosted: "+hello.Object))
	}
	conn.obj.Store(&e.stats)
	if dt := e.obj.Datatype(); dt != hello.Datatype {
		n.total.misses.Add(1)
		e.stats.misses.Add(1)
		return wire.WriteMsg(conn, wire.FrameHelloMiss,
			[]byte(fmt.Sprintf("object %s is %s here, peer has %s", hello.Object, dt, hello.Datatype)))
	}

	// The frontier needs no lock — it advertises commits we have, which
	// stays true however concurrent exchanges advance the branch.
	mine, err := e.obj.Frontier()
	if err != nil {
		return refuseErr(conn, err)
	}
	caps := uint64(0)
	if peerPatch {
		caps |= wire.CapPatch
	}
	var answer []byte
	if peerRecon {
		caps |= wire.CapRecon
		// The probes resolve the exact diff, so the sampled have-set is
		// dead weight in this dialect; the head still rides along for the
		// client's converged-pair shortcut.
		mine.Have = nil
		// Arm the session's install capture before answering the root
		// probe: every commit a concurrent local Apply installs from here
		// on joins the want handler's reply, and every older one is in the
		// tree every probe of the descent reads.
		*rs = reconSession{active: true, e: e, hello: hello, peerPatch: peerPatch,
			token: e.obj.BeginInstallCapture()}
		a, err := n.answerProbe(rs, root)
		if err != nil {
			return refuseErr(conn, err)
		}
		answer = wire.EncodeReconAnswer(a)
	}
	ack := wire.Hello{Node: n.name, Object: hello.Object, Datatype: hello.Datatype, Frontier: mine}
	ackFields := [][]byte{wire.EncodeHello(ack)}
	if caps != 0 {
		ackFields = append(ackFields, wire.EncodeCaps(caps))
	}
	if answer != nil {
		ackFields = append(ackFields, answer)
	}
	if err := wire.WriteMsg(conn, wire.FrameHelloAck, ackFields...); err != nil {
		return err
	}
	if peerRecon {
		sp.phase("negotiate", hello.Object, hStart)
		return nil
	}
	commits, head, err := readDelta(conn)
	if err != nil {
		return refuseErr(conn, err)
	}

	n.lockMerge(e)
	redundant, _, err := e.obj.IntegrateExact("remote/"+hello.Node, commits, head)
	var reply []store.ExportedCommit
	var replyHead store.Hash
	if err == nil {
		reply, replyHead, err = e.obj.ExportSince(hello.Frontier.HaveSet(), peerPatch)
	}
	e.mergeMu.Unlock()
	if err != nil {
		return refuseErr(conn, err)
	}
	// Count the exchange before the reply streams out: the client may
	// read its own stats the moment its SyncWith returns, and this
	// handler goroutine has no happens-before edge past the write.
	exTier := tierPlain
	if peerPatch {
		exTier = tierPacked
	}
	for _, s := range []*syncStats{&n.total, &e.stats} {
		s.deltaSyncs.Add(1)
		s.commitsRecv.Add(int64(len(commits)))
		s.commitsSent.Add(int64(len(reply)))
		s.patchesRecv.Add(countPatches(commits))
		s.patchesSent.Add(countPatches(reply))
		s.redundantCommits.Add(int64(redundant))
		s.addTier(exTier)
	}
	sp.object(exTier)
	sp.phase("exchange", hello.Object, hStart)
	// Commits are immutable, so the materialized reply stays valid even
	// if another exchange advances the branch while it streams out.
	return writeDelta(conn, reply, replyHead, peerPatch)
}

// reconItemsCap is the range size below which a probed server
// enumerates the range instead of splitting it: recursion stops once
// enumeration is cheaper than more round trips.
const reconItemsCap = 64

// handleReconProbe answers one range-fingerprint probe with a frame of
// the answer's kind.
func (n *Node) handleReconProbe(conn *countedConn, fields [][]byte, rs *reconSession) error {
	if !rs.active || len(fields) != 1 {
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
// counts it. The answer needs no merge lock — every read of the
// fingerprint tree is consistent under the store's read lock. Both
// sides' trees may grow mid-descent; the client cuts its ship set back
// to its snapshot and the session capture covers this side, so a range
// that moved surfaces as a re-negotiation next round, never as
// corruption.
func (n *Node) answerProbe(rs *reconSession, rr wire.ReconRange) (wire.ReconAnswer, error) {
	n.total.rangesRecv.Add(1)
	rs.e.stats.rangesRecv.Add(1)
	rs.probes++
	if m := n.metrics; m != nil {
		m.rangesServer.Inc()
	}
	obj := rs.e.obj
	fp, count := obj.ReconRange(rr.X, rr.Y)
	switch {
	case fp == rr.FP && count == rr.Count:
		return wire.ReconAnswer{Kind: wire.FrameReconMatch}, nil
	case count == 0:
		return wire.ReconAnswer{Kind: wire.FrameReconEmptyRange}, nil
	case count <= reconItemsCap:
		return wire.ReconAnswer{Kind: wire.FrameReconItems, Items: obj.ReconItems(rr.X, rr.Y, count)}, nil
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
// and its delta of commits we lack, merge, and reply with exactly the
// wanted commits plus whatever merge commits the pull minted — commits
// the client cannot have, grafted onto commits it provably has, so the
// reply re-ships nothing.
func (n *Node) handleReconWant(conn *countedConn, fields [][]byte, rs *reconSession, sp *spanRec) error {
	wStart := time.Now()
	if !rs.active || len(fields) != 1 {
		return refuse(conn, "recon want outside a recon exchange")
	}
	want, err := wire.DecodeReconWant(fields[0])
	if err != nil {
		return refuseErr(conn, err)
	}
	commits, head, err := readDelta(conn)
	if err != nil {
		return refuseErr(conn, err)
	}
	e := rs.e
	n.lockMerge(e)
	track := "remote/" + rs.hello.Node
	redundant, minted, err := e.obj.IntegrateExact(track, commits, head)
	var reply []store.ExportedCommit
	var replyHead store.Hash
	if err == nil {
		ship := make(map[store.Hash]bool, len(want)+len(minted))
		for _, h := range want {
			ship[h] = true
		}
		for _, h := range minted {
			ship[h] = true
		}
		// The session capture holds everything installed since the root
		// probe was answered. Commits local Applies and other peers'
		// sessions raced in mid-descent must ship — the client's want list
		// cannot name them, yet the reply head reaches them — while
		// whatever arrived under the client's own tracking branch, here or
		// on a session that crossed this one, must not bounce back.
		reply, replyHead, err = e.obj.ExportSetCapture(ship, rs.token, track, rs.peerPatch)
	}
	e.mergeMu.Unlock()
	if err != nil {
		return refuseErr(conn, err)
	}
	// Count the exchange before the reply streams out: the client may
	// read its own stats the moment its SyncWith returns, and this
	// handler goroutine has no happens-before edge past the write.
	for _, s := range []*syncStats{&n.total, &e.stats} {
		s.deltaSyncs.Add(1)
		s.commitsRecv.Add(int64(len(commits)))
		s.commitsSent.Add(int64(len(reply)))
		s.patchesRecv.Add(countPatches(commits))
		s.patchesSent.Add(countPatches(reply))
		s.redundantCommits.Add(int64(redundant))
		s.addTier(tierRecon)
	}
	if m := n.metrics; m != nil {
		m.descent(rs.probes)
	}
	sp.object(tierRecon)
	sp.phase("ship", rs.hello.Object, wStart)
	return writeDelta(conn, reply, replyHead, rs.peerPatch)
}

// handleReconSpan answers a whole-node span probe: fold a fingerprint
// over every hosted object and reply FrameReconMatch when it equals the
// prober's — one frame confirming a converged pair — or our own span
// when it does not (the prober then runs per-object exchanges).
func (n *Node) handleReconSpan(conn *countedConn, fields [][]byte, sp *spanRec) error {
	sStart := time.Now()
	if !n.reconEnabled() || len(fields) != 1 {
		return refuse(conn, "bad request")
	}
	probe, err := wire.DecodeReconSpan(fields[0])
	if err != nil {
		return refuseErr(conn, err)
	}
	conn.obj.Store(nil)
	n.total.rangesRecv.Add(1)
	if m := n.metrics; m != nil {
		m.rangesServer.Inc()
	}
	names := n.Objects()
	mine := n.nodeSpan(names)
	if mine == probe {
		// Mirror the client's accounting: a matching span completes one
		// converged exchange per hosted object.
		for _, name := range names {
			if e, ok := n.entry(name); ok {
				e.stats.deltaSyncs.Add(1)
				e.stats.addTier(tierRecon)
			}
			n.total.deltaSyncs.Add(1)
			n.total.addTier(tierRecon)
		}
		if m := n.metrics; m != nil {
			m.spanMatch.Inc()
		}
		sp.objects(tierRecon, len(names))
		sp.phase("span-probe", "", sStart)
		return wire.WriteMsg(conn, wire.FrameReconMatch)
	}
	if m := n.metrics; m != nil {
		m.spanDiff.Inc()
	}
	sp.phase("span-probe", "", sStart)
	return wire.WriteMsg(conn, wire.FrameReconSpan, wire.EncodeReconSpan(mine))
}

// nodeSpan folds the named objects, at their live heads, into one
// digest (see foldSpan).
func (n *Node) nodeSpan(names []string) wire.ReconSpan {
	var sp wire.ReconSpan
	for _, name := range names {
		if e, ok := n.entry(name); ok {
			head, _ := e.obj.Head()
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
	root, count := e.obj.ReconRoot()
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

// handleFull serves the legacy v1 exchange: import the client's whole
// history for one object, merge it, reply with the merged whole history.
// The request names its object and datatype in third and fourth fields;
// the two-field form predates object naming and resolves to the node's
// sole object with no datatype check (pre-multi-object peers cannot send
// one).
func (n *Node) handleFull(conn *countedConn, fields [][]byte, sp *spanRec) error {
	fStart := time.Now()
	var peer, object, datatype string
	var payload []byte
	switch len(fields) {
	case 2:
		peer, payload = string(fields[0]), fields[1]
		var ok bool
		if object, _, ok = n.soleEntry(); !ok {
			if len(n.Objects()) == 0 {
				return refuse(conn, "no objects hosted")
			}
			return refuse(conn, "object name required: node hosts several objects")
		}
	case 4:
		peer, object, datatype = string(fields[0]), string(fields[1]), string(fields[2])
		payload = fields[3]
	default:
		return refuse(conn, "bad request")
	}
	e, ok := n.entry(object)
	if !ok {
		return refuse(conn, "object not hosted: "+object)
	}
	if datatype != "" {
		if dt := e.obj.Datatype(); dt != datatype {
			return refuse(conn, fmt.Sprintf("object %s is %s here, peer has %s", object, dt, datatype))
		}
	}
	conn.obj.Store(&e.stats)
	commits, head, err := wire.DecodeCommitList(payload)
	if err != nil {
		return refuseErr(conn, err)
	}

	n.lockMerge(e)
	_, _, err = e.obj.IntegrateExact("remote/"+peer, commits, head)
	var reply []store.ExportedCommit
	var replyHead store.Hash
	if err == nil {
		reply, replyHead, err = e.obj.Export()
	}
	e.mergeMu.Unlock()
	if err != nil {
		return refuseErr(conn, err)
	}
	for _, s := range []*syncStats{&n.total, &e.stats} {
		s.fullSyncs.Add(1)
		s.commitsRecv.Add(int64(len(commits)))
		s.commitsSent.Add(int64(len(reply)))
		s.addTier(tierV1)
	}
	sp.setPeer(peer)
	sp.object(tierV1)
	sp.phase("exchange", object, fStart)
	return wire.WriteMsg(conn, wire.FrameSyncResponse, wire.EncodeCommitList(reply, replyHead))
}

// SyncWith synchronizes every object this node hosts with the peer
// listening at addr, over a single connection: per object, the peer
// merges this node's missing commits into its branch, and this node then
// merges the peer's reply delta (usually a fast-forward, since the reply
// is computed after the peer merged). Objects the peer does not host (or
// hosts under a different datatype) are skipped and counted in Misses.
// The session ships what this node held when it connected; commits made
// on either side while it runs are not waited for and travel with the
// next push or round. Between quiescent nodes a successful exchange
// leaves both with equal states on every shared object. Negotiation
// runs richest-first: the packed delta
// protocol (capability hellos, patch-bearing commit chunks), then the
// plain delta protocol (full-state chunks, for peers that predate
// capabilities), then the legacy full-history protocol, one connection
// per object.
func (n *Node) SyncWith(addr string) error {
	_, err := n.syncPeer(context.Background(), addr, nil)
	return err
}

// MeshSync implements mesh.Syncer: it is the daemon's entry into the
// exact code path SyncWith uses, restricted to the named objects (nil
// means every hosted object) and abortable through ctx. The returned
// Report is meaningful even on error — partial byte counts still feed
// the per-peer mesh stats.
func (n *Node) MeshSync(ctx context.Context, addr string, objects []string) (mesh.Report, error) {
	return n.syncPeer(ctx, addr, objects)
}

// peerLock returns the mutex serializing exchanges with addr: a manual
// SyncWith and a daemon round aimed at the same peer take turns instead
// of running duplicate concurrent sessions.
func (n *Node) peerLock(addr string) *sync.Mutex {
	mu, _ := n.peerMus.LoadOrStore(addr, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// syncPeer runs one client exchange with addr over the negotiation
// ladder, taking turns per peer address. The session ships from the
// snapshot syncDelta takes after the dial and, that turn aside, holds
// no lock across its round trips (see the package comment), so neither
// local commits nor inbound sessions wait for it, and an unreachable
// peer costs its supervisor a dial timeout and nothing else.
func (n *Node) syncPeer(ctx context.Context, addr string, objects []string) (_ mesh.Report, retErr error) {
	lock := n.peerLock(addr)
	lock.Lock()
	defer lock.Unlock()
	names := objects
	if names == nil {
		names = n.Objects()
	}
	var call callState
	report := func(missed []string) mesh.Report {
		s := call.stats.snapshot()
		return mesh.Report{
			BytesSent:   s.BytesSent,
			BytesRecv:   s.BytesRecv,
			CommitsSent: s.CommitsSent,
			CommitsRecv: s.CommitsRecv,
			Missed:      missed,
		}
	}
	if len(names) == 0 {
		return report(nil), nil
	}
	start := time.Now()
	call.span = n.newSpan("client", addr)
	defer func() {
		call.span.finish(&call.stats, retErr)
		if m := n.metrics; m != nil {
			m.sessionNsClient.Observe(time.Since(start).Nanoseconds())
			outcome := "ok"
			if retErr != nil {
				outcome = failClassName(classifyFailure(retErr))
			}
			m.session("client", call.tier, outcome)
		}
	}()
	// A protocol violation poisons the rich-dialect memos: the next round
	// renegotiates from the bottom of the ladder instead of trusting
	// session state learned from a peer that just broke the protocol.
	// Transient failures keep the memos — a peer that is merely down
	// resumes its negotiated dialect on reconnect.
	defer func() {
		if retErr != nil && classifyFailure(retErr) == mesh.FailViolation {
			n.reconPeers.Delete(addr)
		}
	}()
	if !n.fullOnly.Load() {
		if _, plain := n.plainPeers.Load(addr); !plain {
			// The whole-node span probe is only worth a frame when every
			// hosted object is in scope (the server folds over all of its
			// objects) and the peer is memo-known to speak recon.
			spanOK := objects == nil
			missed, err := n.syncDelta(ctx, addr, names, true, spanOK, &call)
			if errors.Is(err, errSpanRetry) {
				// The peer refused the span probe (downgraded in place);
				// the memo is already cleared — retry the same dialect on
				// a fresh connection, without the span opening.
				missed, err = n.syncDelta(ctx, addr, names, true, false, &call)
			}
			if err == nil || !errors.Is(err, errFallback) {
				return report(missed), err
			}
			// The peer refused the capability hello outright (and closed
			// the session): remember that and retry the pre-capability
			// dialect on a fresh connection before abandoning delta sync
			// entirely.
			n.plainPeers.Store(addr, struct{}{})
		}
		missed, err := n.syncDelta(ctx, addr, names, false, false, &call)
		if err == nil || !errors.Is(err, errFallback) {
			return report(missed), err
		}
		n.total.fallbacks.Add(1)
	}
	for _, object := range names {
		if err := n.syncFull(ctx, addr, object, len(names) == 1, &call); err != nil {
			return report(nil), err
		}
	}
	return report(nil), nil
}

// errSpanRetry marks a span probe the peer refused: the recon memo was
// stale and has been cleared; the caller retries the session without the
// span opening.
var errSpanRetry = errors.New("replica: span probe refused")

// sessionObject is one object in a client session's scope together with
// the snapshot the session ships from: the branch head at connect time
// and the capture token recording every commit installed since.
type sessionObject struct {
	name  string
	e     *objectEntry
	head  store.Hash
	token int
}

// snapshotScope snapshots every named object the node still hosts.
func (n *Node) snapshotScope(names []string) ([]sessionObject, error) {
	scope := make([]sessionObject, 0, len(names))
	for _, name := range names {
		e, ok := n.entry(name)
		if !ok {
			continue // removed concurrently; nothing to sync
		}
		head, token, err := e.obj.Snapshot()
		if err != nil {
			releaseScope(scope)
			return nil, err
		}
		scope = append(scope, sessionObject{name: name, e: e, head: head, token: token})
	}
	return scope, nil
}

// releaseScope ends the capture tokens no export consumed.
func releaseScope(scope []sessionObject) {
	for _, so := range scope {
		so.e.obj.EndInstallCapture(so.token)
	}
}

// syncDelta runs the client side of a v2 session: one connection, one
// negotiate-and-ship-missing exchange per object. withCaps selects the
// capability dialects (capability hello; patch commits and range
// reconciliation when the peer acks them). When spanOK and the peer is
// memo-known to speak recon, the session opens with a whole-node span
// probe: a match ends the round after two frames — the converged mesh
// pair's steady-state cost. A failure of the first hello is reported as
// errFallback (the peer predates the dialect); failures after that are
// real errors. The returned list names the objects the peer answered
// with a miss — the mesh daemon uses it to learn which objects a peer
// is interested in.
func (n *Node) syncDelta(ctx context.Context, addr string, names []string, withCaps, spanOK bool, call *callState) ([]string, error) {
	reconKnown := false
	if withCaps && n.reconEnabled() {
		_, reconKnown = n.reconPeers.Load(addr)
	}
	conn, err := n.dialPeer(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	c := n.newConn(conn, &call.stats)

	// The snapshot precedes the first frame: everything this session
	// ships existed now, however many round trips it takes.
	scope, err := n.snapshotScope(names)
	if err != nil {
		return nil, err
	}
	defer releaseScope(scope)

	if reconKnown && spanOK {
		done, err := n.syncSpan(c, addr, scope, call)
		if err != nil {
			return nil, err
		}
		if done {
			return nil, nil
		}
	}
	var missed []string
	for i, so := range scope {
		c.obj.Store(&so.e.stats)
		miss, err := n.syncObjectDelta(c, addr, so, i == 0, withCaps, reconKnown, call)
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
// matched (nothing to sync anywhere), and errSpanRetry — after clearing
// the recon memo — when the peer refused the frame. A transport error
// is returned as it is and keeps the memo: a peer that is merely down
// resumes its dialect on reconnect, and a retry would only pay a second
// dial against it.
func (n *Node) syncSpan(c *countedConn, addr string, scope []sessionObject, call *callState) (done bool, _ error) {
	pStart := time.Now()
	n.total.rangesSent.Add(1)
	if m := n.metrics; m != nil {
		m.rangesClient.Inc()
	}
	var sp wire.ReconSpan
	for _, so := range scope {
		foldSpan(&sp, so.name, so.e, so.head)
	}
	if err := wire.WriteMsg(c, wire.FrameReconSpan, wire.EncodeReconSpan(sp)); err != nil {
		return false, err
	}
	kind, _, err := wire.ReadMsg(c)
	switch {
	case err != nil:
		return false, err
	case kind == wire.FrameErr:
		n.reconPeers.Delete(addr)
		return false, errSpanRetry
	case kind == wire.FrameReconMatch:
		// One converged exchange per object, resolved in aggregate: the
		// per-object counters tick exactly as if each object had run its
		// own (trivial) exchange.
		for _, so := range scope {
			so.e.stats.deltaSyncs.Add(1)
			so.e.stats.addTier(tierRecon)
			n.total.deltaSyncs.Add(1)
			n.total.addTier(tierRecon)
		}
		if m := n.metrics; m != nil {
			m.spanMatch.Inc()
		}
		call.tier = tierRecon
		call.span.objects(tierRecon, len(scope))
		call.span.phase("span-probe", "", pStart)
		return true, nil
	case kind == wire.FrameReconSpan:
		if m := n.metrics; m != nil {
			m.spanDiff.Inc()
		}
		call.span.phase("span-probe", "", pStart)
		return false, nil // differs somewhere; run the per-object ladder
	default:
		return false, fmt.Errorf("%w: unexpected span reply kind %d", ErrProtocol, kind)
	}
}

// syncObjectDelta negotiates and transfers one object on an open
// session. It reports miss=true when the peer answered the hello with
// "object not hosted here" (the session stays usable for the next
// object). A peer that echoes wire.CapRecon gets the reconciliation
// exchange, shipped from the session's snapshot; the classic frontier
// exchange needs none — its export is one atomic read of the commits
// above the peer's frontier and the head they lead to.
func (n *Node) syncObjectDelta(c *countedConn, addr string, so sessionObject, first, withCaps, reconKnown bool, call *callState) (miss bool, _ error) {
	object, e := so.name, so.e
	negStart := time.Now()
	// A memo-known recon peer resolves the diff by probing, so the hello
	// carries only the snapshot head. Should the memo prove stale (the
	// peer downgraded in place), the classic exchange still works off the
	// bare head — it just re-ships more.
	mine := store.Frontier{Head: so.head}
	var err error
	if !reconKnown {
		if mine, err = e.obj.Frontier(); err != nil {
			return false, err
		}
	}
	hello := wire.Hello{Node: n.name, Object: object, Datatype: e.obj.Datatype(), Frontier: mine}
	fields := [][]byte{wire.EncodeHello(hello)}
	offerRecon := withCaps && n.reconEnabled()
	switch {
	case offerRecon:
		// Offering recon, the hello carries the root probe — the live
		// fingerprint and count of the whole keyspace — so the ack's
		// answer already starts the descent one level down.
		fp, count := e.obj.ReconRange(recon.Item{}, recon.Item{})
		fields = append(fields, wire.EncodeCaps(wire.CapPatch|wire.CapRecon),
			wire.EncodeReconRange(wire.ReconRange{FP: fp, Count: count}))
	case withCaps:
		fields = append(fields, wire.EncodeCaps(wire.CapPatch))
	}
	if err := wire.WriteMsg(c, wire.FrameHello, fields...); err != nil {
		if first {
			return false, fmt.Errorf("%w: %v", errFallback, err)
		}
		return false, err
	}
	kind, fields, err := wire.ReadMsg(c)
	switch {
	case err != nil:
		if first {
			return false, fmt.Errorf("%w: %v", errFallback, err)
		}
		return false, err
	case kind == wire.FrameHelloMiss:
		// Peer does not host this object (or hosts it as another type).
		n.total.misses.Add(1)
		e.stats.misses.Add(1)
		return true, nil
	case kind == wire.FrameErr:
		if first {
			return false, fmt.Errorf("%w: peer refused hello", errFallback)
		}
		return false, fmt.Errorf("%w: peer refused hello for object %s", ErrProtocol, object)
	case kind != wire.FrameHelloAck || len(fields) < 1 || len(fields) > 3:
		if first {
			return false, fmt.Errorf("%w: unexpected reply kind %d", errFallback, kind)
		}
		return false, fmt.Errorf("%w: unexpected reply kind %d", ErrProtocol, kind)
	}
	// The peer speaks the packed (and recon) dialects iff it echoed them
	// in a capability field (it never volunteers one to a pre-capability
	// hello). An ack that echoes recon answers the root probe in its
	// third field, and only such an ack has one.
	peerPatch, peerRecon := false, false
	if len(fields) >= 2 {
		caps, err := wire.DecodeCaps(fields[1])
		if err != nil {
			return false, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		peerPatch = withCaps && caps&wire.CapPatch != 0
		peerRecon = offerRecon && caps&wire.CapRecon != 0
	}
	if peerRecon != (len(fields) == 3) {
		return false, fmt.Errorf("%w: hello ack with %d fields", ErrProtocol, len(fields))
	}
	ack, err := wire.DecodeHello(fields[0])
	if err != nil {
		if first {
			return false, fmt.Errorf("%w: %v", errFallback, err)
		}
		return false, err
	}
	if ack.Object != object {
		return false, fmt.Errorf("%w: peer acked object %q, want %q", ErrProtocol, ack.Object, object)
	}
	if peerRecon {
		root, err := wire.DecodeReconAnswer(fields[2])
		if err != nil {
			return false, fmt.Errorf("%w: root answer: %w", ErrProtocol, err)
		}
		n.reconPeers.Store(addr, struct{}{})
		call.span.phase("negotiate", object, negStart)
		return false, n.syncObjectRecon(c, so, ack, root, peerPatch, call)
	}
	call.span.phase("negotiate", object, negStart)

	shipStart := time.Now()
	commits, head, err := e.obj.ExportSince(ack.Frontier.HaveSet(), peerPatch)
	if err != nil {
		return false, err
	}
	if err := writeDelta(c, commits, head, peerPatch); err != nil {
		return false, err
	}
	call.span.phase("ship", object, shipStart)
	importStart := time.Now()
	reply, replyHead, err := readDelta(c)
	if err != nil {
		return false, err
	}
	redundant, err := n.integrateReply(e, "remote/"+ack.Node, reply, replyHead)
	if err != nil {
		return false, err
	}
	exTier := tierPlain
	if peerPatch {
		exTier = tierPacked
	}
	for _, s := range []*syncStats{&n.total, &e.stats} {
		s.deltaSyncs.Add(1)
		s.commitsSent.Add(int64(len(commits)))
		s.commitsRecv.Add(int64(len(reply)))
		s.patchesSent.Add(countPatches(commits))
		s.patchesRecv.Add(countPatches(reply))
		s.redundantCommits.Add(int64(redundant))
		s.addTier(exTier)
	}
	call.object(exTier)
	call.span.phase("import", object, importStart)
	return false, nil
}

// integrateReply merges a peer's reply into the node branch — whatever
// head it has by now — under the object's merge lock.
func (n *Node) integrateReply(e *objectEntry, track string, reply []store.ExportedCommit, head store.Hash) (redundant int, _ error) {
	n.lockMerge(e)
	defer e.mergeMu.Unlock()
	redundant, _, err := e.obj.IntegrateExact(track, reply, head)
	return redundant, err
}

// syncObjectRecon runs the client side of one object's reconciliation
// exchange, after the hello ack echoed wire.CapRecon and answered the
// root probe the hello carried. The client drives a lock-step descent
// over hash ranges: probe a range with its local fingerprint and count,
// and on mismatch either receive the server's items (small ranges —
// diffed locally into want and ship lists) or a split into two
// fingerprinted halves (matching halves are discarded locally, differing
// ones probed in turn). The descent terminates — every split strictly
// halves the server's range — and resolves the exact symmetric
// difference in O(diff · log n) frames. A want list and one delta in
// each direction then ship precisely the missing commits; the server's
// reply adds only the merge commits its pull minted.
//
// The descent reads the live fingerprint tree, which local commits and
// inbound sessions keep growing; what ships is the resolved set cut back
// to the session's snapshot (ExportSetAsOf), under the snapshot's head.
// Every ancestor of that head predates the snapshot and so was in the
// tree for every probe: the batch grafts onto what the peer holds.
func (n *Node) syncObjectRecon(c *countedConn, so sessionObject, ack wire.Hello, root wire.ReconAnswer, peerPatch bool, call *callState) error {
	object, e := so.name, so.e
	type keyRange struct{ x, y recon.Item }
	var work []keyRange
	var want []store.Hash
	ship := make(map[store.Hash]bool)
	descStart, probes := time.Now(), 0
	countProbe := func() {
		n.total.rangesSent.Add(1)
		e.stats.rangesSent.Add(1)
		probes++
		if m := n.metrics; m != nil {
			m.rangesClient.Inc()
		}
	}
	shipRange := func(x, y recon.Item) {
		for _, it := range e.obj.ReconItems(x, y, -1) {
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
				if !e.obj.HasCommit(it.Addr()) {
					want = append(want, it.Addr())
				}
			}
			for _, it := range e.obj.ReconItems(r.x, r.y, -1) {
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
				lfp, lcount := e.obj.ReconRange(half.x, half.y)
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
		fp, count := e.obj.ReconRange(r.x, r.y)
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
			msg := "unspecified"
			if len(fields) > 0 {
				msg = string(fields[0])
			}
			return fmt.Errorf("%w: peer: %s", ErrProtocol, msg)
		}
		a, err := wire.ParseReconAnswer(kind, fields)
		if err != nil {
			return fmt.Errorf("%w: recon descent: %w", ErrProtocol, err)
		}
		settle(r, a)
	}
	call.span.phase("descend", object, descStart)
	if m := n.metrics; m != nil {
		m.descent(probes)
	}
	// What ships is the resolved set as of the snapshot; commits younger
	// than the session ride the push their NotifyCommit already queued.
	shipStart := time.Now()
	commits, err := e.obj.ExportSetAsOf(so.head, ship, so.token, peerPatch)
	if err != nil {
		return err
	}
	// Converged shortcut: equal sets and equal heads need no delta phase
	// at all — the whole re-sync was the hello, its root probe and the
	// ack's answer. (Equal sets with
	// differing branch heads still run the empty-delta exchange below,
	// which resolves the heads by pulling each other's.)
	if len(want) == 0 && len(commits) == 0 && ack.Frontier.Head == so.head {
		for _, s := range []*syncStats{&n.total, &e.stats} {
			s.deltaSyncs.Add(1)
			s.addTier(tierRecon)
		}
		call.object(tierRecon)
		return nil
	}
	if err := wire.WriteMsg(c, wire.FrameReconWant, wire.EncodeReconWant(want)); err != nil {
		return err
	}
	if err := writeDelta(c, commits, so.head, peerPatch); err != nil {
		return err
	}
	call.span.phase("ship", object, shipStart)
	importStart := time.Now()
	reply, replyHead, err := readDelta(c)
	if err != nil {
		return err
	}
	redundant, err := n.integrateReply(e, "remote/"+ack.Node, reply, replyHead)
	if err != nil {
		return err
	}
	for _, s := range []*syncStats{&n.total, &e.stats} {
		s.deltaSyncs.Add(1)
		s.commitsSent.Add(int64(len(commits)))
		s.commitsRecv.Add(int64(len(reply)))
		s.patchesSent.Add(countPatches(commits))
		s.patchesRecv.Add(countPatches(reply))
		s.redundantCommits.Add(int64(redundant))
		s.addTier(tierRecon)
	}
	call.object(tierRecon)
	call.span.phase("import", object, importStart)
	return nil
}

// syncFull runs the client side of the legacy v1 exchange for one
// object: ship the whole branch history, merge the peer's whole merged
// history from the reply. The named (four-field) request form is tried
// first — it carries the object and datatype, so multi-object peers
// resolve and type-check it; if the peer refuses it and this node hosts
// a single object, the original two-field form is retried on a fresh
// connection for interop with pre-multi-object peers.
func (n *Node) syncFull(ctx context.Context, addr string, object string, sole bool, call *callState) error {
	e, ok := n.entry(object)
	if !ok {
		return nil
	}
	err := n.syncFullOnce(ctx, addr, object, e, true, call)
	if err != nil && sole && errors.Is(err, errLegacyRequest) {
		return n.syncFullOnce(ctx, addr, object, e, false, call)
	}
	return err
}

// errLegacyRequest marks a v1 request the peer could not even parse —
// the answer a pre-multi-object node gives the named request form, and
// the one failure where retrying with the legacy two-field form can
// help. Semantic refusals (unknown object, datatype mismatch) do not
// qualify: retrying those through the unchecked legacy form would
// bypass the datatype check.
var errLegacyRequest = errors.New("replica: peer cannot parse request")

// syncFullOnce runs one v1 exchange on its own connection, using the
// named request form when named is true.
func (n *Node) syncFullOnce(ctx context.Context, addr, object string, e *objectEntry, named bool, call *callState) error {
	conn, err := n.dialPeer(ctx, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	c := n.newConn(conn, &call.stats)
	c.obj.Store(&e.stats)

	exStart := time.Now()
	commits, head, err := e.obj.Export()
	if err != nil {
		return err
	}
	payload := wire.EncodeCommitList(commits, head)
	if named {
		err = wire.WriteMsg(c, wire.FrameSyncRequest,
			[]byte(n.name), []byte(object), []byte(e.obj.Datatype()), payload)
	} else {
		err = wire.WriteMsg(c, wire.FrameSyncRequest, []byte(n.name), payload)
	}
	if err != nil {
		return err
	}
	kind, fields, err := wire.ReadMsg(c)
	if err != nil {
		return err
	}
	if kind == wire.FrameErr {
		msg := "unspecified"
		if len(fields) > 0 {
			msg = string(fields[0])
		}
		if msg == "bad request" {
			return fmt.Errorf("%w: %w", ErrProtocol, errLegacyRequest)
		}
		return fmt.Errorf("%w: peer: %s", ErrProtocol, msg)
	}
	if kind != wire.FrameSyncResponse || len(fields) != 1 {
		return fmt.Errorf("%w: unexpected message kind %d", ErrProtocol, kind)
	}
	peerCommits, peerHead, err := wire.DecodeCommitList(fields[0])
	if err != nil {
		return err
	}
	if _, err := n.integrateReply(e, "remote/peer@"+addr, peerCommits, peerHead); err != nil {
		return err
	}
	for _, s := range []*syncStats{&n.total, &e.stats} {
		s.fullSyncs.Add(1)
		s.commitsSent.Add(int64(len(commits)))
		s.commitsRecv.Add(int64(len(peerCommits)))
		s.addTier(tierV1)
	}
	call.object(tierV1)
	call.span.phase("exchange", object, exStart)
	return nil
}

var _ io.ReadWriter = (*countedConn)(nil)
