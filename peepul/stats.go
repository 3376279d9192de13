package peepul

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// SyncStats counts a node's (or one object's) sync traffic, across both
// client and server roles. It is a view over the node's metrics
// registry: each field sums the series of one kind of event (see
// Metrics), over the whole node for Stats and over one object's series
// for ObjectStats. The node's
// aggregate covers both directions of every connection the node took
// part in; per-object stats attribute commits exactly and bytes to the
// object whose exchange was in flight when they crossed the wire. Commit
// counts are commits shipped, before content-address deduplication on
// the receiving side.
type SyncStats struct {
	BytesSent   int64
	BytesRecv   int64
	CommitsSent int64
	CommitsRecv int64
	// DeltaSyncs counts completed per-object exchanges, one per role (a
	// two-node exchange increments each node once).
	DeltaSyncs int64
	// Misses counts hellos answered with "object not hosted here".
	Misses int64
	// PatchesSent and PatchesRecv count commits that crossed the wire as
	// binary patches rather than full states.
	PatchesSent int64
	PatchesRecv int64
	// RangesSent and RangesRecv count reconciliation range probes, by
	// role: probes this node issued as a client and probes it answered
	// as a server — the whole-node span probe, the root probe a hello
	// carries (counted once the ack answers it) and every probe of the
	// descent. A converged pair exchanges exactly one (the span) per
	// re-sync.
	RangesSent int64
	RangesRecv int64
	// RedundantCommits counts received commits that were already present.
	// Reconciliation resolves the exact difference, so this stays at zero
	// unless two sessions crossed (see the package comment).
	RedundantCommits int64
	// InboundShed counts inbound connections closed unserved because the
	// concurrent-session cap (WithMaxInbound) was reached.
	InboundShed int64
}

// The sync sessions' traffic series. Each is labelled object, except for
// traffic no exchange owns (span probes, hellos for objects not hosted
// here), and on the dial side peer, the dialled address; MeshStats reads
// a peer's byte and commit totals back from the first two. Shed
// connections belong to neither and are one unlabelled series.
const (
	bytesSeries     = "peepul_replica_bytes_total"
	commitsSeries   = "peepul_replica_commits_total"
	patchesSeries   = "peepul_replica_patches_total"
	exchangesSeries = "peepul_replica_exchanges_total"
	missesSeries    = "peepul_replica_misses_total"
	redundantSeries = "peepul_replica_redundant_commits_total"
	rangesSeries    = "peepul_recon_ranges_total"
	shedSeries      = "peepul_replica_inbound_shed_total"
)

// flow is the set of series one object's traffic with one peer ticks,
// resolved once per pair and cached, so that counting a raw read or
// write costs one atomic add.
type flow struct {
	bytesSent, bytesRecv         *obs.Counter
	commitsSent, commitsRecv     *obs.Counter
	patchesSent, patchesRecv     *obs.Counter
	rangesSent, rangesRecv       *obs.Counter
	exchanges, misses, redundant *obs.Counter
}

func newFlow(reg *obs.Registry, labels []string) *flow {
	c := func(name string, kv ...string) *obs.Counter {
		return reg.Counter(name, append(kv, labels...)...)
	}
	return &flow{
		bytesSent:   c(bytesSeries, "dir", "sent"),
		bytesRecv:   c(bytesSeries, "dir", "recv"),
		commitsSent: c(commitsSeries, "dir", "sent"),
		commitsRecv: c(commitsSeries, "dir", "recv"),
		patchesSent: c(patchesSeries, "dir", "sent"),
		patchesRecv: c(patchesSeries, "dir", "recv"),
		rangesSent:  c(rangesSeries, "role", "client"),
		rangesRecv:  c(rangesSeries, "role", "server"),
		exchanges:   c(exchangesSeries),
		misses:      c(missesSeries),
		redundant:   c(redundantSeries),
	}
}

// flow returns the series of e's traffic with peer: a nil e is traffic
// no exchange owns, and peer "" an inbound session, whose dial address
// this side never learns.
func (n *Node) flow(e *objectEntry, peer string) *flow {
	cache, labels := &n.flows, []string(nil)
	if e != nil {
		cache, labels = &e.flows, []string{"object", e.name}
	}
	if f, ok := cache.Load(peer); ok {
		return f.(*flow)
	}
	if peer != "" {
		labels = append(labels, "peer", peer)
	}
	f, _ := cache.LoadOrStore(peer, newFlow(n.metrics.reg, labels))
	return f.(*flow)
}

// shipped counts one delta or batch of commits sent.
func (f *flow) shipped(commits []store.ExportedCommit) {
	f.commitsSent.Add(int64(len(commits)))
	f.patchesSent.Add(countPatches(commits))
}

// landed counts one delta or batch of commits received, redundant of
// which were already present.
func (f *flow) landed(commits []store.ExportedCommit, redundant int) {
	f.commitsRecv.Add(int64(len(commits)))
	f.patchesRecv.Add(countPatches(commits))
	f.redundant.Add(int64(redundant))
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

// stats sums the node's traffic series whose labels include match.
func (m *nodeMetrics) stats(match ...string) SyncStats {
	sum := func(name string, kv ...string) int64 {
		return m.reg.Sum(name, append(kv, match...)...)
	}
	return SyncStats{
		BytesSent:        sum(bytesSeries, "dir", "sent"),
		BytesRecv:        sum(bytesSeries, "dir", "recv"),
		CommitsSent:      sum(commitsSeries, "dir", "sent"),
		CommitsRecv:      sum(commitsSeries, "dir", "recv"),
		DeltaSyncs:       sum(exchangesSeries),
		Misses:           sum(missesSeries),
		PatchesSent:      sum(patchesSeries, "dir", "sent"),
		PatchesRecv:      sum(patchesSeries, "dir", "recv"),
		RangesSent:       sum(rangesSeries, "role", "client"),
		RangesRecv:       sum(rangesSeries, "role", "server"),
		RedundantCommits: sum(redundantSeries),
		InboundShed:      sum(shedSeries),
	}
}

// Stats returns the node's aggregate sync counters.
func (n *Node) Stats() SyncStats { return n.metrics.stats() }

// ObjectStats returns one object's sync counters (zero for objects the
// node does not host).
func (n *Node) ObjectStats(object string) SyncStats {
	if _, ok := n.entry(object); !ok {
		return SyncStats{}
	}
	return n.metrics.stats("object", object)
}
