package replica

import (
	"sync/atomic"

	"repro/internal/store"
)

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

type syncStats struct {
	bytesSent, bytesRecv     atomic.Int64
	commitsSent, commitsRecv atomic.Int64
	deltaSyncs, misses       atomic.Int64
	patchesSent, patchesRecv atomic.Int64
	rangesSent, rangesRecv   atomic.Int64
	redundantCommits         atomic.Int64
	inboundShed              atomic.Int64
}

func (s *syncStats) snapshot() SyncStats {
	return SyncStats{
		BytesSent:        s.bytesSent.Load(),
		BytesRecv:        s.bytesRecv.Load(),
		CommitsSent:      s.commitsSent.Load(),
		CommitsRecv:      s.commitsRecv.Load(),
		DeltaSyncs:       s.deltaSyncs.Load(),
		Misses:           s.misses.Load(),
		PatchesSent:      s.patchesSent.Load(),
		PatchesRecv:      s.patchesRecv.Load(),
		RangesSent:       s.rangesSent.Load(),
		RangesRecv:       s.rangesRecv.Load(),
		RedundantCommits: s.redundantCommits.Load(),
		InboundShed:      s.inboundShed.Load(),
	}
}

// callState is one client exchange's in-flight context: the byte and
// commit counters feeding the mesh Report, and the flight-recorder span.
// span is nil (and every use of it a no-op) when the node runs without
// observability.
type callState struct {
	stats syncStats
	span  *spanRec
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
