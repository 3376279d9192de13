package store

// Store-layer observability: apply, merge, pull and integrate latency,
// the phase split of storing one state (encode, hash, delta), LCA walk
// effort, the decoded states the head sets hold (held) with the hit
// ratio of reads of them, and that of the one-slot reassembly cache. All
// instruments hang off the obs.Registry handed in with WithObs, or a
// private one the store makes without it. Instruments are looked up by
// name, so several stores on one node (one per replicated object) share
// the same series.

import (
	"time"

	"repro/internal/obs"
)

// storePhase is one step of storing a state (putState → packLocked).
type storePhase int

const (
	phaseEncode storePhase = iota // codec.Encode of the new state
	phaseHash                     // the encoding's address (addr.go)
	phaseDelta                    // materializing the base and diffing against it
	numStorePhases
)

var storePhaseNames = [numStorePhases]string{"encode", "hash", "delta"}

type storeMetrics struct {
	applyNs     *obs.Histogram
	phaseNs     [numStorePhases]*obs.Histogram
	pullNs      *obs.Histogram
	mergeNs     *obs.Histogram
	integrateNs *obs.Histogram
	lcaSteps    *obs.Counter
	cacheHit    *obs.Counter
	cacheMiss   *obs.Counter
	reasmHit    *obs.Counter
	reasmMiss   *obs.Counter
	hashBytes   *obs.Counter
	// The write path's work in bytes: encodings produced, the part of
	// them the codec wrote, the part it reported shared with the parent's
	// encoding, and what delta.MakeShared read to diff them.
	encodedBytes  *obs.Counter
	encodeWritten *obs.Counter
	encodeCopied  *obs.Counter
	deltaCompared *obs.Counter
	residentBytes *obs.Gauge
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	m := &storeMetrics{
		applyNs:       reg.Histogram("peepul_store_apply_ns", obs.LatencyBuckets),
		pullNs:        reg.Histogram("peepul_store_pull_ns", obs.LatencyBuckets),
		mergeNs:       reg.Histogram("peepul_store_merge_ns", obs.LatencyBuckets),
		integrateNs:   reg.Histogram("peepul_store_integrate_ns", obs.LatencyBuckets),
		lcaSteps:      reg.Counter("peepul_store_lca_steps_total"),
		cacheHit:      reg.Counter("peepul_store_state_cache_total", "result", "hit"),
		cacheMiss:     reg.Counter("peepul_store_state_cache_total", "result", "miss"),
		residentBytes: reg.Gauge("peepul_store_resident_state_bytes"),
		reasmHit:      reg.Counter("peepul_store_reassembly_total", "result", "hit"),
		reasmMiss:     reg.Counter("peepul_store_reassembly_total", "result", "miss"),
		hashBytes:     reg.Counter("peepul_store_state_hash_bytes_total"),
		encodedBytes:  reg.Counter("peepul_store_encoded_bytes_total"),
		encodeWritten: reg.Counter("peepul_store_encode_written_bytes_total"),
		encodeCopied:  reg.Counter("peepul_store_encode_copied_bytes_total"),
		deltaCompared: reg.Counter("peepul_store_delta_compared_bytes_total"),
	}
	for p, name := range storePhaseNames {
		m.phaseNs[p] = reg.Histogram("peepul_store_put_state_ns", obs.LatencyBuckets, "phase", name)
	}
	reg.Describe("peepul_store_apply_ns", "wall time of one operation commit (Apply) under the store lock: Do, put state, put commit, persist")
	reg.Describe("peepul_store_put_state_ns", "wall time of one phase of storing a state, for operation and merge commits: encode, hash (the state's address, from its base's chunk tree where one is at hand), delta (base reassembly + the diff, delta.MakeShared)")
	reg.Describe("peepul_store_pull_ns", "wall time of one head-set union, a Pull's or an Integrate's: both sets less every dominated member")
	reg.Describe("peepul_store_merge_ns", "wall time of one three-way data type merge: one step of a head set's canonical fold")
	reg.Describe("peepul_store_integrate_ns", "wall time one Integrate holds the store's write lock: a peer batch's import plus the union that lands it")
	reg.Describe("peepul_store_lca_steps_total", "commits popped by the generation-ordered DAG walks: merge-base searches and head-set reductions")
	reg.Describe("peepul_store_state_cache_total", "decoded-state reads by result: hit, a state or fold a head set pins, already decoded; miss, a state materialized and decoded from the pack")
	reg.Describe("peepul_store_resident_state_bytes", "encoded bytes of the decoded states the head sets hold, the only ones kept: each member's state at its encoded size; a multi-head set's fold, never encoded, adds none")
	reg.Describe("peepul_store_reassembly_total", "pack chain reassemblies short-circuited by the one-slot cache vs walked")
	reg.Describe("peepul_store_state_hash_bytes_total", "bytes fed to SHA-256 to compute or check state addresses: chunks, groups and roots of their chunk trees")
	reg.Describe("peepul_store_encoded_bytes_total", "bytes of the state encodings operation and merge commits produced")
	reg.Describe("peepul_store_encode_written_bytes_total", "bytes of those encodings their recycled buffer did not already hold: all but what its end held of a run shared with the parent's encoding. The log's append form writes exactly these; the OR-sets' also rewrite the bytes in place")
	reg.Describe("peepul_store_encode_copied_bytes_total", "bytes of those encodings the codec's append form reported shared with the parent's encoding, in runs: copied, or already in place in the recycled buffer")
	reg.Describe("peepul_store_delta_compared_bytes_total", "bytes the diff of a new state against its parent's read: the shared ends it compared, less a run the codec reported copied, and the middles it indexed and scanned")
	return m
}

// lap records the time since *since as one observation of phase p and
// restarts *since, so back-to-back phases cost one clock read each.
func (m *storeMetrics) lap(p storePhase, since *time.Time) {
	now := time.Now()
	m.phaseNs[p].Observe(now.Sub(*since).Nanoseconds())
	*since = now
}
