package disk

// Disk-layer observability: append and fsync latency, segment
// rotations, checkpoint writes, and how (and how long) recovery-on-open
// ran. Attached with WithObs; without one the log counts into a private
// registry. Instruments resolve by name, so the several per-object logs
// of one node share series.

import "repro/internal/obs"

type diskMetrics struct {
	reg         *obs.Registry
	appendNs    *obs.Histogram
	fsyncNs     *obs.Histogram
	rotations   *obs.Counter
	compactions *obs.Counter
	recoveryNs  *obs.Histogram
}

func newDiskMetrics(reg *obs.Registry) *diskMetrics {
	m := &diskMetrics{
		reg:         reg,
		appendNs:    reg.Histogram("peepul_disk_append_ns", obs.LatencyBuckets),
		fsyncNs:     reg.Histogram("peepul_disk_fsync_ns", obs.LatencyBuckets),
		rotations:   reg.Counter("peepul_disk_segment_rotations_total"),
		compactions: reg.Counter("peepul_disk_compactions_total"),
		recoveryNs:  reg.Histogram("peepul_disk_recovery_ns", obs.LatencyBuckets),
	}
	reg.Describe("peepul_disk_append_ns", "latency of one framed record append (buffered write, rotation included)")
	reg.Describe("peepul_disk_fsync_ns", "latency of append-path fsync calls")
	reg.Describe("peepul_disk_segment_rotations_total", "active-segment seals followed by a fresh segment")
	reg.Describe("peepul_disk_checkpoint_writes_total", "index checkpoints written, by kind (full/delta)")
	reg.Describe("peepul_disk_checkpoint_bytes_total", "framed bytes of index checkpoints written, by kind (full/delta)")
	reg.Describe("peepul_disk_compactions_total", "completed log compactions")
	reg.Describe("peepul_disk_recovery_ns", "wall time of recovery-on-open")
	reg.Describe("peepul_disk_recovery_total", "opens by recovery mode (checkpoint/replay/cold)")
	return m
}

// checkpointed records one index checkpoint write of n framed bytes.
// Like recovered, it resolves its series per call: the kind is known
// only at write time, and checkpoints are rare.
func (m *diskMetrics) checkpointed(delta bool, n int) {
	kind := "full"
	if delta {
		kind = "delta"
	}
	m.reg.Counter("peepul_disk_checkpoint_writes_total", "kind", kind).Inc()
	m.reg.Counter("peepul_disk_checkpoint_bytes_total", "kind", kind).Add(int64(n))
}

// recovered records one completed open: its duration and its mode. The
// per-mode counter is resolved here rather than pre-created because the
// mode is only known after recovery runs, and opens are rare.
func (m *diskMetrics) recovered(mode string, ns int64) {
	m.recoveryNs.Observe(ns)
	m.reg.Counter("peepul_disk_recovery_total", "mode", mode).Inc()
}
