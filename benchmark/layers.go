package main

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (bench_test.go holds the two together); the layer and
// the prediction live here because that file's shape has no place for
// them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Layer is the package of this repository the metric belongs to.
	Layer string
	// Moves is the prediction written down before measuring: which
	// end-to-end metric this one should move, on which workload.
	Moves string
}

// endToEndMetrics are what a caller of the library feels. Every workload
// reports every one of them; what "op" is differs per workload and is in
// the workload's description.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "stored_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "heap_mb", Unit: "MB", Better: "lower"},
}

// layerMetrics are the per-layer numbers of the traced run, zero on a
// workload where the layer is idle.
var layerMetrics = []metricDef{
	{"dt_do_us", "us", "lower", "datatype", "op_p50_ms on write-grow; not write-under-sync"},
	{"dt_merge_us", "us", "lower", "datatype", "op_p50_ms on catchup-deep"},

	{"codec_encode_us", "us", "lower", "codec", "op_p50_ms on write-grow; not write-fsync"},
	{"codec_decode_us", "us", "lower", "codec", "op_p50_ms on reopen-deep (first read)"},
	{"state_bytes", "B", "lower", "codec", "op_p50_ms, stored_bytes_per_op on write-grow"},

	{"store_apply_self_us", "us", "lower", "store", "op_p50_ms on write-grow; not write-under-sync"},
	{"sha256_us", "us", "lower", "store", "op_p50_ms on write-grow (part of store_apply_self_us)"},
	{"store_pull_us", "us", "lower", "store", "op_p50_ms on catchup-deep"},
	{"store_export_us", "us", "lower", "store", "op_p50_ms on catchup-deep"},
	{"store_import_us", "us", "lower", "store", "op_p50_ms on catchup-deep"},
	{"materialize_us", "us", "lower", "store", "op_p50_ms on reopen-deep"},
	{"pack_bytes_per_op", "B/op", "lower", "store", "stored_bytes_per_op on write-grow"},
	{"snapshot_share", "ratio", "lower", "store", "stored_bytes_per_op on write-grow"},

	{"delta_make_us", "us", "lower", "delta", "op_p50_ms on write-grow (part of store_apply_self_us); not write-fsync"},
	{"delta_apply_us", "us", "lower", "delta", "op_p50_ms on reopen-deep"},
	{"patch_ratio", "ratio", "lower", "delta", "stored_bytes_per_op on write-grow"},

	{"disk_append_us", "us", "lower", "disk", "op_p50_ms on write-fsync; not write-grow"},
	{"disk_fsync_us", "us", "lower", "disk", "op_p50_ms on write-fsync"},
	{"fsyncs_per_op", "1/op", "lower", "disk", "op_p50_ms on write-fsync (group commit)"},
	{"records_per_op", "1/op", "lower", "disk", "stored_bytes_per_op on write-fsync"},
	{"disk_open_us", "us", "lower", "disk", "op_p50_ms on reopen-deep"},
	{"reopen_ms", "ms", "lower", "disk", "op_p50_ms on reopen-deep (NewNode+Open part)"},
	{"first_read_ms", "ms", "lower", "disk", "op_p50_ms on reopen-deep (first State part)"},
	{"recovery_checkpoint_share", "ratio", "higher", "disk", "op_p50_ms on reopen-deep"},
	{"replayed_records", "count", "lower", "disk", "op_p50_ms on reopen-deep"},

	{"wire_encode_us", "us", "lower", "wire", "op_p50_ms on catchup-deep; not write-grow"},
	{"wire_decode_us", "us", "lower", "wire", "op_p50_ms on catchup-deep"},
	{"frames_per_session", "count", "lower", "wire", "op_p50_ms on catchup-deep, mesh-propagate"},
	{"bytes_per_session", "B", "lower", "wire", "wire_bytes_per_commit on catchup-deep"},
	{"wire_bytes_per_op", "B/op", "lower", "wire", "reported on mesh-propagate, write-under-sync, catchup-deep"},
	{"wire_bytes_per_commit", "B", "lower", "wire", "repeats exactly on catchup-deep"},

	{"recon_ranges_per_session", "count", "lower", "recon", "op_p50_ms on catchup-deep, mesh-propagate; not write-fsync"},
	{"recon_range_us", "us", "lower", "recon", "op_p50_ms on catchup-deep"},
	{"recon_add_us", "us", "lower", "recon", "op_p50_ms on write-grow (part of store_apply_self_us)"},

	{"session_ms", "ms", "lower", "replica", "op_mean_ms on write-under-sync; op_p50_ms on mesh-propagate"},
	{"conn_ops_per_session", "count", "lower", "replica", "op_mean_ms on write-under-sync (each pays the injected latency)"},
	{"net_wait_share", "ratio", "lower", "replica", "op_mean_ms on write-under-sync"},
	{"freeze_wait_us", "us", "lower", "replica", "op_mean_ms on write-under-sync; not write-grow"},
	{"redundant_commits", "count", "lower", "replica", "must stay 0 on catchup-deep"},
	{"busy_rejects", "count", "lower", "replica", "op_p50_ms on mesh-propagate"},
	{"stall_share", "ratio", "lower", "replica", "share of Do calls over 1 ms: op_mean_ms on write-under-sync"},
	{"do_p50_us", "us", "lower", "replica", "Handle.Do on every workload, also where it is not the headline"},
	{"do_p99_us", "us", "lower", "replica", "set by injected delay on write-under-sync, by GC elsewhere"},
	{"do_mean_us", "us", "lower", "replica", "op_mean_ms on the write workloads"},
	{"do_ops_s", "1/s", "higher", "replica", "completed Do per second of the timed section"},

	{"mesh_rounds", "count", "lower", "mesh", "wire_bytes_per_op on mesh-propagate; not catchup-deep"},
	{"mesh_pushes", "count", "lower", "mesh", "op_p50_ms on mesh-propagate"},
	{"mesh_failures", "count", "lower", "mesh", "op_mean_ms on mesh-propagate"},
	{"ops_per_push", "ratio", "higher", "mesh", "wire_bytes_per_op on mesh-propagate (coalescing)"},
	{"hop1_lag_ms", "ms", "lower", "mesh", "op_p50_ms on mesh-propagate (A to B)"},
	{"hop2_lag_ms", "ms", "lower", "mesh", "op_p50_ms on mesh-propagate (B to C)"},

	{"op_p90_ms", "ms", "lower", "harness", "tail of the headline; too unsteady to bound"},
	{"op_p99_ms", "ms", "lower", "harness", "tail of the headline; too unsteady to bound"},
	{"generator_late_p99_ms", "ms", "lower", "harness", "how late the open-loop generators ran"},
	{"failed_share", "ratio", "lower", "harness", "must be 0"},
	{"trace_overhead_pct", "%", "lower", "harness", "traced minus untraced op_p50_ms, of the same run"},
}
