package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
)

// PrintFig12 renders Figure 12 as the series the paper plots (merge time
// in seconds, log scale in the paper).
func PrintFig12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintln(w, "Figure 12: merge performance of Peepul and Quark queues")
	fmt.Fprintf(w, "%10s %16s %16s %12s\n", "#ops", "peepul-merge", "quark-merge", "speedup")
	for _, r := range rows {
		speedup := float64(r.Quark) / float64(max64(int64(r.Peepul), 1))
		fmt.Fprintf(w, "%10d %16s %16s %11.0fx\n", r.N, fmtDur(r.Peepul), fmtDur(r.Quark), speedup)
	}
}

// PrintFig13 renders Figure 13 (final set size, duplicates included).
func PrintFig13(w io.Writer, rows []Fig13Row) {
	fmt.Fprintln(w, "Figure 13: size of Peepul and Quark OR-sets")
	fmt.Fprintf(w, "%10s %12s %12s\n", "#ops", "quark-size", "peepul-size")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %12d %12d\n", r.N, r.QuarkSize, r.PeepulSize)
	}
}

// PrintFig14 renders Figure 14 (total workload running time).
func PrintFig14(w io.Writer, rows []Fig14Row) {
	fmt.Fprintln(w, "Figure 14: running time of OR-sets")
	fmt.Fprintf(w, "%10s %14s %14s %18s\n", "#ops", "or-set", "or-set-space", "or-set-spacetime")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %14s %14s %18s\n", r.N, fmtDur(r.OrSet), fmtDur(r.Space), fmtDur(r.SpaceTime))
	}
}

// PrintFig15 renders Figure 15 (maximum state footprint, KB).
func PrintFig15(w io.Writer, rows []Fig15Row) {
	fmt.Fprintln(w, "Figure 15: space consumption of OR-sets (max KB)")
	fmt.Fprintf(w, "%10s %14s %14s %18s\n", "#ops", "or-set", "or-set-space", "or-set-spacetime")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %14.2f %14.2f %18.2f\n",
			r.N, float64(r.OrSet)/1024, float64(r.Space)/1024, float64(r.SpaceTime)/1024)
	}
}

// PrintSyncCost renders the sync-cost table: wire bytes and wall time of
// one exchange (pair) or one gossip round (ring) against history length.
func PrintSyncCost(w io.Writer, rows []SyncCostRow) {
	fmt.Fprintln(w, "Sync cost: wire bytes per exchange vs history length")
	fmt.Fprintf(w, "%10s %8s %8s %12s %10s %12s\n",
		"#history", "topo", "phase", "bytes", "commits", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %8s %8s %12d %10d %12s\n",
			r.History, r.Topology, r.Phase, r.Bytes, r.Commits, fmtDur(r.Elapsed))
	}
}

// PrintDag renders the DAG-scaling table: merge wall time (Pull/Sync
// calls only; delta shipping excluded) against history length per
// scenario. The divergence is held constant in every scenario, so a
// healthy O(divergence) engine shows flat times down each scenario's
// column while history grows 10²–10⁵.
func PrintDag(w io.Writer, rows []DagRow) {
	fmt.Fprintln(w, "DAG scaling: merge cost vs history length (divergence held constant)")
	fmt.Fprintf(w, "%12s %10s %10s %10s %12s\n",
		"scenario", "#history", "branches", "#commits", "merge-time")
	for _, r := range rows {
		fmt.Fprintf(w, "%12s %10d %10d %10d %12s\n",
			r.Scenario, r.History, r.Branches, r.Commits, fmtDur(r.Elapsed()))
	}
}

// PrintMesh renders the always-on fleet table: convergence and
// propagation wall times plus the steady-state wire cost of keeping a
// converged fleet converged (span-probe re-syncs — the bytes/sec column
// should stay small and history-independent).
func PrintMesh(w io.Writer, rows []MeshRow) {
	fmt.Fprintln(w, "Mesh: always-on daemon fleets, no SyncWith (converge / propagate / idle cost)")
	fmt.Fprintf(w, "%8s %7s %8s %12s %12s %12s %14s\n",
		"topo", "nodes", "writes", "converge", "propagate", "idle-window", "idle-rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%8s %7d %8d %12s %12s %12s %12s/s\n",
			r.Topology, r.Nodes, r.Writes,
			fmtDur(time.Duration(r.ConvergeNs)), fmtDur(time.Duration(r.PropagateNs)),
			fmtDur(time.Duration(r.SteadyWindowNs)), fmtBytes(int64(r.SteadyBytesPerSec)))
	}
}

// PrintChaos renders the chaos table: recovery latency and wasted
// transfer per fault mix, against the zero-fault baseline row.
func PrintChaos(w io.Writer, rows []ChaosRow) {
	fmt.Fprintln(w, "Chaos: fleet recovery after drops and rolling partitions (converge after heal / wasted transfer)")
	fmt.Fprintf(w, "%7s %6s %10s %8s %9s %12s %10s %10s\n",
		"nodes", "loss", "partition", "writes", "horizon", "converge", "bytes", "redundant")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d %5.0f%% %9dms %8d %8dms %12s %10s %10d\n",
			r.Nodes, r.LossRate*100, r.PartitionMs, r.Writes, r.HorizonMs,
			fmtDur(time.Duration(r.ConvergeNs)), fmtBytes(r.TotalBytes), r.RedundantCommits)
	}
}

// PrintSpace renders the space table: resident object bytes and sync
// bytes, packed (delta-chained pack layer) vs the pre-pack full-snapshot
// format, with cold materialize latency and allocations per operation.
func PrintSpace(w io.Writer, rows []SpaceRow) {
	fmt.Fprintln(w, "Space: pack-layer storage and sync cost vs full-snapshot storage")
	fmt.Fprintf(w, "%-16s %8s %10s %10s %7s %10s %10s %7s %10s %9s\n",
		"datatype", "#ops", "packed", "full", "resx", "pull-pack", "pull-full", "syncx", "mat-lat", "allocs/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %8d %10s %10s %6.1fx %10s %10s %6.1fx %10s %9.1f\n",
			r.Datatype, r.History,
			fmtBytes(r.PackedBytes), fmtBytes(r.FullBytes), r.ResidentReduction,
			fmtBytes(r.DeepPullPackedBytes), fmtBytes(r.DeepPullFullBytes), r.SyncReduction,
			fmtDur(time.Duration(r.MaterializeNs)), r.AllocsPerApply)
	}
}

// PrintDurable renders the durability table: per-operation commit
// latency in memory vs on disk vs with per-commit fsync, recovery time
// (the default checkpoint-seeking open and a forced full replay), and
// the on-disk footprint against the resident packed bytes.
func PrintDurable(w io.Writer, rows []DurableRow) {
	fmt.Fprintln(w, "Durable: disk-backed commit latency, recovery time, on-disk footprint")
	fmt.Fprintf(w, "%-16s %8s %10s %10s %10s %10s %-10s %10s %10s %10s %6s %10s\n",
		"datatype", "#ops", "mem/op", "disk/op", "fsync/op", "recovery", "mode", "replay", "disk", "resident", "segs", "deep-pull")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %8d %10s %10s %10s %10s %-10s %10s %10s %10s %6d %10s\n",
			r.Datatype, r.History,
			fmtDur(time.Duration(r.ApplyMemNs)), fmtDur(time.Duration(r.ApplyDiskNs)),
			fmtDur(time.Duration(r.ApplyFsyncNs)), fmtDur(time.Duration(r.RecoveryNs)),
			r.RecoveryMode, fmtDur(time.Duration(r.FullReplayNs)),
			fmtBytes(r.DiskBytes), fmtBytes(r.ResidentBytes), r.Segments,
			fmtDur(time.Duration(r.DeepPullNs)))
	}
}

func fmtBytes(n int64) string {
	switch {
	case n < 10<<10:
		return fmt.Sprintf("%dB", n)
	case n < 10<<20:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	case n < 10<<30:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	}
}

// MatchType reports whether a registered datatype name passes a -type
// filter: the empty filter matches everything, otherwise an exact name
// or substring match is required.
func MatchType(name, filter string) bool {
	return filter == "" || name == filter || strings.Contains(name, filter)
}

// Table3 runs the certification harness for every registered MRDT whose
// name passes the -type filter and returns the reports — the
// reproduction's analogue of the paper's Table 3.
func Table3(scale float64, typeFilter string) []sim.Report {
	runners := harness.All()
	reports := make([]sim.Report, 0, len(runners))
	for _, r := range runners {
		if !MatchType(r.Name(), typeFilter) {
			continue
		}
		cfg := r.Config()
		cfg.RandomExecutions = int(float64(cfg.RandomExecutions) * scale)
		if cfg.RandomExecutions < 1 {
			cfg.RandomExecutions = 1
		}
		reports = append(reports, r.Certify(cfg))
	}
	return reports
}

// PrintTable3 renders the certification-effort table.
func PrintTable3(w io.Writer, reports []sim.Report) {
	fmt.Fprintln(w, "Table 3': certification effort (bounded checking in place of F*/SMT proofs)")
	fmt.Fprintf(w, "%-22s %12s %12s %12s %12s %7s\n",
		"MRDT", "executions", "transitions", "obligations", "time", "status")
	for _, rep := range reports {
		status := "ok"
		if rep.Err != nil {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%-22s %12d %12d %12d %12s %7s\n",
			rep.Name, rep.Executions, rep.Transitions, rep.Obligations,
			fmtDur(rep.Duration), status)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
