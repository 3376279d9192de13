package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/peepul"
)

// PrintFig12 renders Figure 12 as the series the paper plots (merge time
// in seconds, log scale in the paper).
func PrintFig12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintln(w, "Figure 12: merge performance of Peepul and Quark queues")
	fmt.Fprintf(w, "%10s %16s %16s %12s\n", "#ops", "peepul-merge", "quark-merge", "speedup")
	for _, r := range rows {
		speedup := float64(r.Quark) / float64(max(int64(r.Peepul), 1))
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
	runners := peepul.All()
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
