// Command peepul-bench regenerates the figures and table of the paper's
// evaluation (§7):
//
//	peepul-bench                 # everything, paper-scale sweeps
//	peepul-bench -fig 12         # Figure 12: queue merge time, Peepul vs Quark
//	peepul-bench -fig 13         # Figure 13: OR-set size, Peepul vs Quark
//	peepul-bench -fig 14         # Figure 14: running time of the three OR-sets
//	peepul-bench -fig 15         # Figure 15: space consumption of the three OR-sets
//	peepul-bench -fig table3     # Table 3′: certification effort per datatype
//	peepul-bench -quick          # reduced sweeps for a fast sanity pass
//	peepul-bench -seed 7         # different workload seed
//	peepul-bench -fig table3 -type queue   # certification effort, one type
//
// Output is row-oriented, one row per plotted point, matching the series
// of Figures 12–15 and Table 3 (as Table 3′, the certification-effort
// analogue). -quick also scales Table 3′'s random exploration to 0.1
// unless -table3-scale is given. The -type filter takes a registry name
// (exact or substring, see `peepul-verify -list`) and narrows Table 3′ to
// matching datatypes. The system's own costs — sync, storage, recovery,
// mesh propagation — are measured by the benchmark driver under
// benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/peepul"
)

func main() {
	fig := flag.String("fig", "all", `figure to regenerate: "12", "13", "14", "15", "table3" or "all"`)
	seed := flag.Int64("seed", 1, "workload seed")
	quick := flag.Bool("quick", false, "use reduced sweeps (seconds instead of minutes)")
	scale := flag.Float64("table3-scale", 1.0, "scale factor for Table 3' random-exploration volume; -quick lowers the default to 0.1")
	typ := flag.String("type", "", "registry name (exact or substring) filter for Table 3'; empty = all")
	flag.Parse()

	switch *fig {
	case "all", "12", "13", "14", "15", "table3":
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if *typ != "" {
		matches := 0
		for _, name := range peepul.Names() {
			if bench.MatchType(name, *typ) {
				matches++
			}
		}
		if matches == 0 {
			fmt.Fprintf(os.Stderr, "no data type matches %q; registered:\n", *typ)
			for _, name := range peepul.Names() {
				fmt.Fprintf(os.Stderr, "  %s\n", name)
			}
			os.Exit(2)
		}
	}

	fig12Ns, fig13Ns, fig14Ns := bench.Fig12Ns, bench.Fig13Ns, bench.Fig14Ns
	if *quick {
		fig12Ns = []int{500, 1000, 1500}
		fig13Ns = []int{5000, 10000, 20000}
		fig14Ns = []int{2000, 5000, 10000}
		scaleSet := false
		flag.Visit(func(f *flag.Flag) { scaleSet = scaleSet || f.Name == "table3-scale" })
		if !scaleSet {
			*scale = 0.1
		}
	}

	run := func(name string, f func()) {
		if *fig == "all" || *fig == name {
			f()
			fmt.Println()
		}
	}
	run("12", func() { bench.PrintFig12(os.Stdout, bench.Fig12(fig12Ns, *seed)) })
	run("13", func() { bench.PrintFig13(os.Stdout, bench.Fig13(fig13Ns, *seed)) })
	run("14", func() { bench.PrintFig14(os.Stdout, bench.Fig14(fig14Ns, *seed)) })
	run("15", func() { bench.PrintFig15(os.Stdout, bench.Fig15(fig14Ns, *seed)) })
	run("table3", func() { bench.PrintTable3(os.Stdout, bench.Table3(*scale, *typ)) })
}
