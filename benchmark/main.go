// Command benchmark is the repository's one benchmark: six workloads
// over the whole stack, driven through the public peepul API from this
// process, each reporting the same end-to-end metrics and, in a traced
// run, the per-layer split. README.md has the tables.
//
//	go run -C benchmark . -workload write-grow -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// runRecord is one run as it is written to a result file and, minus the
// identifying fields, as the last line of standard output.
type runRecord struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the one PRNG every generated input comes from")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
		spans   = flag.String("spans", "", "traced run: write the spans to this file as JSON")
		repeat  = flag.Int("repeat", 1, "run each workload this many times, on seeds seed, seed+1, ..., and print the spread")
		out     = flag.String("out", "", "write every run's metrics to this result file, for -check")
		check   = flag.Bool("check", false, "compare two result files, given as arguments, against the bounds in ../BENCHMARK.json")
	)
	flag.Parse()
	if *check {
		if flag.NArg() != 2 {
			fatal("usage: -check a.json b.json")
		}
		worse, err := checkFiles(os.Stdout, benchmarkFilePath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fatal("unknown workload %q", *name)
	}
	var records []runRecord
	var allSpans []span
	failed := false
	for _, w := range selected {
		var runs []runRecord
		for i := 0; i < *repeat; i++ {
			cfg := config{seed: *seed + int64(i), seconds: *seconds, trace: *trace == 1}
			res, err := runWorkload(w, cfg)
			if err != nil {
				fatal("%v", err)
			}
			rec := report(w, cfg, res)
			failed = failed || !rec.Correct
			runs = append(runs, rec)
			allSpans = append(allSpans, res.spans...)
		}
		if *repeat > 1 {
			printSpread(os.Stdout, w.name, runs)
		}
		records = append(records, runs...)
	}
	if *out != "" {
		if err := writeJSON(*out, struct {
			Runs []runRecord `json:"runs"`
		}{records}); err != nil {
			fatal("%v", err)
		}
	}
	if *spans != "" {
		if err := writeJSON(*spans, allSpans); err != nil {
			fatal("%v", err)
		}
	}
	// The last line of standard output is the last run's result.
	last := records[len(records)-1]
	last.Workload, last.Seed = "", 0
	line, err := json.Marshal(last)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if failed {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints one run's metrics by name, with unit and sample count,
// and returns its record.
func report(w workload, cfg config, res *result) runRecord {
	rec := runRecord{
		Workload:  w.name,
		Seed:      cfg.seed,
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
	}
	fmt.Printf("== %s  seed=%d  rounds=%d  attempted=%d  failed=%d\n", w.name, cfg.seed, len(res.rounds), res.attempted, res.failed)
	fmt.Printf("   op: %s\n", w.op)
	for _, e := range res.errs {
		fmt.Printf("   FAILED: %s\n", e)
	}
	e2e := res.endToEnd()
	for _, m := range endToEndMetrics {
		v := e2e[m.Name]
		fmt.Printf("   %-28s %14.4f %-6s n=%d\n", m.Name, v.Value, v.Unit, v.N)
	}
	rec.Metrics = e2e
	if !cfg.trace {
		fmt.Printf("   -- no bound\n")
		extra := res.unbounded(false)
		for _, m := range layerMetrics {
			if v, ok := extra[m.Name]; ok && v.N > 0 {
				fmt.Printf("   %-28s %14.4f %-6s n=%d\n", m.Name, v.Value, m.Unit, v.N)
			}
		}
	}
	if cfg.trace {
		layer := res.perLayer()
		prev := ""
		for _, m := range layerMetrics {
			if m.Layer != prev {
				fmt.Printf("   -- %s\n", m.Layer)
				prev = m.Layer
			}
			v := layer[m.Name]
			fmt.Printf("   %-28s %14.4f %-6s n=%-7d moves %s\n", m.Name, v.Value, v.Unit, v.N, m.Moves)
		}
		rec.Metrics = layer
	}
	return rec
}
