package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// quartiles cuts xs the way Python's statistics.quantiles(xs, n=4)
// does (the exclusive method), so a spread computed here is the spread
// the driver computes. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// valuesOf collects one workload's values of every metric over runs.
func valuesOf(runs []runRecord, workload string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		for name, v := range r.Metrics {
			out[name] = append(out[name], v.Value)
		}
	}
	return out
}

// benchmarkFilePath is where the contract sits relative to this module,
// which go run -C makes the working directory.
const benchmarkFilePath = "../BENCHMARK.json"

// printSpread prints, for -repeat, each metric's median, quartiles and
// spread over the runs of one workload.
func printSpread(w io.Writer, workload string, runs []runRecord) {
	vals := valuesOf(runs, workload)
	fmt.Fprintf(w, "== %s over %d runs\n", workload, len(runs))
	fmt.Fprintf(w, "   %-28s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q1, q2, q3 := quartiles(vals[name])
		fmt.Fprintf(w, "   %-28s %14.4f %14.4f %14.4f %7.1f%%\n", name, q1, q2, q3, 100*spread(vals[name]))
	}
}

// benchmarkFile is the part of BENCHMARK.json -check needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// checkFiles compares result file b against a, metric by workload,
// with the bounds of the benchmark file: "worse" when b's median is
// worse than a's by more than the bound, "unresolved" when either
// side's own spread is wider than the bound, "ok" otherwise. It
// reports whether any pair was worse.
func checkFiles(w io.Writer, boundsPath, aPath, bPath string) (bool, error) {
	var bf benchmarkFile
	if err := readJSON(boundsPath, &bf); err != nil {
		return false, err
	}
	var a, b struct {
		Runs []runRecord `json:"runs"`
	}
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	for _, wl := range bf.Workloads {
		av, bv := valuesOf(a.Runs, wl.Name), valuesOf(b.Runs, wl.Name)
		for _, m := range bf.EndToEnd {
			xs, ys := av[m.Name], bv[m.Name]
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			_, ma, _ := quartiles(xs)
			_, mb, _ := quartiles(ys)
			// change is positive when b is worse.
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
				if m.Better == "higher" {
					change = -change
				}
			}
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "worse"
				anyWorse = true
			case spread(xs) > m.Bound || spread(ys) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", wl.Name, m.Name, ma, mb, 100*change, 100*m.Bound, verdict)
		}
	}
	return anyWorse, nil
}
