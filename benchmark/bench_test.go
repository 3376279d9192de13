package main

import (
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"testing"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var bj benchmarkJSON
	if err := readJSON(benchmarkFilePath, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables in
// layers.go and workloads.go together.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bj.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the benchmark", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the benchmark", i, m, d)
		}
	}
}

// TestToyWorkloads runs every workload at toy size, traced: the second
// round of a traced run is untraced, so one run covers both paths.
func TestToyWorkloads(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(w, config{seed: 7, seconds: 0, trace: true, toy: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.errs)
			}
			e2e := res.endToEnd()
			for _, m := range bj.EndToEnd {
				v, ok := e2e[m.Name]
				if !ok || v.Unit != m.Unit || !finite(v.Value) || v.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
			layer := res.perLayer()
			for _, m := range bj.PerLayer {
				v, ok := layer[m.Name]
				if !ok || v.Unit != m.Unit || !finite(v.Value) {
					t.Errorf("per-layer %s: got %+v (present %v), want a finite value in %s", m.Name, v, ok, m.Unit)
				}
			}
			// Every workload drives datatype, codec and store, so these
			// must have been observed, not defaulted.
			for _, name := range []string{"dt_do_us", "codec_encode_us", "store_apply_self_us", "state_bytes", "do_p50_us"} {
				if layer[name].Value <= 0 {
					t.Errorf("per-layer %s = %v, want > 0", name, layer[name].Value)
				}
			}
			checkSpans(t, res.spans)
		})
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkSpans asserts the span tree is well formed: ids are positions,
// a child lies inside its parent and shares its root.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	children := 0
	for i, sp := range spans {
		if sp.ID != i+1 {
			t.Fatalf("span %d has id %d", i, sp.ID)
		}
		if sp.End != 0 && sp.End < sp.Start {
			t.Errorf("span %d (%s) ends before it starts", sp.ID, sp.Name)
		}
		if sp.Parent == 0 {
			if sp.Root != sp.ID {
				t.Errorf("root span %d (%s) has root %d", sp.ID, sp.Name, sp.Root)
			}
			continue
		}
		children++
		p := spans[sp.Parent-1]
		if sp.Root != p.Root {
			t.Errorf("span %d (%s) has root %d, its parent %d", sp.ID, sp.Name, sp.Root, p.Root)
		}
		if sp.Start < p.Start || (p.End != 0 && sp.End > p.End) {
			t.Errorf("span %d (%s) [%d,%d] is not inside its parent %s [%d,%d]", sp.ID, sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
		}
	}
	if children == 0 {
		t.Error("no span has a parent")
	}
	for i, s := range selfTimes(spans) {
		if spans[i].End != 0 && s < 0 {
			t.Errorf("span %d (%s) has negative self time %d", spans[i].ID, spans[i].Name, s)
		}
	}
}

// TestCheckFlagsRegression feeds -check a synthetic 30 % regression
// (past the widest bound the benchmark file may hold) and a pair of
// identical files.
func TestCheckFlagsRegression(t *testing.T) {
	mk := func(scale float64) []runRecord {
		var runs []runRecord
		for _, w := range workloads {
			for i := 0; i < 5; i++ {
				jitter := 1 + 0.002*float64(i)
				m := map[string]metricValue{}
				for _, d := range endToEndMetrics {
					v := 10 * jitter
					if d.Name == "op_p50_ms" && w.name == "write-grow" {
						v *= scale
					}
					m[d.Name] = metricValue{Value: v, Unit: d.Unit}
				}
				runs = append(runs, runRecord{Workload: w.name, Seed: int64(i), Correct: true, Attempted: 1, Metrics: m})
			}
		}
		return runs
	}
	dir := t.TempDir()
	write := func(name string, runs []runRecord) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, struct {
			Runs []runRecord `json:"runs"`
		}{runs}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", mk(1)), write("same.json", mk(1)), write("slow.json", mk(1.3))
	worse, err := checkFiles(io.Discard, benchmarkFilePath, a, same)
	if err != nil || worse {
		t.Errorf("identical files: worse=%v err=%v", worse, err)
	}
	worse, err = checkFiles(io.Discard, benchmarkFilePath, a, slow)
	if err != nil || !worse {
		t.Errorf("30%% regression on op_p50_ms/write-grow: worse=%v err=%v", worse, err)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(range(1, 11), n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestResultLineShape checks the last-line record has exactly the keys
// the driver reads.
func TestResultLineShape(t *testing.T) {
	rec := runRecord{Correct: true, Attempted: 3, Metrics: map[string]metricValue{"setup_s": {Value: 0.5, Unit: "s", N: 3}}}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`
	if string(b) != want {
		t.Errorf("got  %s\nwant %s", b, want)
	}
}
