// Command peepul-stat inspects a running node through its live debug
// endpoint (peepul.WithDebugAddr). By default it fetches
// /debug/peepul/snapshot and renders the node's health as tables: the
// aggregate sync counters, the local write path (commit count, mean
// latency and its encode / hash / delta split), a per-object row set,
// the per-peer mesh supervisor state (link up or down, health score,
// backoff, quarantine), and the most recent sync-session spans as a
// timeline.
//
// Usage:
//
//	peepul-stat -addr 127.0.0.1:6060            # snapshot tables
//	peepul-stat -addr 127.0.0.1:6060 -trace     # full flight-recorder timeline
//	peepul-stat -addr 127.0.0.1:6060 -metrics   # raw Prometheus text
//	peepul-stat -addr 127.0.0.1:6060 -json      # raw snapshot JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/peepul"
)

func main() {
	addr := flag.String("addr", "", "debug endpoint address (host:port) of the node, as set by WithDebugAddr")
	trace := flag.Bool("trace", false, "print the full flight-recorder timeline instead of the snapshot tables")
	metrics := flag.Bool("metrics", false, "print the raw Prometheus /metrics text")
	rawJSON := flag.Bool("json", false, "print the raw JSON of the fetched document")
	spans := flag.Int("spans", 10, "how many recent sync-session spans the snapshot view prints")
	timeout := flag.Duration("timeout", 5*time.Second, "HTTP fetch timeout")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "peepul-stat: -addr is required (the node's WithDebugAddr address)")
		flag.Usage()
		os.Exit(2)
	}

	client := &http.Client{Timeout: *timeout}
	switch {
	case *metrics:
		body := fetch(client, *addr, "/metrics")
		os.Stdout.Write(body)
	case *trace:
		body := fetch(client, *addr, "/debug/peepul/trace")
		if *rawJSON {
			os.Stdout.Write(body)
			return
		}
		var tr obs.Trace
		decode(body, &tr)
		fmt.Print(obs.FormatTrace(tr))
	default:
		body := fetch(client, *addr, "/debug/peepul/snapshot")
		if *rawJSON {
			os.Stdout.Write(body)
			return
		}
		var snap peepul.DebugSnapshot
		decode(body, &snap)
		render(snap, *spans)
	}
}

func fetch(client *http.Client, addr, path string) []byte {
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		fatalf("fetching %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("reading %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		fatalf("%s: %s", path, resp.Status)
	}
	return body
}

func decode(body []byte, v any) {
	if err := json.Unmarshal(body, v); err != nil {
		fatalf("decoding response: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "peepul-stat: "+format+"\n", args...)
	os.Exit(1)
}

// render prints the snapshot as the standard table set.
func render(snap peepul.DebugSnapshot, maxSpans int) {
	fmt.Printf("node %s (replica %d)", snap.Node, snap.ReplicaID)
	if snap.Addr != "" {
		fmt.Printf("  listening %s", snap.Addr)
	}
	fmt.Printf("  snapshot %s\n\n", snap.Time.Format(time.RFC3339))

	s := snap.Stats
	fmt.Printf("sync: %d exchange(s), %d range probe(s) out / %d in, %d miss(es)\n",
		s.DeltaSyncs, s.RangesSent, s.RangesRecv, s.Misses)
	fmt.Printf("wire: %d B out / %d B in, %d commit(s) out / %d in, %d redundant, %d shed\n\n",
		s.BytesSent, s.BytesRecv, s.CommitsSent, s.CommitsRecv,
		s.RedundantCommits, s.InboundShed)

	renderWrites(snap.Metrics)

	if len(snap.Objects) > 0 {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "OBJECT\tDATATYPE\tCOMMITS\tSYNCS\tBYTES OUT\tBYTES IN\tSEGMENTS")
		for _, name := range sortedKeys(snap.Objects) {
			o := snap.Objects[name]
			seg := "-"
			if o.Storage != nil {
				seg = fmt.Sprintf("%d (%d B)", o.Storage.Segments, o.Storage.Bytes)
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
				name, o.Datatype, o.Commits, o.Stats.DeltaSyncs,
				o.Stats.BytesSent, o.Stats.BytesRecv, seg)
		}
		w.Flush()
		fmt.Println()
	}

	if len(snap.Mesh) > 0 {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "PEER\tLINK\tSCORE\tROUNDS\tPUSHES\tFAILS\tBACKOFF\tQUARANTINE\tLAST ERROR")
		for _, addr := range sortedKeys(snap.Mesh) {
			p := snap.Mesh[addr]
			quar := "-"
			if p.Quarantined {
				quar = "YES: " + p.QuarantineReason
			} else if p.Quarantines > 0 {
				quar = fmt.Sprintf("recovered x%d", p.Quarantines)
			}
			lastErr := p.LastError
			if lastErr == "" {
				lastErr = "-"
			}
			link := "down"
			if p.LinkUp {
				link = "up"
			}
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%d\t%d\t%d\t%s\t%s\t%s\n",
				addr, link, p.Score, p.Rounds, p.Pushes, p.Failures, p.Backoff, quar, lastErr)
		}
		w.Flush()
		fmt.Println()
	}

	if n := len(snap.Spans); n > 0 {
		if n > maxSpans {
			snap.Spans = snap.Spans[n-maxSpans:]
		}
		fmt.Printf("last %d sync session(s):\n", len(snap.Spans))
		for _, sp := range snap.Spans {
			fmt.Println("  " + obs.FormatSpan(sp))
		}
	}
}

// renderWrites prints the local write path: how many operation commits
// the node's stores made, their mean latency, and the mean of each phase
// of storing a state (the phase histograms also count merge commits);
// then how many peer batches landed and how long each held the store's
// write lock, which is how long it stalled the local writes queued
// behind it. Last, the encoded bytes of the decoded states the stores
// hold, one per head state and multi-head fold, beside the share of
// state reads they served.
func renderWrites(metrics []obs.Metric) {
	mean := func(m obs.Metric) time.Duration {
		if m.Count == 0 {
			return 0
		}
		return time.Duration(m.Sum / m.Count)
	}
	var apply, integrate obs.Metric
	var resident int64
	reads := make(map[string]int64)
	phases := make(map[string]time.Duration)
	for _, m := range metrics {
		switch m.Name {
		case "peepul_store_apply_ns":
			apply = m
		case "peepul_store_integrate_ns":
			integrate = m
		case "peepul_store_put_state_ns":
			phases[m.Labels["phase"]] = mean(m)
		case "peepul_store_resident_state_bytes":
			resident = m.Value
		case "peepul_store_state_cache_total":
			reads[m.Labels["result"]] = m.Value
		}
	}
	if apply.Count > 0 {
		fmt.Printf("writes: %d commit(s), mean %s (encode %s, hash %s, delta %s)\n",
			apply.Count, mean(apply), phases["encode"], phases["hash"], phases["delta"])
	}
	if integrate.Count > 0 {
		fmt.Printf("integrates: %d batch(es), mean %s under the write lock\n",
			integrate.Count, mean(integrate))
	}
	n := reads["hit"] + reads["miss"]
	if n > 0 {
		fmt.Printf("states: %d B decoded and held, %d of %d read(s) hit (%.0f%%)\n",
			resident, reads["hit"], n, 100*float64(reads["hit"])/float64(n))
	}
	if apply.Count > 0 || integrate.Count > 0 || n > 0 {
		fmt.Println()
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
