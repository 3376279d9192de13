// Observed mesh: a three-node gossip fleet with the flight recorder on
// and a live debug endpoint per node. The fleet converges a PN-counter
// through the always-on daemon, then the example plays operator: it
// scrapes alice's /metrics over HTTP and asserts the sync counters are
// live and her link is up, pulls the unified /debug/peepul/snapshot,
// and prints the per-peer health table plus the recent sync-session
// timeline — the same views `peepul-stat` renders.
//
//	go run ./examples/observed-mesh
package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/peepul"
)

type member struct {
	node *peepul.Node
	hits *peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]
}

func main() {
	names := []string{"alice", "bob", "carol"}
	fleet := make([]member, len(names))
	for i, name := range names {
		n, err := peepul.NewNode(name, i+1,
			peepul.WithDebugAddr("127.0.0.1:0"), // implies WithObservability
			peepul.WithMeshInterval(50*time.Millisecond),
			peepul.WithMeshJitter(10*time.Millisecond),
			peepul.WithMeshBackoff(10*time.Millisecond, 200*time.Millisecond))
		must(err)
		defer n.Close()
		h, err := peepul.Open(n, peepul.PNCounter, "requests")
		must(err)
		must(n.Listen("127.0.0.1:0"))
		fleet[i] = member{node: n, hits: h}
		fmt.Printf("%s: sync %s, debug http://%s\n", name, n.Addr(), n.DebugAddr())
	}
	// Ring supervision: each node gossips with its successor.
	for i := range fleet {
		fleet[i].node.AddPeer(fleet[(i+1)%len(fleet)].node.Addr())
	}

	// Concurrent traffic: each member counts its own requests.
	for i, m := range fleet {
		for k := 0; k < 5; k++ {
			must2(m.hits.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: int64(i + 1)}))
		}
	}
	awaitTotal(fleet, 5*(1+2+3))

	// Operator view 1: the Prometheus scrape. A converged fleet must
	// show completed sync sessions and nonzero wire traffic.
	scrape := httpGet("http://" + fleet[0].node.DebugAddr() + "/metrics")
	for _, series := range []string{
		"peepul_replica_sessions_total",
		"peepul_wire_frames_total",
		"peepul_mesh_rounds_total",
		"peepul_mesh_links_up",
	} {
		if !hasNonzeroSeries(scrape, series) {
			panic("scrape shows no nonzero " + series + " series:\n" + scrape)
		}
	}
	fmt.Printf("\nscrape OK: %d metric lines, sync sessions, wire frames and live links nonzero\n",
		strings.Count(scrape, "\n"))

	// Operator view 2: the unified snapshot, read in process here (the
	// HTTP document at /debug/peepul/snapshot is the same thing).
	snap := fleet[0].node.DebugSnapshot()
	fmt.Printf("\n%s hosts %d object(s); peer health:\n", snap.Node, len(snap.Objects))
	for addr, p := range snap.Mesh {
		if !p.LinkUp {
			panic("link to " + addr + " is down in a converged fleet")
		}
		fmt.Printf("  %s link=up score=%.2f rounds=%d pushes=%d quarantined=%v\n",
			addr, p.Score, p.Rounds, p.Pushes, p.Quarantined)
	}
	trace := fleet[0].node.Trace()
	n := len(trace.Spans)
	if n == 0 {
		panic("flight recorder holds no sync-session spans")
	}
	if n > 3 {
		trace.Spans = trace.Spans[n-3:]
	}
	fmt.Println("\nlast sync sessions:")
	for _, sp := range trace.Spans {
		fmt.Println("  " + peepul.FormatSpan(sp))
	}
}

// awaitTotal blocks until every member reads want from the counter.
func awaitTotal(fleet []member, want int64) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, m := range fleet {
			if must2(m.hits.Do(peepul.CounterOp{Kind: peepul.CounterRead})) != want {
				done = false
				break
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			panic("fleet did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func httpGet(url string) string {
	resp, err := http.Get(url)
	must(err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	must(err)
	if resp.StatusCode != http.StatusOK {
		panic(url + ": " + resp.Status)
	}
	return string(body)
}

// hasNonzeroSeries reports whether the scrape holds a sample of the
// named series with a value other than 0.
func hasNonzeroSeries(scrape, name string) bool {
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" {
			return true
		}
	}
	return false
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must2[T any](v T, err error) T {
	must(err)
	return v
}
