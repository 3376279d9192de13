package peepul_test

// Observability tests: the session counters count one exchange per role
// and object, the Stats/Trace/Snapshot surfaces stay
// race-free under peer churn, and the live debug endpoint serves
// parseable metrics and a round-trippable snapshot, then shuts down
// with the node without leaking its goroutines.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/peepul"
)

// newObsCounterNode is newCounterNode with construction options.
func newObsCounterNode(t *testing.T, name string, id int, opts ...peepul.NodeOption) *counterNode {
	t.Helper()
	n, err := peepul.NewNode(name, id, opts...)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := peepul.Open(n, peepul.PNCounter, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return &counterNode{Node: n, obj: obj}
}

// TestTierCountersRecon: one exchange counts once per role and per
// object, and the session-outcome metric is labelled by role and outcome
// alone — there is one dialect, so no tier.
func TestTierCountersRecon(t *testing.T) {
	a := newObsCounterNode(t, "a", 1, peepul.WithObservability())
	b := newObsCounterNode(t, "b", 2, peepul.WithObservability())
	inc(t, a, 5)
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*counterNode{a, b} {
		if s, o := n.Stats(), n.ObjectStats("counter"); s.DeltaSyncs != 1 || o.DeltaSyncs != 1 {
			t.Fatalf("%s: node %d, object %d exchanges; want 1 and 1", n.Name(), s.DeltaSyncs, o.DeltaSyncs)
		}
	}
	// The server's session ends when the client hangs up, so its sample
	// may land just after SyncWith returns.
	deadline := time.Now().Add(5 * time.Second)
	for role, n := range map[string]*counterNode{"client": a, "server": b} {
		for !okSession(t, n, role) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: registry holds no ok session sample", role)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// okSession reports whether n's registry counted one ok session in role,
// failing the test on a session sample labelled with anything but role
// and outcome.
func okSession(t *testing.T, n *counterNode, role string) bool {
	t.Helper()
	found := false
	for _, m := range n.Metrics() {
		if m.Name != "peepul_replica_sessions_total" {
			continue
		}
		if _, ok := m.Labels["tier"]; ok || len(m.Labels) != 2 {
			t.Fatalf("%s: session metric labels %v, want role and outcome only", role, m.Labels)
		}
		found = found || m.Labels["role"] == role && m.Labels["outcome"] == "ok" && m.Value == 1
	}
	return found
}

// TestStatsSurfacesRaceFree hammers every read surface — Stats,
// MeshStats, DebugSnapshot, Trace, the registry snapshot and the
// Prometheus writer — while peers churn through AddPeer/RemovePeer and
// sync traffic flows. It asserts nothing beyond "no race, no panic";
// the race detector is the assertion.
func TestStatsSurfacesRaceFree(t *testing.T) {
	a := newObsCounterNode(t, "a", 1, peepul.WithObservability(),
		peepul.WithMeshInterval(5*time.Millisecond), peepul.WithMeshJitter(time.Millisecond))
	b := newCounterNode(t, "b", 2)
	c := newCounterNode(t, "c", 3)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	work := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	work(func() { // peer churn
		a.AddPeer(b.Addr())
		time.Sleep(2 * time.Millisecond)
		a.RemovePeer(b.Addr())
	})
	work(func() { // manual sync traffic + commits
		inc(t, a, 1)
		_ = a.SyncWith(c.Addr())
	})
	work(func() { // every read surface at once
		_ = a.Stats()
		_ = a.MeshStats()
		_ = a.DebugSnapshot()
		_ = a.Trace()
		_ = a.Metrics()
		_ = a.WriteMetrics(io.Discard)
	})
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// expositionLine is the grammar every non-comment /metrics line must
// match: name{labels} value.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?\d+$`)

// TestDebugEndpoint drives the full HTTP surface of WithDebugAddr:
// /healthz answers, /metrics parses line by line and carries live
// session counters, the snapshot JSON round-trips through its typed
// struct, the trace renders as text — and closing the node tears the
// server down without leaking its goroutines.
func TestDebugEndpoint(t *testing.T) {
	baseline := runtime.NumGoroutine()
	a := newObsCounterNode(t, "a", 1, peepul.WithDebugAddr("127.0.0.1:0"))
	b := newCounterNode(t, "b", 2)
	inc(t, a, 7)
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) string {
		t.Helper()
		resp, err := client.Get("http://" + a.DebugAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}

	if got := get("/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("healthz: %q", got)
	}

	metrics := get("/metrics")
	sc := bufio.NewScanner(strings.NewReader(metrics))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
	if !strings.Contains(metrics, `peepul_replica_sessions_total{role="client",outcome="ok"}`) {
		t.Fatalf("scrape is missing the client session counter:\n%s", metrics)
	}

	var snap peepul.DebugSnapshot
	if err := json.Unmarshal([]byte(get("/debug/peepul/snapshot")), &snap); err != nil {
		t.Fatalf("snapshot does not decode: %v", err)
	}
	if snap.Node != "a" || snap.Stats.DeltaSyncs == 0 || len(snap.Metrics) == 0 || len(snap.Spans) == 0 {
		t.Fatalf("snapshot incomplete: node=%q delta=%d metrics=%d spans=%d",
			snap.Node, snap.Stats.DeltaSyncs, len(snap.Metrics), len(snap.Spans))
	}
	if o, ok := snap.Objects["counter"]; !ok || o.Commits == 0 || o.Datatype != "pn-counter" {
		t.Fatalf("snapshot object row wrong: %+v (present %v)", o, ok)
	}
	reencoded, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var again peepul.DebugSnapshot
	if err := json.Unmarshal(reencoded, &again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, again) {
		t.Fatal("snapshot does not round-trip through its JSON encoding")
	}

	trace := get("/debug/peepul/trace?format=text")
	if !strings.Contains(trace, "client") || !strings.Contains(trace, "negotiate[counter]") {
		t.Fatalf("text trace shows no client session:\n%s", trace)
	}

	// Teardown: the debug server dies with the node, and nothing —
	// handler, accept loop, session goroutine — outlives Close.
	client.CloseIdleConnections()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a.DebugAddr() == "" {
		t.Fatal("DebugAddr forgot its address after Close")
	}
	if _, err := client.Get(fmt.Sprintf("http://%s/healthz", a.DebugAddr())); err == nil {
		t.Fatal("debug endpoint still serving after Close")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}
