package obs_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestNilSafety: every instrument getter on a nil registry returns nil,
// and every method on a nil instrument (and a nil recorder) is a no-op
// rather than a panic — the disabled-observability contract the hot
// paths rely on.
func TestNilSafety(t *testing.T) {
	var r *obs.Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_ns", obs.LatencyBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	r.Describe("x_total", "help")
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WriteProm(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	var rec *obs.Recorder
	rec.AddSpan(obs.Span{})
	rec.AddEvent(obs.Event{Kind: "x"})
	if tr := rec.Snapshot(); len(tr.Spans) != 0 || len(tr.Events) != 0 {
		t.Fatal("nil recorder snapshot must be empty")
	}
}

// TestRegistryDedup: the same (name, labels) yields the same
// instrument regardless of label order, and different labels yield
// distinct series under one family.
func TestRegistryDedup(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("frames_total", "dir", "in", "kind", "hello")
	b := r.Counter("frames_total", "kind", "hello", "dir", "in")
	if a != b {
		t.Fatal("label order must not split the series")
	}
	other := r.Counter("frames_total", "dir", "out", "kind", "hello")
	if other == a {
		t.Fatal("different labels must be a different series")
	}
	a.Add(3)
	other.Inc()
	if a.Value() != 3 || other.Value() != 1 {
		t.Fatalf("values crossed: %d %d", a.Value(), other.Value())
	}
}

// TestRegistrySum: Sum adds the counters whose labels include every
// pair asked for; a series without the label never matches it, and
// gauges, histograms and unknown names sum to zero.
func TestRegistrySum(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("bytes_total", "dir", "sent", "object", "x", "peer", "p").Add(5)
	r.Counter("bytes_total", "dir", "sent", "object", "y").Add(7)
	r.Counter("bytes_total", "dir", "sent").Add(11)
	r.Counter("bytes_total", "dir", "recv", "object", "x").Add(13)
	r.Gauge("links").Set(3)
	for _, c := range []struct {
		name  string
		match []string
		want  int64
	}{
		{"bytes_total", nil, 36},
		{"bytes_total", []string{"dir", "sent"}, 23},
		{"bytes_total", []string{"dir", "sent", "object", "x"}, 5},
		{"bytes_total", []string{"object", "x"}, 18},
		{"bytes_total", []string{"object", ""}, 0},
		{"bytes_total", []string{"peer", "p"}, 5},
		{"links", nil, 0},
		{"absent", nil, 0},
	} {
		if got := r.Sum(c.name, c.match...); got != c.want {
			t.Errorf("Sum(%s, %v) = %d, want %d", c.name, c.match, got, c.want)
		}
	}
	var nilReg *obs.Registry
	if nilReg.Sum("bytes_total") != 0 {
		t.Fatal("nil registry must sum to zero")
	}
}

// TestHistogramBuckets: observations land in the right cumulative
// buckets and the sum/count track exactly.
func TestHistogramBuckets(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("lat_ns", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 1000, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 6026 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d metrics", len(snap))
	}
	m := snap[0]
	wantCum := []int64{2, 3, 4, 5} // le=10, le=100, le=1000, +Inf
	if len(m.Buckets) != len(wantCum) {
		t.Fatalf("buckets: %+v", m.Buckets)
	}
	for i, want := range wantCum {
		if m.Buckets[i].Count != want {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, m.Buckets[i].Count, want, m.Buckets)
		}
	}
}

// expositionLine is the grammar the /metrics test and this one hold
// every non-comment line to: name{labels} value.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?\d+$`)

// TestWritePromFormat: the exposition is well-formed line by line,
// families appear once with a TYPE header, histograms expose
// cumulative le buckets with +Inf, and the output is stable across
// calls.
func TestWritePromFormat(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("sessions_total", "tier", "recon").Add(2)
	r.Counter("sessions_total", "tier", "plain").Inc()
	r.Describe("sessions_total", "sync sessions by tier")
	r.Describe("peers", "peers supervised") // before the family exists
	r.Gauge("peers").Set(3)
	r.Histogram("dur_ns", []int64{100, 1000}).Observe(150)

	var out strings.Builder
	if err := r.WriteProm(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "# HELP sessions_total sync sessions by tier") ||
		!strings.Contains(text, "# HELP peers peers supervised") {
		t.Fatalf("missing HELP line:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE sessions_total counter") ||
		!strings.Contains(text, "# TYPE peers gauge") ||
		!strings.Contains(text, "# TYPE dur_ns histogram") {
		t.Fatalf("missing TYPE lines:\n%s", text)
	}
	if !strings.Contains(text, `sessions_total{tier="recon"} 2`) {
		t.Fatalf("missing labeled counter:\n%s", text)
	}
	if !strings.Contains(text, `dur_ns_bucket{le="+Inf"} 1`) ||
		!strings.Contains(text, `dur_ns_bucket{le="1000"} 1`) ||
		!strings.Contains(text, `dur_ns_bucket{le="100"} 0`) {
		t.Fatalf("histogram buckets wrong:\n%s", text)
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
	var again strings.Builder
	if err := r.WriteProm(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != text {
		t.Fatal("exposition output not stable across calls")
	}
}

// TestSnapshotJSONRoundTrip: a snapshot marshals and unmarshals to the
// same metric list.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("a_total", "k", "v").Add(7)
	r.Histogram("b_ns", []int64{1, 2}).Observe(2)
	snap := r.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back []obs.Metric
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(back) != fmt.Sprint(snap) {
		t.Fatalf("round trip changed:\n%v\n%v", snap, back)
	}
}

// TestRecorderRingWraps: pushing past capacity keeps the newest spans,
// oldest-first, with monotonically assigned ids.
func TestRecorderRingWraps(t *testing.T) {
	rec := obs.NewRecorder()
	const n = 300 // > span ring capacity of 256
	for i := 0; i < n; i++ {
		rec.AddSpan(obs.Span{Role: "client", Peer: fmt.Sprintf("p%d", i), Start: time.Now()})
	}
	tr := rec.Snapshot()
	if len(tr.Spans) != 256 {
		t.Fatalf("ring holds %d spans, want 256", len(tr.Spans))
	}
	if tr.Spans[0].Peer != fmt.Sprintf("p%d", n-256) || tr.Spans[255].Peer != fmt.Sprintf("p%d", n-1) {
		t.Fatalf("ring kept the wrong window: first=%s last=%s", tr.Spans[0].Peer, tr.Spans[255].Peer)
	}
	for i := 1; i < len(tr.Spans); i++ {
		if tr.Spans[i].ID <= tr.Spans[i-1].ID {
			t.Fatal("span ids must be monotonic")
		}
	}
}

// TestRecorderConcurrent: concurrent appends and snapshots race-free
// (run under -race in CI).
func TestRecorderConcurrent(t *testing.T) {
	rec := obs.NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.AddSpan(obs.Span{Role: "client", Start: time.Now()})
				rec.AddEvent(obs.Event{Kind: "backoff", Peer: "x"})
				_ = rec.Snapshot()
			}
		}(g)
	}
	wg.Wait()
}

// TestFormatTrace: the human-readable rendering mentions the span's
// peer, object count, phases and the event kinds, in time order.
func TestFormatTrace(t *testing.T) {
	rec := obs.NewRecorder()
	base := time.Now()
	rec.AddEvent(obs.Event{Time: base, Kind: "quarantine-enter", Peer: "1.2.3.4:9", Detail: "reason=corrupt frame"})
	rec.AddSpan(obs.Span{
		Role: "client", Peer: "1.2.3.4:9", Objects: 1,
		Phases: []obs.Phase{{Name: "negotiate", DurNs: 1000}, {Name: "ship", Object: "counter", DurNs: 2000}},
		Start:  base.Add(time.Millisecond), DurNs: 5000,
	})
	text := obs.FormatTrace(rec.Snapshot())
	for _, want := range []string{"quarantine-enter", "objects=1", "negotiate", "ship[counter]", "1.2.3.4:9"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted trace missing %q:\n%s", want, text)
		}
	}
	if strings.Index(text, "quarantine-enter") > strings.Index(text, "objects=1") {
		t.Fatalf("entries not in time order:\n%s", text)
	}
}
