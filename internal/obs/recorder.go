package obs

// The flight recorder: bounded ring buffers of sync-session spans and
// mesh lifecycle events. Appends take one short mutex hold and never
// allocate beyond the recorded value itself; when a ring is full the
// oldest entry is overwritten, so a long-lived node always holds the
// most recent history and memory stays flat. Nil *Recorder is the
// disabled state — every method no-ops.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase is one timed step inside a sync-session span. Object is empty
// for whole-session phases (negotiate) and names the replicated object
// for per-object phases (descend, ship, import).
type Phase struct {
	Name   string `json:"name"`
	Object string `json:"object,omitempty"`
	DurNs  int64  `json:"dur_ns"`
}

// Span is one sync session, client or server side: who it talked to,
// how many objects it settled, the per-phase timeline,
// the wire cost, and how it ended (Err empty on success; FailClass is
// the mesh taxonomy's word for the error — "transient" or "violation").
type Span struct {
	ID          uint64    `json:"id"`
	Role        string    `json:"role"`
	Peer        string    `json:"peer,omitempty"`
	Objects     int       `json:"objects,omitempty"`
	Phases      []Phase   `json:"phases,omitempty"`
	BytesSent   int64     `json:"bytes_sent"`
	BytesRecv   int64     `json:"bytes_recv"`
	CommitsSent int64     `json:"commits_sent"`
	CommitsRecv int64     `json:"commits_recv"`
	Err         string    `json:"err,omitempty"`
	FailClass   string    `json:"fail_class,omitempty"`
	Start       time.Time `json:"start"`
	DurNs       int64     `json:"dur_ns"`
}

// Event is one mesh lifecycle transition: links going up and down,
// backoff changes, quarantine enter/lift — anything worth a line in the
// forensic record that is not a whole session.
type Event struct {
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Peer   string    `json:"peer,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Trace is one consistent snapshot of the recorder: spans and events,
// each oldest-first.
type Trace struct {
	Spans  []Span  `json:"spans"`
	Events []Event `json:"events"`
}

// Recorder holds the rings. The zero value is not usable; construct
// with NewRecorder. Nil receiver: all methods no-op.
type Recorder struct {
	mu      sync.Mutex
	spans   []Span
	spanN   int // next write position
	spanLen int // valid entries
	events  []Event
	evN     int
	evLen   int
	nextID  uint64
}

// Ring capacities: enough recent history for forensics, small enough
// that an always-on node's recorder stays a fixed few hundred KB.
const (
	spanRingCap  = 256
	eventRingCap = 1024
)

// NewRecorder returns a recorder with the default ring capacities.
func NewRecorder() *Recorder {
	return &Recorder{
		spans:  make([]Span, spanRingCap),
		events: make([]Event, eventRingCap),
	}
}

// NextSpanID hands out a unique span id. Zero on nil.
func (r *Recorder) NextSpanID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// AddSpan records a completed span, overwriting the oldest when full.
func (r *Recorder) AddSpan(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.nextID++
		s.ID = r.nextID
	}
	r.spans[r.spanN] = s
	r.spanN = (r.spanN + 1) % len(r.spans)
	if r.spanLen < len(r.spans) {
		r.spanLen++
	}
}

// AddEvent records a lifecycle event, overwriting the oldest when full.
func (r *Recorder) AddEvent(e Event) {
	if r == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[r.evN] = e
	r.evN = (r.evN + 1) % len(r.events)
	if r.evLen < len(r.events) {
		r.evLen++
	}
}

// Snapshot copies both rings oldest-first. Nil receiver → zero Trace.
func (r *Recorder) Snapshot() Trace {
	if r == nil {
		return Trace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := Trace{}
	if r.spanLen > 0 {
		t.Spans = make([]Span, 0, r.spanLen)
		start := (r.spanN - r.spanLen + len(r.spans)) % len(r.spans)
		for i := 0; i < r.spanLen; i++ {
			t.Spans = append(t.Spans, r.spans[(start+i)%len(r.spans)])
		}
	}
	if r.evLen > 0 {
		t.Events = make([]Event, 0, r.evLen)
		start := (r.evN - r.evLen + len(r.events)) % len(r.events)
		for i := 0; i < r.evLen; i++ {
			t.Events = append(t.Events, r.events[(start+i)%len(r.events)])
		}
	}
	return t
}

// FormatSpan renders one span as a human-readable timeline line pair:
// a summary line, then the phase chain indented under it.
func FormatSpan(s Span) string {
	var b strings.Builder
	status := "ok"
	if s.Err != "" {
		status = "ERR(" + s.FailClass + "): " + s.Err
	}
	fmt.Fprintf(&b, "#%d %s %-6s peer=%s objects=%d %s sent=%dB/%dc recv=%dB/%dc %s",
		s.ID, s.Start.Format("15:04:05.000"), s.Role, s.Peer, s.Objects,
		time.Duration(s.DurNs).Round(time.Microsecond), s.BytesSent, s.CommitsSent,
		s.BytesRecv, s.CommitsRecv, status)
	if len(s.Phases) > 0 {
		b.WriteString("\n    ")
		for i, p := range s.Phases {
			if i > 0 {
				b.WriteString(" | ")
			}
			if p.Object != "" {
				fmt.Fprintf(&b, "%s[%s] %s", p.Name, p.Object, time.Duration(p.DurNs).Round(time.Microsecond))
			} else {
				fmt.Fprintf(&b, "%s %s", p.Name, time.Duration(p.DurNs).Round(time.Microsecond))
			}
		}
	}
	return b.String()
}

// FormatTrace renders a whole trace: events and spans interleaved by
// time, one entry per line (spans take a second indented line for
// their phase chain).
func FormatTrace(t Trace) string {
	type entry struct {
		at   time.Time
		text string
	}
	entries := make([]entry, 0, len(t.Spans)+len(t.Events))
	for _, s := range t.Spans {
		entries = append(entries, entry{s.Start, FormatSpan(s)})
	}
	for _, e := range t.Events {
		text := fmt.Sprintf("-- %s event %s peer=%s %s",
			e.Time.Format("15:04:05.000"), e.Kind, e.Peer, e.Detail)
		entries = append(entries, entry{e.Time, text})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].at.Before(entries[j].at) })
	var b strings.Builder
	for _, e := range entries {
		b.WriteString(e.text)
		b.WriteByte('\n')
	}
	return b.String()
}
