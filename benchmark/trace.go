package main

import (
	"context"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/peepul"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Root; Parent is the span that was open on the same goroutine
// when this one began (0 for a root). Times are nanoseconds since the
// tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Root   int    `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the spans of one traced round in memory. Nesting is
// per goroutine: the layers call each other synchronously, so the span
// open on the calling goroutine is the cause of the next one. Work the
// program does on goroutines of its own (serving a session, a mesh
// round) has no benchmark-side root and records as roots.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  map[int64][]int // goroutine id -> stack of open span ids
	net   netMeter
	// winStart and winEnd bound the round's timed section; the layer
	// replay runs after it and marks where its own spans begin.
	winStart, winEnd int64
	replayFrom       int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[int64][]int{}}
}

// goid reads the calling goroutine's id off its stack header
// ("goroutine 123 ["). The runtime offers no cheaper handle, and the
// microsecond it costs is paid in traced rounds only.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	s := buf[len("goroutine "):n]
	end := 0
	for end < len(s) && s[end] != ' ' {
		end++
	}
	id, _ := strconv.ParseInt(string(s[:end]), 10, 64)
	return id
}

// begin opens a span under whatever span is open on this goroutine.
func (t *tracer) begin(name string) func() {
	g := goid()
	t.mu.Lock()
	id := len(t.spans) + 1
	sp := span{ID: id, Root: id, Name: name}
	if st := t.open[g]; len(st) > 0 {
		sp.Parent = st[len(st)-1]
		sp.Root = t.spans[sp.Parent-1].Root
	}
	t.open[g] = append(t.open[g], id)
	sp.Start = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		if st := t.open[g]; len(st) == 1 {
			delete(t.open, g)
		} else {
			t.open[g] = st[:len(st)-1]
		}
		t.mu.Unlock()
	}
}

// layerOfSpan maps a span name to the per-layer metric its time feeds,
// and whether the metric takes the span's self time (duration minus the
// part its children cover) or its whole duration.
var layerOfSpan = map[string]struct {
	metric string
	self   bool
}{
	"dt.do":             {"dt_do_us", false},
	"dt.merge":          {"dt_merge_us", false},
	"codec.encode":      {"codec_encode_us", false},
	"codec.decode":      {"codec_decode_us", false},
	"store.apply":       {"store_apply_self_us", true},
	"store.export":      {"store_export_us", false},
	"store.import":      {"store_import_us", true},
	"store.pull":        {"store_pull_us", true},
	"store.materialize": {"materialize_us", false},
	"sha256":            {"sha256_us", false},
	"delta.make":        {"delta_make_us", false},
	"delta.apply":       {"delta_apply_us", false},
	"disk.open":         {"disk_open_us", false},
	"wire.encode":       {"wire_encode_us", false},
	"wire.decode":       {"wire_decode_us", false},
	"recon.range":       {"recon_range_us", false},
	"recon.add":         {"recon_add_us", false},
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one span run one after another on the
// parent's goroutine, so their durations add without overlap.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += sp.End - sp.Start
		if sp.Parent > 0 {
			self[sp.Parent-1] -= sp.End - sp.Start
		}
	}
	return self
}

// fold turns the round's spans and connection meters into per-layer
// observations and hands the spans to the result for the dump.
func (t *tracer) fold(res *result) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	self := selfTimes(spans)
	var doTotal, doN, applyTotal, applyN float64
	for i, sp := range spans {
		if sp.End == 0 {
			continue // still open when the round ended (a daemon's session)
		}
		// In-situ spans count inside the timed section only: set-up
		// runs the same code at other state sizes.
		if replayed := t.replayFrom > 0 && i >= t.replayFrom; !replayed && (sp.Start < t.winStart || sp.End > t.winEnd) {
			continue
		}
		dur := float64(sp.End-sp.Start) / 1e3
		switch sp.Name {
		case "peepul.Do":
			doTotal, doN = doTotal+dur, doN+1
		case "store.apply":
			applyTotal, applyN = applyTotal+dur, applyN+1
		}
		if m, ok := layerOfSpan[sp.Name]; ok {
			if m.self {
				dur = float64(self[i]) / 1e3
			}
			res.add(m.metric, dur, 1)
		}
	}
	// What a Handle.Do costs beyond the bare store.Apply of the same
	// operations: the node-wide sync freeze, the mesh notification.
	if doN > 0 && applyN > 0 {
		res.add("freeze_wait_us", doTotal/doN-applyTotal/applyN, 1)
	}
	t.net.fold(res, t.t0.Add(time.Duration(t.winStart)), t.t0.Add(time.Duration(t.winEnd)))
	base := len(res.spans)
	for _, sp := range spans {
		sp.ID += base
		sp.Root += base
		if sp.Parent > 0 {
			sp.Parent += base
		}
		res.spans = append(res.spans, sp)
	}
}

// probe wraps one object's datatype implementation and codec with spans,
// passed to the program through peepul.Datatype. The probe of the
// writing node also keeps the operations it saw, in order, for the
// layer replay.
type probe[S, Op, Val any] struct {
	tr      *tracer
	impl    peepul.MRDT[S, Op, Val]
	codec   peepul.Codec[S]
	capture bool

	mu     sync.Mutex
	ops    []Op
	marked int  // how many of ops the set-up issued
	mute   bool // replay of the set-up's operations records no spans

	encBytes, encN atomic.Int64
}

func (p *probe[S, Op, Val]) Init() S { return p.impl.Init() }

func (p *probe[S, Op, Val]) Do(op Op, s S, t peepul.Timestamp) (S, Val) {
	if p.capture {
		p.mu.Lock()
		p.ops = append(p.ops, op)
		p.mu.Unlock()
	}
	defer p.begin("dt.do")()
	return p.impl.Do(op, s, t)
}

func (p *probe[S, Op, Val]) begin(name string) func() {
	if p.mute {
		return nop
	}
	return p.tr.begin(name)
}

// mark notes that the operations captured so far belong to the set-up.
func (p *probe[S, Op, Val]) mark() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.marked = len(p.ops)
	p.mu.Unlock()
}

func (p *probe[S, Op, Val]) Merge(lca, a, b S) S {
	defer p.begin("dt.merge")()
	return p.impl.Merge(lca, a, b)
}

func (p *probe[S, Op, Val]) Encode(s S) []byte {
	defer p.begin("codec.encode")()
	b := p.codec.Encode(s)
	p.encBytes.Add(int64(len(b)))
	p.encN.Add(1)
	return b
}

func (p *probe[S, Op, Val]) Decode(b []byte) (S, error) {
	defer p.begin("codec.decode")()
	return p.codec.Decode(b)
}

// captured returns the operations the probe saw so far, and how many
// of them the set-up issued.
func (p *probe[S, Op, Val]) captured() (ops []Op, setup int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Op(nil), p.ops...), p.marked
}

// instrument returns d with its implementation and codec behind a probe
// in a traced round, and d itself (and a nil probe) otherwise.
func instrument[S, Op, Val any](r *round, d peepul.Datatype[S, Op, Val], capture bool) (peepul.Datatype[S, Op, Val], *probe[S, Op, Val]) {
	if r.tr == nil {
		return d, nil
	}
	p := &probe[S, Op, Val]{tr: r.tr, impl: d.Impl, codec: d.Codec, capture: capture}
	d.Impl, d.Codec = p, p
	return d, p
}

// netMeter collects what the metering transport saw on the connections
// the nodes dialed: one dialed connection is one sync session.
type netMeter struct {
	mu       sync.Mutex
	sessions []*session
}

type session struct {
	start          time.Time
	endNs          atomic.Int64 // since start; 0 while open
	reads, writes  atomic.Int64
	bytesR, bytesW atomic.Int64
	readWaitNs     atomic.Int64
}

// fold reports the sessions that ran inside the timed section.
func (m *netMeter) fold(res *result, from, to time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.sessions {
		dur := time.Duration(s.endNs.Load())
		if dur == 0 || s.start.Before(from) || s.start.Add(dur).After(to) {
			continue
		}
		res.add("session_ms", ms(dur), 1)
		res.add("conn_ops_per_session", float64(s.reads.Load()+s.writes.Load()), 1)
		res.add("bytes_per_session", float64(s.bytesR.Load()+s.bytesW.Load()), 1)
		res.add("net_wait_share", float64(s.readWaitNs.Load()), float64(dur.Nanoseconds()))
	}
}

// meterTransport wraps a node's transport so every connection the node
// dials is metered. It sits outside faultnet's wrapper, so a Read's wait
// includes the injected latency.
type meterTransport struct {
	inner peepul.Transport
	m     *netMeter
}

func (t meterTransport) Listen(addr string) (net.Listener, error) { return t.inner.Listen(addr) }

func (t meterTransport) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := t.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	s := &session{start: time.Now()}
	t.m.mu.Lock()
	t.m.sessions = append(t.m.sessions, s)
	t.m.mu.Unlock()
	return &meterConn{Conn: c, s: s}, nil
}

type meterConn struct {
	net.Conn
	s *session
}

func (c *meterConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.s.readWaitNs.Add(time.Since(t0).Nanoseconds())
	c.s.reads.Add(1)
	c.s.bytesR.Add(int64(n))
	return n, err
}

func (c *meterConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.s.writes.Add(1)
	c.s.bytesW.Add(int64(n))
	return n, err
}

func (c *meterConn) Close() error {
	c.s.endNs.CompareAndSwap(0, time.Since(c.s.start).Nanoseconds())
	return c.Conn.Close()
}

// nodeOpts returns the options that put a node on transport t, metered
// and with the program's own registry on in a traced round. A nil t
// means plain TCP, which an untraced node needs no option for.
func (r *round) nodeOpts(t peepul.Transport) []peepul.NodeOption {
	if r.tr == nil {
		if t == nil {
			return nil
		}
		return []peepul.NodeOption{peepul.WithTransport(t)}
	}
	if t == nil {
		t = peepul.TCPTransport{}
	}
	return []peepul.NodeOption{
		peepul.WithTransport(meterTransport{inner: t, m: &r.tr.net}),
		peepul.WithObservability(),
	}
}
