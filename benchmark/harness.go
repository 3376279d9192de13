package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// config is one invocation's input: everything a run depends on besides
// the code under test.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// toy shrinks every workload to a few dozen operations, for the
	// package's own test; the numbers of a toy run mean nothing.
	toy bool
}

// workload is one named scenario. A run repeats its round — fresh
// set-up, a fixed amount of timed work, the oracle, teardown — until the
// run's seconds are used, so the amount of work behind every sample is
// the same on every machine and only the sample count follows the clock.
type workload struct {
	name string
	// op says what the headline operation behind op_p50_ms/op_mean_ms is.
	op    string
	why   string
	round func(r *round) error
}

// roundRec is what one round measured.
type roundRec struct {
	traced      bool
	setupS      float64
	op          []float64 // headline latencies, ms
	do          []float64 // Handle.Do latencies, µs (from the due instant in open loops)
	late        []float64 // open-loop generator lateness, ms
	hop1, hop2  []float64 // mesh-propagate only: A→B and B→C lag, ms
	storedBytes int64
	storedOps   int
	wireBytes   int64
	wireOps     int
	wireCommits int64
	heapMB      float64
	timedS      float64
}

// result accumulates a run.
type result struct {
	rounds []*roundRec
	// mu guards the failure accounting, which load goroutines share.
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	// layer holds the per-layer observations of traced rounds as
	// numerator/denominator pairs: a mean time adds (µs, 1) per sample,
	// a ratio adds (part, whole), a count adds (n, 1) once per round
	// and so reads as its mean over the traced rounds.
	layer map[string]*[2]float64
	spans []span
}

// round is the context a workload's round function runs in.
type round struct {
	cfg   config
	rng   *rand.Rand
	tr    *tracer // nil unless this round is traced
	dir   string  // scratch directory of this round
	res   *result
	rec   *roundRec
	start time.Time // of the round, which begins with its set-up
	timed time.Time // of the timed section
}

// n picks an operation count: the full size, or the toy one.
func (r *round) n(full, toy int) int {
	if r.cfg.toy {
		return toy
	}
	return full
}

// setupDone ends the round's untimed set-up and opens its timed section.
// Only spans, sessions and captured operations inside the timed section
// feed the per-layer metrics; pr is the round's capturing probe.
func (r *round) setupDone(pr interface{ mark() }) {
	r.rec.setupS = time.Since(r.start).Seconds()
	r.timed = time.Now()
	if r.tr != nil {
		pr.mark()
		r.tr.winStart = time.Since(r.tr.t0).Nanoseconds()
	}
}

// timedDone closes the timed section.
func (r *round) timedDone() {
	r.rec.timedS = time.Since(r.timed).Seconds()
	if r.tr != nil {
		r.tr.winEnd = time.Since(r.tr.t0).Nanoseconds()
	}
}

// attempt counts n operations as attempted.
func (r *round) attempt(n int) {
	r.res.mu.Lock()
	r.res.attempted += n
	r.res.mu.Unlock()
}

// fail counts one attempted operation as failed and keeps the first few
// messages for the report.
func (r *round) fail(format string, args ...any) {
	r.res.mu.Lock()
	defer r.res.mu.Unlock()
	r.res.failed++
	if len(r.res.errs) < 8 {
		r.res.errs = append(r.res.errs, fmt.Sprintf(format, args...))
	}
}

// check counts one oracle check, failed unless ok.
func (r *round) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.fail(format, args...)
	}
}

// add records a per-layer observation (traced rounds only).
func (r *round) add(name string, num, den float64) {
	if r.tr == nil {
		return
	}
	r.res.add(name, num, den)
}

func (res *result) add(name string, num, den float64) {
	res.mu.Lock()
	defer res.mu.Unlock()
	a := res.layer[name]
	if a == nil {
		a = new([2]float64)
		res.layer[name] = a
	}
	a[0] += num
	a[1] += den
}

// span opens a root or child span on the calling goroutine; the returned
// function closes it. Untraced rounds pay one nil check.
func (r *round) span(name string) func() {
	if r.tr == nil {
		return nop
	}
	return r.tr.begin(name)
}

func nop() {}

// heap records the live heap after a forced collection; call it at the
// end of the timed section while the nodes are still open.
func (r *round) heap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.rec.heapMB = float64(ms.HeapInuse) / (1 << 20)
}

// payload draws a printable message of n bytes from the run's PRNG.
func (r *round) payload(n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.rng.Intn(len(alphabet))]
	}
	return string(b)
}

// openLoop issues up to n operations from the calling goroutine on a
// schedule that does not wait for them: operation i is due gap() after
// operation i-1 was due, and is timed from that instant, so a stalled
// operation delays the ones behind it and that wait is theirs. It stops
// early when stop is closed. do reports failure by returning an error.
func (r *round) openLoop(n int, gap func() time.Duration, stop <-chan struct{}, do func(i int, due time.Time) error) {
	due := time.Now()
	for i := 0; i < n; i++ {
		due = due.Add(gap())
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		r.rec.late = append(r.rec.late, ms(time.Since(due)))
		r.attempt(1)
		if err := do(i, due); err != nil {
			r.fail("op %d: %v", i, err)
			continue
		}
		r.rec.do = append(r.rec.do, us(time.Since(due)))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runWorkload runs rounds of w until cfg.seconds are used (at least
// three, so setup_s is a median), then folds them into metrics.
func runWorkload(w workload, cfg config) (*result, error) {
	res := &result{layer: map[string]*[2]float64{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	tmp, err := os.MkdirTemp(".", ".bench-tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	minRounds := 3
	if cfg.toy {
		minRounds = 2
	}
	begin := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minRounds && time.Since(begin)+last > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
		r := &round{cfg: cfg, rng: rng, res: res, rec: &roundRec{}}
		// A traced run keeps its second round untraced (the first runs
		// cold): the difference between it and the traced rounds is
		// the tracing overhead.
		if cfg.trace && i != 1 {
			r.tr = newTracer()
			r.rec.traced = true
		}
		r.dir = fmt.Sprintf("%s/r%d", tmp, i)
		if err := os.Mkdir(r.dir, 0o755); err != nil {
			return nil, err
		}
		r.start = time.Now()
		if err := w.round(r); err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		last = time.Since(r.start)
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
		if r.tr != nil {
			r.tr.fold(res)
		}
		res.rounds = append(res.rounds, r.rec)
	}
	return res, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value; only the
	// human-readable table prints it.
	N int `json:"-"`
}

// pool concatenates one sample kind over the rounds that match traced.
func (res *result) pool(traced bool, pick func(*roundRec) []float64) []float64 {
	var out []float64
	for _, rec := range res.rounds {
		if rec.traced == traced {
			out = append(out, pick(rec)...)
		}
	}
	return out
}

func opSamples(rec *roundRec) []float64 { return rec.op }

// endToEnd folds the untraced rounds into the end-to-end metrics:
// latencies pooled over every timed sample of the run, set-up and heap
// as medians over rounds.
func (res *result) endToEnd() map[string]metricValue {
	op := res.pool(false, opSamples)
	var setups, heaps []float64
	var bytes int64
	var ops int
	for _, rec := range res.rounds {
		setups = append(setups, rec.setupS)
		if rec.traced {
			continue
		}
		heaps = append(heaps, rec.heapMB)
		bytes += rec.storedBytes
		ops += rec.storedOps
	}
	return map[string]metricValue{
		"setup_s":             {median(setups), "s", len(setups)},
		"op_p50_ms":           {median(op), "ms", len(op)},
		"op_mean_ms":          {mean(op), "ms", len(op)},
		"stored_bytes_per_op": {ratio(float64(bytes), float64(ops)), "B/op", ops},
		"heap_mb":             {median(heaps), "MB", len(heaps)},
	}
}

// perLayer folds the traced rounds into the per-layer metrics: every
// name in layerMetrics is present, zero where the layer was idle.
func (res *result) perLayer() map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range layerMetrics {
		a := res.layer[m.Name]
		v := metricValue{Unit: m.Unit}
		if a != nil {
			v.Value, v.N = ratio(a[0], a[1]), int(a[1])
		}
		out[m.Name] = v
	}
	for name, v := range res.unbounded(true) {
		v.Unit = out[name].Unit
		out[name] = v
	}
	// The first round of a process can run cold, so the overhead is
	// taken between the untraced second round and the traced rounds
	// after it.
	if len(res.rounds) > 2 {
		var traced []float64
		for _, rec := range res.rounds[2:] {
			traced = append(traced, rec.op...)
		}
		base := median(res.rounds[1].op)
		v := out["trace_overhead_pct"]
		v.Value, v.N = 100*ratio(median(traced)-base, base), len(traced)
		out["trace_overhead_pct"] = v
	}
	return out
}

// unbounded computes, from the samples of the traced or the untraced
// rounds, the caller-visible numbers that carry no bound: tails, stall
// share, throughput, wire bytes, generator lateness. The traced run
// reports them among the per-layer metrics; an untraced run prints
// them for the reader.
func (res *result) unbounded(traced bool) map[string]metricValue {
	pick := func(f func(*roundRec) []float64) []float64 { return res.pool(traced, f) }
	op, do := pick(opSamples), pick(func(rec *roundRec) []float64 { return rec.do })
	late := pick(func(rec *roundRec) []float64 { return rec.late })
	hop1 := pick(func(rec *roundRec) []float64 { return rec.hop1 })
	hop2 := pick(func(rec *roundRec) []float64 { return rec.hop2 })
	stalled := 0
	for _, d := range do {
		if d > 1000 {
			stalled++
		}
	}
	var wireBytes, wireCommits int64
	var wireOps int
	var timed float64
	for _, rec := range res.rounds {
		if rec.traced == traced {
			wireBytes += rec.wireBytes
			wireOps += rec.wireOps
			wireCommits += rec.wireCommits
			timed += rec.timedS
		}
	}
	return map[string]metricValue{
		"op_p90_ms":             {Value: quantile(op, 0.90), N: len(op)},
		"op_p99_ms":             {Value: quantile(op, 0.99), N: len(op)},
		"do_p50_us":             {Value: median(do), N: len(do)},
		"do_p99_us":             {Value: quantile(do, 0.99), N: len(do)},
		"do_mean_us":            {Value: mean(do), N: len(do)},
		"do_ops_s":              {Value: ratio(float64(len(do)), timed), N: len(do)},
		"stall_share":           {Value: ratio(float64(stalled), float64(len(do))), N: len(do)},
		"generator_late_p99_ms": {Value: quantile(late, 0.99), N: len(late)},
		"hop1_lag_ms":           {Value: median(hop1), N: len(hop1)},
		"hop2_lag_ms":           {Value: median(hop2), N: len(hop2)},
		"wire_bytes_per_op":     {Value: ratio(float64(wireBytes), float64(wireOps)), N: wireOps},
		"wire_bytes_per_commit": {Value: ratio(float64(wireBytes), float64(wireCommits)), N: int(wireCommits)},
		"failed_share":          {Value: ratio(float64(res.failed), float64(res.attempted)), N: res.attempted},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
