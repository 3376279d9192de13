package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/faultnet"
	"repro/internal/orset"
	"repro/peepul"
)

// The six workloads. Each stresses a different set of layers; README.md
// has the table of which per-layer metric should move which end-to-end
// metric on which of them, and which should stay put.
var workloads = []workload{
	{
		name:  "write-grow",
		op:    "Handle.Do(append) on an in-memory mergeable-log growing from 1000 to 4000 entries, 1 client, closed loop",
		why:   "op = Handle.Do(append), in-memory log growing 1000 to 4000 entries: encode, SHA-256 and delta.Make dominate while disk, network and locks idle, so an O(op) commit shows here",
		round: writeGrow,
	},
	{
		name:  "write-fsync",
		op:    "Handle.Do(inc) on a durable pn-counter with fsync on every commit, 2 clients on one object, closed loop",
		why:   "op = Handle.Do(inc), durable pn-counter, fsync per commit, 2 clients: O(1) state, so log append, fsync and the store lock dominate; group commit shows here, faster encoding must not",
		round: writeFsync,
	},
	{
		name:  "write-under-sync",
		op:    "Handle.Do(inc), open loop at 200/s timed from the due instant, while the node syncs a peer over a 50 ms RTT link",
		why:   "op = Handle.Do(inc), open loop 200/s from the due instant, while the node syncs a peer over 50 ms RTT: the cost is the node-wide sync freeze, so only narrowing the freeze shows here",
		round: writeUnderSync,
	},
	{
		name:  "mesh-propagate",
		op:    "lag from an or-set add being due on node A to the first State() on node C that holds it, line A-B-C at 2 ms one-way, open loop 50/s",
		why:   "op = lag from an add due on A to the first State() on C holding it, line A-B-C at 2 ms one-way, 50/s: mesh push, replica sessions, recon and wire two hops deep on small states",
		round: meshPropagate,
	},
	{
		name:  "catchup-deep",
		op:    "one Node.SyncWith over loopback TCP between two replicas that share a 3000-commit or-set history and diverged by 64 adds each",
		why:   "op = one SyncWith over loopback TCP between replicas sharing 3000 or-set commits, diverged by 64 adds each: recon descent, ExportSet, packed codecs, Import, merge - the store's read side",
		round: catchupDeep,
	},
	{
		name:  "reopen-deep",
		op:    "NewNode(WithStorage)+Open of 4 mergeable-logs of 1000 commits each, then the first State() on each",
		why:   "op = NewNode(WithStorage)+Open of 4 logs of 1000 commits plus the first State() on each: pack and disk used for recovery and reads; a write-path change that slows them shows here",
		round: reopenDeep,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type (
	logHandle = peepul.Handle[peepul.MLogState, peepul.MLogOp, peepul.MLogVal]
	ctrHandle = peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]
	setHandle = peepul.Handle[orset.SpaceState, peepul.OrSetOp, peepul.OrSetVal]
)

var inc = peepul.CounterOp{Kind: peepul.CounterInc, N: 1}

// timedDo issues one closed-loop Handle.Do and records its latency as
// both a Do sample and the workload's headline sample.
func timedDo[S, Op, Val any](r *round, h *peepul.Handle[S, Op, Val], op Op, out *[]float64) {
	end := r.span("peepul.Do")
	t0 := time.Now()
	_, err := h.Do(op)
	d := time.Since(t0)
	end()
	if err != nil {
		*out = append(*out, -1)
		return
	}
	*out = append(*out, us(d))
}

// recordDos folds closed-loop Do latencies (µs, -1 for a failed call)
// into the round.
func (r *round) recordDos(lat []float64, headline bool) {
	r.attempt(len(lat))
	for _, d := range lat {
		if d < 0 {
			r.fail("Handle.Do failed")
			continue
		}
		r.rec.do = append(r.rec.do, d)
		if headline {
			r.rec.op = append(r.rec.op, d/1e3)
		}
	}
}

// waitFor polls cond every few milliseconds until it holds or the
// timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// packedBytes is the resident pack size of a handle's store.
func packedBytes[S, Op, Val any](h *peepul.Handle[S, Op, Val]) int64 {
	return h.Store().PackStats().PackedBytes
}

// packShape records the pack layer's own counters for one store.
func packShape[S, Op, Val any](r *round, h *peepul.Handle[S, Op, Val]) {
	ps := h.Store().PackStats()
	r.add("snapshot_share", float64(ps.Snapshots), float64(ps.Objects))
}

// sameHeads reports whether every handle's branch is at one commit.
func sameHeads[S, Op, Val any](hs ...*peepul.Handle[S, Op, Val]) bool {
	first, err := hs[0].Store().HeadHash(hs[0].Branch())
	if err != nil {
		return false
	}
	for _, h := range hs[1:] {
		if head, err := h.Store().HeadHash(h.Branch()); err != nil || head != first {
			return false
		}
	}
	return true
}

// checkFleet is the oracle every fleet ends on: identical heads and a
// clean pack on every node.
func checkFleet[S, Op, Val any](r *round, hs ...*peepul.Handle[S, Op, Val]) {
	r.check(sameHeads(hs...), "fleet heads differ")
	for _, h := range hs {
		err := h.Store().VerifyPack()
		r.check(err == nil, "VerifyPack on %s: %v", h.Node().Name(), err)
	}
}

// 1. write-grow

func writeGrow(r *round) error {
	prefill, timed := r.n(1000, 20), r.n(3000, 60)
	node, err := peepul.NewNode("a", 1, r.nodeOpts(nil)...)
	if err != nil {
		return err
	}
	defer node.Close()
	dt, pr := instrument(r, peepul.MLog, true)
	h, err := peepul.Open(node, dt, "log")
	if err != nil {
		return err
	}
	want := make([]string, 0, prefill+timed)
	for i := 0; i < prefill; i++ {
		msg := r.payload(24)
		want = append(want, msg)
		if _, err := h.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: msg}); err != nil {
			return err
		}
	}
	r.setupDone(pr)

	before := packedBytes(h)
	lat := make([]float64, 0, timed)
	for i := 0; i < timed; i++ {
		msg := r.payload(24)
		want = append(want, msg)
		timedDo(r, h, peepul.MLogOp{Kind: peepul.MLogAppend, Msg: msg}, &lat)
	}
	r.timedDone()
	r.recordDos(lat, true)
	r.rec.storedBytes, r.rec.storedOps = packedBytes(h)-before, timed
	r.add("pack_bytes_per_op", float64(r.rec.storedBytes), float64(timed))
	packShape(r, h)
	r.heap()

	// Oracle: the log is the sequential fold of the generated appends,
	// newest first.
	st, err := h.State()
	r.check(err == nil && logEquals(st, want), "log differs from the fold of %d appends", len(want))
	err = h.Store().VerifyPack()
	r.check(err == nil, "VerifyPack: %v", err)
	replayLayers(r, peepul.MLog, pr, nil)
	return nil
}

// logEquals checks a mergeable-log state (newest first) against the
// appended messages (oldest first).
func logEquals(st peepul.MLogState, want []string) bool {
	if len(st) != len(want) {
		return false
	}
	for i, e := range st {
		if e.Msg != want[len(want)-1-i] {
			return false
		}
	}
	return true
}

// 2. write-fsync

func writeFsync(r *round) error {
	const clients = 2
	prefill, perClient := r.n(1000, 10), r.n(2500, 20)
	durable := []peepul.NodeOption{peepul.WithStorage(r.dir), peepul.WithFsync(peepul.FsyncAlways)}
	node, err := peepul.NewNode("a", 1, append(durable, r.nodeOpts(nil)...)...)
	if err != nil {
		return err
	}
	defer func() { node.Close() }()
	dt, pr := instrument(r, peepul.PNCounter, true)
	h, err := peepul.Open(node, dt, "hits")
	if err != nil {
		return err
	}
	for i := 0; i < prefill; i++ {
		if _, err := h.Do(inc); err != nil {
			return err
		}
	}
	r.setupDone(pr)

	before, _ := h.StorageStats()
	packBefore := packedBytes(h)
	lats := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := range lats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]float64, 0, perClient)
			for i := 0; i < perClient; i++ {
				timedDo(r, h, inc, &lat)
			}
			lats[c] = lat
		}()
	}
	wg.Wait()
	r.timedDone()
	for _, lat := range lats {
		r.recordDos(lat, true)
	}
	after, _ := h.StorageStats()
	ops := clients * perClient
	r.rec.storedBytes, r.rec.storedOps = after.Bytes-before.Bytes, ops
	r.add("fsyncs_per_op", float64(after.Fsyncs-before.Fsyncs), float64(ops))
	r.add("records_per_op", float64(after.Records-before.Records), float64(ops))
	r.add("pack_bytes_per_op", float64(packedBytes(h)-packBefore), float64(ops))
	packShape(r, h)
	diskTimes(r, node)
	r.heap()

	// Oracle: every acknowledged inc is in the counter, before and after
	// a restart.
	want := int64(prefill + ops)
	st, err := h.State()
	r.check(err == nil && st.P == want && st.N == 0, "counter = %+v, want %d incs", st, want)
	if err := node.Close(); err != nil {
		return err
	}
	node, err = peepul.NewNode("a", 1, durable...)
	if err != nil {
		return err
	}
	h, err = peepul.Open(node, peepul.PNCounter, "hits")
	if err != nil {
		return err
	}
	st, err = h.State()
	r.check(err == nil && st.P == want, "reopened counter = %+v, want %d incs", st, want)
	err = h.Store().VerifyPack()
	r.check(err == nil, "VerifyPack: %v", err)
	policy := peepul.FsyncAlways
	replayLayers(r, peepul.PNCounter, pr, &policy)
	return nil
}

// 3. write-under-sync

func writeUnderSync(r *round) error {
	const (
		rate  = 200 // incs per second on A
		pause = 100 * time.Millisecond
	)
	prefill, cycles := r.n(300, 10), r.n(2, 1)
	oneWay := time.Duration(r.n(25, 2)) * time.Millisecond
	fn := faultnet.New(r.rng.Int63())
	a, err := peepul.NewNode("a", 1, r.nodeOpts(fn.Transport("a"))...)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := peepul.NewNode("b", 2, r.nodeOpts(fn.Transport("b"))...)
	if err != nil {
		return err
	}
	defer b.Close()
	dt, pr := instrument(r, peepul.PNCounter, true)
	ha, err := peepul.Open(a, dt, "hits")
	if err != nil {
		return err
	}
	dtB, _ := instrument(r, peepul.PNCounter, false)
	hb, err := peepul.Open(b, dtB, "hits")
	if err != nil {
		return err
	}
	if err := b.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	for i := 0; i < prefill; i++ {
		if _, err := ha.Do(inc); err != nil {
			return err
		}
	}
	// B joins over a link a fifth as slow as the timed one: the set-up
	// is then a sync session's round trips too, long enough to repeat.
	fn.SetDefaultLink(faultnet.Link{Latency: oneWay / 5})
	if err := a.SyncWith(b.Addr()); err != nil {
		return err
	}
	fn.SetDefaultLink(faultnet.Link{Latency: oneWay})
	r.setupDone(pr)

	// The sync loop: B commits, A syncs it over the slow link, pauses.
	// A's writer runs open loop until the last cycle ends, so every
	// round covers whole cycles and the share of writes that meet a
	// session is the same in each.
	before := packedBytes(ha) + packedBytes(hb)
	stats0 := a.Stats()
	stop := make(chan struct{})
	var bIncs int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for c := 0; c < cycles; c++ {
			r.attempt(2)
			if _, err := hb.Do(inc); err != nil {
				r.fail("B inc: %v", err)
			} else {
				bIncs++
			}
			end := r.span("peepul.SyncWith")
			err := a.SyncWith(b.Addr())
			end()
			if err != nil {
				r.fail("SyncWith: %v", err)
			}
			time.Sleep(pause)
		}
	}()
	// A fixed schedule: the freeze lasts hundreds of intervals, so evenly
	// spaced writes sample its phases evenly in every round.
	every := func() time.Duration { return time.Second / rate }
	r.openLoop(1<<30, every, stop, func(int, time.Time) error {
		defer r.span("peepul.Do")()
		_, err := ha.Do(inc)
		return err
	})
	wg.Wait()
	r.timedDone()
	aIncs := len(r.rec.do)
	for _, d := range r.rec.do {
		r.rec.op = append(r.rec.op, d/1e3)
	}
	r.rec.storedBytes, r.rec.storedOps = packedBytes(ha)+packedBytes(hb)-before, aIncs+bIncs
	r.add("pack_bytes_per_op", float64(r.rec.storedBytes), float64(r.rec.storedOps))
	packShape(r, ha)
	stats1 := a.Stats()
	r.rec.wireBytes = stats1.BytesSent + stats1.BytesRecv - stats0.BytesSent - stats0.BytesRecv
	r.rec.wireCommits = stats1.CommitsSent + stats1.CommitsRecv - stats0.CommitsSent - stats0.CommitsRecv
	r.rec.wireOps = aIncs + bIncs
	r.heap()

	// Oracle: after a last sync over a perfect link both replicas hold
	// every inc and agree on the head.
	fn.SetDefaultLink(faultnet.Link{})
	r.attempt(1)
	if err := a.SyncWith(b.Addr()); err != nil {
		r.fail("final SyncWith: %v", err)
	}
	want := int64(prefill + aIncs + bIncs)
	for _, h := range []*ctrHandle{ha, hb} {
		st, err := h.State()
		r.check(err == nil && st.P == want, "%s counter = %+v, want %d incs", h.Node().Name(), st, want)
	}
	checkFleet(r, ha, hb)
	fleetCounters(r, a, b)
	replayLayers(r, peepul.PNCounter, pr, nil)
	return nil
}

// 4. mesh-propagate

func meshPropagate(r *round) error {
	const (
		rate   = 50 // adds per second on A
		oneWay = 2 * time.Millisecond
	)
	prefill, timed := r.n(100, 5), r.n(100, 10)
	fn := faultnet.New(r.rng.Int63())
	fn.SetDefaultLink(faultnet.Link{Latency: oneWay})
	names := []string{"a", "b", "c"}
	nodes := make([]*peepul.Node, len(names))
	hs := make([]*setHandle, len(names))
	var pr *probe[orset.SpaceState, peepul.OrSetOp, peepul.OrSetVal]
	for i, name := range names {
		opts := append(r.nodeOpts(fn.Transport(name)),
			peepul.WithMeshInterval(500*time.Millisecond), peepul.WithMeshJitter(0))
		node, err := peepul.NewNode(name, i+1, opts...)
		if err != nil {
			return err
		}
		defer node.Close()
		dt, p := instrument(r, peepul.OrSetSpace, i == 0)
		if i == 0 {
			pr = p
		}
		if hs[i], err = peepul.Open(node, dt, "members"); err != nil {
			return err
		}
		if err := node.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		nodes[i] = node
	}
	for i := 0; i+1 < len(nodes); i++ {
		nodes[i].AddPeer(nodes[i+1].Addr())
		nodes[i+1].AddPeer(nodes[i].Addr())
	}
	ids := distinctIDs(r, prefill+timed)
	for _, id := range ids[:prefill] {
		if _, err := hs[0].Do(peepul.OrSetOp{Kind: peepul.OrSetAdd, E: id}); err != nil {
			return err
		}
	}
	if !waitFor(10*time.Second, func() bool { return sameHeads(hs...) }) {
		return fmt.Errorf("mesh did not converge on the prefill")
	}
	r.setupDone(pr)

	// Watchers stamp the first State() that holds each pending element:
	// always on C (the headline), and on B in a traced round, which
	// splits the lag into its two hops.
	timedIDs := ids[prefill:]
	due := make([]time.Time, len(timedIDs))
	var dueMu sync.Mutex
	issued := 0
	watch := func(ctx context.Context, h *setHandle, seen []time.Time, done chan<- struct{}) {
		defer close(done)
		next := 0
		for range h.Watch(ctx) {
			st, err := h.State()
			if err != nil {
				continue
			}
			now := time.Now()
			dueMu.Lock()
			n := issued
			dueMu.Unlock()
			for next < n && hasElem(st, timedIDs[next]) {
				seen[next] = now
				next++
			}
			if next == len(timedIDs) {
				return
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seenC, doneC := make([]time.Time, len(timedIDs)), make(chan struct{})
	go watch(ctx, hs[2], seenC, doneC)
	var seenB []time.Time
	doneB := make(chan struct{})
	if r.tr != nil {
		seenB = make([]time.Time, len(timedIDs))
		go watch(ctx, hs[1], seenB, doneB)
	} else {
		close(doneB)
	}

	var before int64
	var sent0 int64
	for i, h := range hs {
		before += packedBytes(h)
		sent0 += nodes[i].Stats().BytesSent
	}
	// Poisson arrivals, as independent callers make: on a fixed schedule
	// the writer and the push sessions lock phase, and a whole round
	// sits in one of two modes 30 ms apart.
	poisson := func() time.Duration {
		return time.Duration(r.rng.ExpFloat64() / rate * float64(time.Second))
	}
	r.openLoop(len(timedIDs), poisson, nil, func(i int, d time.Time) error {
		dueMu.Lock()
		due[i] = d
		issued = i + 1
		dueMu.Unlock()
		defer r.span("peepul.Do")()
		_, err := hs[0].Do(peepul.OrSetOp{Kind: peepul.OrSetAdd, E: timedIDs[i]})
		return err
	})
	// Every add must become visible on C, and the fleet must settle on
	// one head; a miss within the bound counts as failed.
	select {
	case <-doneC:
	case <-time.After(5 * time.Second):
	}
	converged := waitFor(5*time.Second, func() bool { return sameHeads(hs...) })
	r.timedDone()
	cancel()
	<-doneC
	<-doneB
	r.attempt(len(timedIDs))
	for i := range timedIDs {
		if seenC[i].IsZero() {
			r.fail("add %d never became visible on C", i)
			continue
		}
		r.rec.op = append(r.rec.op, ms(seenC[i].Sub(due[i])))
		if seenB != nil && !seenB[i].IsZero() {
			r.rec.hop1 = append(r.rec.hop1, ms(seenB[i].Sub(due[i])))
			r.rec.hop2 = append(r.rec.hop2, ms(seenC[i].Sub(seenB[i])))
		}
	}
	r.check(converged, "fleet heads differ after 5 s")
	var after, sent1 int64
	for i, h := range hs {
		after += packedBytes(h)
		sent1 += nodes[i].Stats().BytesSent
	}
	r.rec.storedBytes, r.rec.storedOps = after-before, len(timedIDs)
	r.add("pack_bytes_per_op", float64(r.rec.storedBytes), float64(r.rec.storedOps))
	packShape(r, hs[0])
	r.rec.wireBytes, r.rec.wireOps = sent1-sent0, len(timedIDs)
	r.heap()

	// Oracle: or-set membership on every node is the fold of the adds.
	want := slices.Clone(ids)
	slices.Sort(want)
	for _, h := range hs {
		st, err := h.State()
		r.check(err == nil && setEquals(st, want), "%s membership differs from the fold of %d adds", h.Node().Name(), len(want))
	}
	checkFleet(r, hs...)
	fleetCounters(r, nodes...)
	if r.tr != nil {
		var pushes int64
		for _, ps := range nodes[0].MeshStats() {
			pushes += ps.Pushes
		}
		r.add("ops_per_push", float64(prefill+len(timedIDs)), float64(pushes))
	}
	replayLayers(r, peepul.OrSetSpace, pr, nil)
	return nil
}

// distinctIDs draws n distinct positive element ids.
func distinctIDs(r *round, n int) []int64 {
	seen := make(map[int64]bool, n)
	ids := make([]int64, 0, n)
	for len(ids) < n {
		id := r.rng.Int63n(1<<40) + 1
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

func hasElem(st orset.SpaceState, e int64) bool {
	_, ok := slices.BinarySearchFunc(st, e, func(p orset.Pair, e int64) int {
		switch {
		case p.E < e:
			return -1
		case p.E > e:
			return 1
		}
		return 0
	})
	return ok
}

// setEquals checks an or-set state against the sorted expected members.
func setEquals(st orset.SpaceState, want []int64) bool {
	if len(st) != len(want) {
		return false
	}
	for i, p := range st {
		if p.E != want[i] {
			return false
		}
	}
	return true
}

// 5. catchup-deep

func catchupDeep(r *round) error {
	history, syncs, adds := r.n(3000, 40), r.n(20, 2), r.n(64, 4)
	a, err := peepul.NewNode("a", 1, r.nodeOpts(nil)...)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := peepul.NewNode("b", 2, r.nodeOpts(nil)...)
	if err != nil {
		return err
	}
	defer b.Close()
	dt, pr := instrument(r, peepul.OrSetSpace, true)
	ha, err := peepul.Open(a, dt, "members")
	if err != nil {
		return err
	}
	dtB, _ := instrument(r, peepul.OrSetSpace, false)
	hb, err := peepul.Open(b, dtB, "members")
	if err != nil {
		return err
	}
	for _, n := range []*peepul.Node{a, b} {
		if err := n.Listen("127.0.0.1:0"); err != nil {
			return err
		}
	}
	ids := distinctIDs(r, history+syncs*adds*2)
	for _, id := range ids[:history] {
		if _, err := ha.Do(peepul.OrSetOp{Kind: peepul.OrSetAdd, E: id}); err != nil {
			return err
		}
	}
	if err := b.SyncWith(a.Addr()); err != nil {
		return err
	}
	if !sameHeads(ha, hb) {
		return fmt.Errorf("replicas differ after the set-up sync")
	}
	r.setupDone(pr)

	before := packedBytes(ha) + packedBytes(hb)
	stats0 := a.Stats()
	next := ids[history:]
	var lat []float64
	for s := 0; s < syncs; s++ {
		for _, h := range []*setHandle{ha, hb} {
			for i := 0; i < adds; i++ {
				timedDo(r, h, peepul.OrSetOp{Kind: peepul.OrSetAdd, E: next[0]}, &lat)
				next = next[1:]
			}
		}
		r.attempt(1)
		end := r.span("peepul.SyncWith")
		s0 := time.Now()
		err := a.SyncWith(b.Addr())
		d := time.Since(s0)
		end()
		if err != nil {
			r.fail("SyncWith: %v", err)
			continue
		}
		r.rec.op = append(r.rec.op, ms(d))
		r.check(sameHeads(ha, hb), "heads differ after sync %d", s)
	}
	r.timedDone()
	r.recordDos(lat, false)
	stats1 := a.Stats()
	r.rec.storedBytes, r.rec.storedOps = packedBytes(ha)+packedBytes(hb)-before, syncs*adds*2
	r.add("pack_bytes_per_op", float64(r.rec.storedBytes), float64(r.rec.storedOps))
	r.rec.wireBytes = stats1.BytesSent + stats1.BytesRecv - stats0.BytesSent - stats0.BytesRecv
	r.rec.wireCommits = stats1.CommitsSent + stats1.CommitsRecv - stats0.CommitsSent - stats0.CommitsRecv
	r.rec.wireOps = syncs * adds * 2
	packShape(r, ha)
	r.heap()

	// Oracle: both replicas hold the fold of every add, and the
	// reconciliation shipped no commit the receiver already had.
	want := slices.Clone(ids)
	slices.Sort(want)
	for _, h := range []*setHandle{ha, hb} {
		st, err := h.State()
		r.check(err == nil && setEquals(st, want), "%s membership differs from the fold of %d adds", h.Node().Name(), len(want))
	}
	redundant := a.Stats().RedundantCommits + b.Stats().RedundantCommits
	r.check(redundant == 0, "%d redundant commits shipped", redundant)
	checkFleet(r, ha, hb)
	fleetCounters(r, a, b)
	replayLayers(r, peepul.OrSetSpace, pr, nil)
	return nil
}

// 6. reopen-deep

func reopenDeep(r *round) error {
	const objects = 4
	depth, cycles, appends := r.n(1000, 20), r.n(30, 2), 4
	opts := append([]peepul.NodeOption{peepul.WithStorage(r.dir), peepul.WithFsync(peepul.FsyncNever)}, r.nodeOpts(nil)...)
	dt, pr := instrument(r, peepul.MLog, true)
	open := func() (*peepul.Node, []*logHandle, error) {
		node, err := peepul.NewNode("a", 1, opts...)
		if err != nil {
			return nil, nil, err
		}
		hs := make([]*logHandle, objects)
		for i := range hs {
			// Only the first object's probe keeps operations for the
			// replay; the others share its spans.
			d := dt
			if i > 0 && r.tr != nil {
				d, _ = instrument(r, peepul.MLog, false)
			}
			if hs[i], err = peepul.Open(node, d, fmt.Sprintf("log-%d", i)); err != nil {
				node.Close()
				return nil, nil, err
			}
		}
		return node, hs, nil
	}
	want := make([][]string, objects)
	appendAll := func(hs []*logHandle, n int, lat *[]float64) error {
		for i, h := range hs {
			for j := 0; j < n; j++ {
				msg := r.payload(24)
				want[i] = append(want[i], msg)
				if lat != nil {
					timedDo(r, h, peepul.MLogOp{Kind: peepul.MLogAppend, Msg: msg}, lat)
				} else if _, err := h.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: msg}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	node, hs, err := open()
	if err != nil {
		return err
	}
	if err := appendAll(hs, depth, nil); err != nil {
		node.Close()
		return err
	}
	if err := node.Close(); err != nil {
		return err
	}
	r.setupDone(pr)

	var lat []float64
	var bytes0, bytes1, pack0 int64
	for c := 0; c < cycles; c++ {
		r.attempt(1)
		end := r.span("peepul.Open")
		s0 := time.Now()
		node, hs, err := open()
		s1 := time.Now()
		end()
		if err != nil {
			r.fail("reopen: %v", err)
			continue
		}
		states := make([]peepul.MLogState, objects)
		var readErr error
		end = r.span("peepul.State")
		for i, h := range hs {
			if states[i], err = h.State(); err != nil {
				readErr = err
			}
		}
		s2 := time.Now()
		end()
		if readErr != nil {
			r.fail("first read: %v", readErr)
		} else {
			r.rec.op = append(r.rec.op, ms(s2.Sub(s0)))
			r.add("reopen_ms", ms(s1.Sub(s0)), 1)
			r.add("first_read_ms", ms(s2.Sub(s1)), 1)
		}
		// Oracle: what a reopened node reads is what was acknowledged
		// before the close.
		for i := range hs {
			r.check(logEquals(states[i], want[i]), "log-%d differs after reopen %d", i, c)
			if ss, ok := hs[i].StorageStats(); ok {
				if c == 0 {
					bytes0 += ss.Bytes
					pack0 += packedBytes(hs[i])
				}
				if ss.RecoveryMode == "checkpoint" {
					r.add("recovery_checkpoint_share", 1, 1)
				} else {
					r.add("recovery_checkpoint_share", 0, 1)
				}
				r.add("replayed_records", float64(ss.RecoveredRecords), 1)
			}
		}
		appendAll(hs, appends, &lat)
		if c == cycles-1 {
			var pack1 int64
			for _, h := range hs {
				if ss, ok := h.StorageStats(); ok {
					bytes1 += ss.Bytes
				}
				pack1 += packedBytes(h)
				err := h.Store().VerifyPack()
				r.check(err == nil, "VerifyPack: %v", err)
			}
			r.add("pack_bytes_per_op", float64(pack1-pack0), float64(cycles*objects*appends))
			packShape(r, hs[0])
			diskTimes(r, node)
			r.heap()
		}
		r.attempt(1)
		if err := node.Close(); err != nil {
			r.fail("close: %v", err)
		}
	}
	r.timedDone()
	r.recordDos(lat, false)
	r.rec.storedBytes, r.rec.storedOps = bytes1-bytes0, cycles*objects*appends
	policy := peepul.FsyncNever
	replayLayers(r, peepul.MLog, pr, &policy)
	return nil
}
