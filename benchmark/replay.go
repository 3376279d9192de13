package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"repro/internal/delta"
	"repro/internal/disk"
	"repro/internal/recon"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/peepul"
)

// The layer replay. A traced round's in-situ spans can only see the
// program at the seams the public API offers (datatype, codec,
// transport); what happens between them — commit, hash, delta, log
// append, export, frame codecs, import, merge, range fingerprints — is
// timed here, by running the operations the round captured against the
// bare layers, one goroutine, every call in a span. The replay sees the
// same operations at the same state sizes as the round did, so its
// times are the layers' unit costs on this workload, without waiting.

// replayMax bounds how many captured operations a replay applies, and
// replayExchanges how many export/ship/import/merge exchanges it runs.
const (
	replayMax       = 4000
	replayExchanges = 5
	replayDiverge   = 32
)

// tracedPersister is the benchmark-owned store.Persister of the replay:
// a scratch disk.Log with a span around every call the store makes.
type tracedPersister struct {
	begin func(name string) func()
	log   *disk.Log
}

func (p tracedPersister) AppendCommit(h store.Hash, c store.Commit) error {
	defer p.begin("disk.append")()
	return p.log.AppendCommit(h, c)
}

func (p tracedPersister) AppendObject(h store.Hash, o store.ObjectRecord) error {
	defer p.begin("disk.append")()
	return p.log.AppendObject(h, o)
}

func (p tracedPersister) AppendBranch(name string, b store.BranchRecord) error {
	defer p.begin("disk.append")()
	return p.log.AppendBranch(name, b)
}

func (p tracedPersister) AppendBranchDelete(name string) error {
	defer p.begin("disk.append")()
	return p.log.AppendBranchDelete(name)
}

func (p tracedPersister) AppendNextID(id int) error {
	defer p.begin("disk.append")()
	return p.log.AppendNextID(id)
}

func (p tracedPersister) Compact(rs *store.RecoveredState) error { return p.log.Compact(rs) }

// Flush is where the log writes its buffer out and, under FsyncAlways,
// syncs it.
func (p tracedPersister) Flush() error {
	defer p.begin("disk.sync")()
	return p.log.Flush()
}

// replayLayers replays the operations pr captured. fsync is nil for a
// workload whose nodes are in memory: its replay has no disk layer, as
// the round had none.
func replayLayers[S, Op, Val any](r *round, d peepul.Datatype[S, Op, Val], pr *probe[S, Op, Val], fsync *peepul.FsyncPolicy) {
	if r.tr == nil {
		return
	}
	r.add("state_bytes", float64(pr.encBytes.Load()), float64(pr.encN.Load()))
	ops, setup := pr.captured()
	if len(ops) > replayMax {
		ops = ops[:replayMax]
	}
	r.tr.mu.Lock()
	r.tr.replayFrom = len(r.tr.spans)
	r.tr.mu.Unlock()
	if err := replay(r, d, ops, min(setup, len(ops)), fsync); err != nil {
		r.attempt(1)
		r.fail("layer replay: %v", err)
	}
}

// replay applies ops to bare layers; the first setup of them rebuild
// the state the timed section started from and record no spans.
func replay[S, Op, Val any](r *round, d peepul.Datatype[S, Op, Val], ops []Op, setup int, fsync *peepul.FsyncPolicy) error {
	tr := r.tr
	rp := &probe[S, Op, Val]{tr: tr, impl: d.Impl, codec: d.Codec}
	var opts []store.Option
	var log *disk.Log
	dir := r.dir + "/replay"
	if fsync != nil {
		var err error
		if log, _, err = disk.Open(dir, disk.WithFsync(*fsync)); err != nil {
			return err
		}
		defer func() { log.Close() }()
		opts = append(opts, store.WithPersister(tracedPersister{begin: rp.begin, log: log}))
	}

	// store.apply -> dt.do, codec.encode, disk.append, disk.sync; its
	// self time is the commit itself: hash, delta, pack, index.
	a := store.NewAt[S, Op, Val](rp, rp, "a", 0, opts...)
	rp.mute = true
	for i, op := range ops {
		if i == setup {
			rp.mute = false
		}
		end := rp.begin("store.apply")
		_, err := a.Apply("a", op)
		end()
		if err != nil {
			return fmt.Errorf("apply: %w", err)
		}
	}
	rp.mute = false

	// sha256 and delta over the successive encodings the applies
	// produced: the two parts of store.apply's self time that grow with
	// the state.
	var prev []byte
	var patchBytes, stateBytes int
	s := d.Impl.Init()
	for i, op := range ops {
		s, _ = d.Impl.Do(op, s, peepul.Timestamp(i+1))
		enc := d.Codec.Encode(s)
		if i < setup {
			prev = enc
			continue
		}
		end := tr.begin("sha256")
		sha256.Sum256(enc)
		end()
		if prev != nil {
			end = tr.begin("delta.make")
			patch := delta.Make(prev, enc)
			end()
			end = tr.begin("delta.apply")
			_, err := delta.Apply(prev, patch)
			end()
			if err != nil {
				return fmt.Errorf("delta.Apply: %w", err)
			}
			patchBytes += len(patch)
			stateBytes += len(enc)
		}
		prev = enc
	}
	r.add("patch_ratio", float64(patchBytes), float64(stateBytes))

	// The sync path between two bare stores that share the replayed
	// history and then diverge: export -> frame encode -> frame decode
	// -> import -> pull (a three-way merge through dt.merge).
	b := store.NewAt[S, Op, Val](rp, rp, "b", 64)
	all, head, err := a.Export("a")
	if err != nil {
		return err
	}
	if err := b.Import("remote/a", all, head); err != nil {
		return fmt.Errorf("seeding import: %w", err)
	}
	if err := b.Pull("b", "remote/a"); err != nil {
		return err
	}
	tail := ops
	if len(tail) > replayDiverge {
		tail = tail[len(tail)-replayDiverge:]
	}
	for x := 0; x < replayExchanges && len(tail) > 0; x++ {
		for _, op := range tail {
			if _, err := a.Apply("a", op); err != nil {
				return err
			}
			if _, err := b.Apply("b", op); err != nil {
				return err
			}
		}
		fr, err := b.Frontier("b")
		if err != nil {
			return err
		}
		end := tr.begin("store.export")
		commits, head, err := a.ExportSincePacked("a", fr.HaveSet())
		end()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		end = tr.begin("wire.encode")
		err = wire.WriteDeltaPacked(&buf, commits, head)
		end()
		if err != nil {
			return err
		}
		end = tr.begin("wire.decode")
		got, gotHead, err := wire.ReadDelta(&buf)
		end()
		if err != nil {
			return err
		}
		end = tr.begin("store.import")
		err = b.Import("remote/a", got, gotHead)
		end()
		if err != nil {
			return fmt.Errorf("import: %w", err)
		}
		end = tr.begin("store.pull")
		err = b.Pull("b", "remote/a")
		end()
		if err != nil {
			return err
		}
		back, backHead, err := b.Export("b")
		if err != nil {
			return err
		}
		if err := a.Import("remote/b", back, backHead); err != nil {
			return fmt.Errorf("import back: %w", err)
		}
		if err := a.Pull("a", "remote/b"); err != nil {
			return err
		}
	}

	// recon: range fingerprints over the store's commit set, and the
	// cost of adding its items to a fresh tree.
	var lo, hi recon.Item
	for i := range hi {
		hi[i] = 0xff
	}
	items := a.ReconItems(lo, hi, 256)
	for i := 0; i+1 < len(items); i++ {
		end := tr.begin("recon.range")
		a.ReconRange(items[i], items[len(items)-1])
		end()
	}
	var tree recon.Tree
	for _, it := range items {
		end := tr.begin("recon.add")
		tree.Add(it)
		end()
	}

	// Recovery, where there is a log: open it, rebuild the store, read
	// the head state for the first time.
	if log != nil {
		if err := log.Close(); err != nil {
			return err
		}
		end := tr.begin("disk.open")
		relog, rec, err := disk.Open(dir, disk.WithFsync(*fsync))
		end()
		if err != nil {
			return err
		}
		log = relog
		st, err := store.OpenRecovered[S, Op, Val](rp, rp, "a", 0, &rec.State)
		if err != nil {
			return err
		}
		end = tr.begin("store.materialize")
		_, err = st.Head("a")
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// obsValue sums the program's own registry (Node.Metrics, on in traced
// rounds) over the series of one name whose labels include want:
// counters give their value, histograms their sum and count.
func obsValue(nodes []*peepul.Node, name string, want ...string) (sum, count float64) {
	for _, n := range nodes {
	series:
		for _, m := range n.Metrics() {
			if m.Name != name {
				continue
			}
			for i := 0; i+1 < len(want); i += 2 {
				if m.Labels[want[i]] != want[i+1] {
					continue series
				}
			}
			if m.Kind == "histogram" {
				sum += float64(m.Sum)
				count += float64(m.Count)
			} else {
				sum += float64(m.Value)
			}
		}
	}
	return sum, count
}

// diskTimes reads the disk layer's in-situ append and fsync times off
// the node's registry.
func diskTimes(r *round, node *peepul.Node) {
	if r.tr == nil {
		return
	}
	nodes := []*peepul.Node{node}
	sum, n := obsValue(nodes, "peepul_disk_append_ns")
	r.add("disk_append_us", sum/1e3, n)
	sum, n = obsValue(nodes, "peepul_disk_fsync_ns")
	r.add("disk_fsync_us", sum/1e3, n)
}

// fleetCounters reads the replica, recon, wire and mesh counters the
// program already keeps, over every node of a fleet.
func fleetCounters(r *round, nodes ...*peepul.Node) {
	if r.tr == nil {
		return
	}
	_, sessions := obsValue(nodes, "peepul_replica_session_ns", "role", "client")
	ranges, _ := obsValue(nodes, "peepul_recon_ranges_total", "role", "client")
	r.add("recon_ranges_per_session", ranges, sessions)
	frames, _ := obsValue(nodes, "peepul_wire_frames_total", "dir", "out")
	r.add("frames_per_session", frames, sessions)
	busy, _ := obsValue(nodes, "peepul_replica_sessions_total", "role", "client", "outcome", "transient")
	r.add("busy_rejects", busy, 1)
	var redundant, rounds, pushes, failures float64
	for _, node := range nodes {
		redundant += float64(node.Stats().RedundantCommits)
		for _, ps := range node.MeshStats() {
			rounds += float64(ps.Rounds)
			pushes += float64(ps.Pushes)
			failures += float64(ps.Failures)
		}
	}
	r.add("redundant_commits", redundant, 1)
	r.add("mesh_rounds", rounds, 1)
	r.add("mesh_pushes", pushes, 1)
	r.add("mesh_failures", failures, 1)
}
