package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/queue"
	"repro/internal/store"
	"repro/internal/wire"
)

// Space benchmark (`peepul-bench -fig space`): what the pack layer buys.
// For each datatype and history length the harness builds one branch of
// history and measures, packed (delta-chained objects, default snapshot
// spacing) against the pre-pack format (every state a full snapshot):
//
//   - resident object bytes — the store's Figure 15-style footprint;
//   - sync bytes for a deep pull (a fresh peer fetching the whole
//     history) and a converged re-sync (the export cut at the branch's
//     own frontier, nothing to ship);
//   - cold materialize latency — reassembling an out-of-cache state
//     through its delta chain;
//   - allocations per committed operation on the Apply path.
//
// Packed wire bytes are measured by streaming the actual packed delta
// frames through a counting writer. The pre-pack comparison figures are
// computed exactly from per-commit state sizes plus the full-state
// commit layout, because materializing every full state of a
// 10⁴-operation log at once — O(history × state size) bytes — is
// precisely the cost the pack layer exists to avoid.

// SpaceRow is one (datatype, history) measurement.
type SpaceRow struct {
	Datatype string `json:"datatype"`
	History  int    `json:"history"`
	// Commits is the DAG size (operations + root).
	Commits int `json:"commits"`
	// Snapshots/Deltas/MaxChain describe the pack: how many objects are
	// stored whole, how many as patches, and the longest patch chain.
	Snapshots int `json:"snapshots"`
	Deltas    int `json:"deltas"`
	MaxChain  int `json:"max_chain"`
	// PackedBytes vs FullBytes: resident encoded object bytes with the
	// pack layer vs the same states stored whole.
	PackedBytes int64 `json:"packed_bytes"`
	FullBytes   int64 `json:"full_bytes"`
	// PackedBytesPerOp is PackedBytes / History — the committed cost of
	// one operation.
	PackedBytesPerOp  float64 `json:"packed_bytes_per_op"`
	ResidentReduction float64 `json:"resident_reduction"`
	// Deep pull: wire bytes shipping the whole history to a fresh peer.
	DeepPullPackedBytes int64 `json:"deep_pull_packed_bytes"`
	DeepPullFullBytes   int64 `json:"deep_pull_full_bytes"`
	// Converged re-sync: wire bytes of the delta stream after frontier
	// subtraction (identical histories), packed and full-state.
	ResyncPackedBytes   int64 `json:"resync_packed_bytes"`
	ResyncUnpackedBytes int64 `json:"resync_full_bytes"`
	// SyncReduction is (resync+deep-pull) full over packed.
	SyncReduction float64 `json:"sync_reduction"`
	// MaterializeNs is the mean cold reassembly time of one state
	// through its chain (hash verification included).
	MaterializeNs int64 `json:"materialize_ns"`
	// AllocsPerApply is the allocation count of one committed operation.
	AllocsPerApply float64 `json:"allocs_per_apply"`
}

// SpaceNs is the history sweep for bounded-state datatypes (or-set over
// a fixed value range, queue draining as it fills).
var SpaceNs = []int{100, 1000, 10000, 100000}

// SpaceLogNs caps the log sweep at 10⁴: the mergeable log's state grows
// linearly with history, so even packed storage is snapshot-dominated
// O(history²/SnapshotEvery) bytes — gigabytes at 10⁵.
var SpaceLogNs = []int{100, 1000, 10000}

// Space runs the space benchmark over the given sweeps.
func Space(ns, logNs []int, seed int64) []SpaceRow {
	var rows []SpaceRow
	for _, n := range logNs {
		rows = append(rows, spaceRun[mlog.State, mlog.Op, mlog.Val](
			"mergeable-log", mlog.Log{}, wire.MLog{},
			func(i int, _ *rand.Rand) mlog.Op {
				return mlog.Op{Kind: mlog.Append, Msg: fmt.Sprintf("msg %06d", i)}
			}, n, seed))
	}
	for _, n := range ns {
		rows = append(rows, spaceRun[orset.SpaceState, orset.Op, orset.Val](
			"or-set-space", orset.OrSetSpace{}, wire.OrSetSpace{},
			func(_ int, rng *rand.Rand) orset.Op {
				if rng.Intn(3) == 0 {
					return orset.Op{Kind: orset.Remove, E: int64(rng.Intn(Fig13ValueRange))}
				}
				return orset.Op{Kind: orset.Add, E: int64(rng.Intn(Fig13ValueRange))}
			}, n, seed))
	}
	for _, n := range ns {
		rows = append(rows, spaceRun[queue.State, queue.Op, queue.Val](
			"functional-queue", queue.Queue{}, wire.Queue{},
			func(_ int, rng *rand.Rand) queue.Op {
				if rng.Intn(2) == 0 {
					return queue.Op{Kind: queue.Dequeue}
				}
				return queue.Op{Kind: queue.Enqueue, V: rng.Int63n(1 << 30)}
			}, n, seed))
	}
	return rows
}

// countingWriter tallies bytes without retaining them.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// spaceRun builds one history and takes every measurement on it.
func spaceRun[S, Op, Val any](
	name string,
	impl core.MRDT[S, Op, Val],
	codec store.Codec[S],
	genOp func(i int, rng *rand.Rand) Op,
	history int,
	seed int64,
) SpaceRow {
	rng := rand.New(rand.NewSource(seed))
	s := store.New[S, Op, Val](impl, codec, "main")
	for i := 0; i < history; i++ {
		if _, err := s.Apply("main", genOp(i, rng)); err != nil {
			panic(err)
		}
	}

	ps := s.PackStats()
	row := SpaceRow{
		Datatype:    name,
		History:     history,
		Commits:     s.NumCommits(),
		Snapshots:   ps.Snapshots,
		Deltas:      ps.Deltas,
		MaxChain:    ps.MaxDepth,
		PackedBytes: ps.PackedBytes,
		FullBytes:   ps.FullBytes,
	}
	row.PackedBytesPerOp = float64(ps.PackedBytes) / float64(max(history, 1))
	row.ResidentReduction = ratio(ps.FullBytes, ps.PackedBytes)

	// Deep pull, packed: stream the real frames and count.
	commits, head, err := s.ExportSincePacked("main", nil)
	if err != nil {
		panic(err)
	}
	var cw countingWriter
	if err := wire.WriteDeltaPacked(&cw, commits, head); err != nil {
		panic(err)
	}
	row.DeepPullPackedBytes = cw.n

	// Deep pull, pre-pack: every commit ships its full state. Computed
	// from per-commit sizes and the full-state commit layout (4-byte
	// parent count + 32 bytes per parent + 4-byte length prefix + state +
	// 8-byte generation + 8-byte timestamp), plus the same
	// header/chunk/end framing the packed stream paid.
	headHash, err := s.HeadHash("main")
	if err != nil {
		panic(err)
	}
	row.DeepPullFullBytes = fullDeltaBytes(s, headHash, nil)

	// Converged re-sync: subtract the branch's own frontier.
	f, err := s.Frontier("main")
	if err != nil {
		panic(err)
	}
	resyncPacked, resyncHead, err := s.ExportSincePacked("main", f.HaveSet())
	if err != nil {
		panic(err)
	}
	cw = countingWriter{}
	if err := wire.WriteDeltaPacked(&cw, resyncPacked, resyncHead); err != nil {
		panic(err)
	}
	row.ResyncPackedBytes = cw.n
	row.ResyncUnpackedBytes = fullDeltaBytes(s, headHash, f.HaveSet())
	row.SyncReduction = ratio(
		row.ResyncUnpackedBytes+row.DeepPullFullBytes,
		row.ResyncPackedBytes+row.DeepPullPackedBytes)

	// Cold materialize latency: reassemble states spread across the
	// history, far enough apart that no two samples share chain work.
	row.MaterializeNs = coldMaterializeNs(s, headHash)

	// Alloc accounting last: it commits a few more operations. Ops are
	// pre-generated so the measured closure is exactly the store's Apply
	// path, not the workload generator's own allocations.
	ops := make([]Op, 33)
	for j := range ops {
		ops[j] = genOp(history+j, rng)
	}
	i := 0
	row.AllocsPerApply = testing.AllocsPerRun(32, func() {
		if _, err := s.Apply("main", ops[i]); err != nil {
			panic(err)
		}
		i++
	})
	return row
}

// fullDeltaBytes computes the wire size of a full-state delta of the
// history above the have-set (nil: the whole history) without
// materializing one.
func fullDeltaBytes[S, Op, Val any](s *store.Store[S, Op, Val], head store.Hash, have []store.Hash) int64 {
	const (
		msgOverhead   = 5 + 4 // kind + field count + field length prefix
		commitFixed   = 4 + 4 + 8 + 8
		hashBytes     = 32
		chunkBytes    = 256 << 10 // wire's commitChunkBytes
		chunkMax      = 512       // wire's commitChunkMax
		headerPayload = hashBytes + 4
	)
	payload := int64(0)
	chunks := int64(0)
	inChunk := int64(0)
	inChunkN := 0
	seen := make(map[store.Hash]bool, len(have)+1)
	for _, h := range have {
		seen[h] = true
	}
	var stack []store.Hash
	if !seen[head] {
		seen[head] = true
		stack = append(stack, head)
	}
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c, ok := s.Commit(h)
		if !ok {
			continue
		}
		size, _ := s.StateSize(h)
		wireLen := int64(commitFixed + hashBytes*len(c.Parents) + size)
		payload += wireLen
		// Replicate the writer's chunking: close a chunk when it crosses
		// the byte target or the commit cap.
		if inChunkN > 0 && (inChunk >= chunkBytes || inChunkN >= chunkMax) {
			chunks++
			inChunk, inChunkN = 0, 0
		}
		inChunk += wireLen
		inChunkN++
		for _, p := range c.Parents {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	if inChunkN > 0 {
		chunks++
	}
	// Header frame + commit chunks + end frame (the end frame has no
	// field, so no length prefix).
	return (msgOverhead + headerPayload) + payload + chunks*msgOverhead + 5
}

// coldMaterializeNs times EncodedState over up to 16 commits spaced
// evenly through the history and returns the mean. EncodedState bypasses
// the decoded-state LRU, so every sample pays its full chain walk, patch
// application and hash verification.
func coldMaterializeNs[S, Op, Val any](s *store.Store[S, Op, Val], head store.Hash) int64 {
	// Collect the first-parent chain: the bench histories are linear.
	var chain []store.Hash
	for h := head; ; {
		chain = append(chain, h)
		c, ok := s.Commit(h)
		if !ok || len(c.Parents) == 0 {
			break
		}
		h = c.Parents[0]
	}
	samples := 16
	if samples > len(chain) {
		samples = len(chain)
	}
	var total time.Duration
	n := 0
	// Sampling starts at 1: chain[0] is the branch head, whose encoding
	// the last Apply left warm in the store's reassembly slot — timing it
	// would bias the "cold" mean low.
	for i := 1; i <= samples; i++ {
		commit := chain[i*(len(chain)-1)/samples]
		c, ok := s.Commit(commit)
		if !ok {
			continue
		}
		start := time.Now()
		if _, err := s.EncodedState(c.State); err != nil {
			panic(err)
		}
		total += time.Since(start)
		n++
	}
	if n == 0 {
		return 0
	}
	return total.Nanoseconds() / int64(n)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// WriteSpaceJSON renders rows as the BENCH_space.json document: one
// object with the seed and the measured rows, stable field order,
// trailing newline.
func WriteSpaceJSON(w io.Writer, seed int64, rows []SpaceRow) error {
	doc := struct {
		Bench string     `json:"bench"`
		Seed  int64      `json:"seed"`
		Rows  []SpaceRow `json:"rows"`
	}{Bench: "space", Seed: seed, Rows: rows}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
