package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/peepul"
)

// Mesh benchmark (`peepul-bench -fig mesh`): live always-on fleets over
// real TCP, no SyncWith anywhere — the daemon does all the replication.
// Each row builds a fleet, lets every node write concurrently, and
// measures three things the daemon promises:
//
//   - converge: wall time from the first write until every node holds
//     the same value AND the identical head hash;
//   - propagate: after convergence, one node commits once — wall time
//     until the commit is on every node (push-on-commit cascading
//     hop-by-hop, not waiting out anti-entropy rounds);
//   - steady-state wire cost: bytes/sec across the whole fleet over an
//     idle window after convergence. Re-syncing a converged pair is one
//     span probe and its match, so this should stay near zero and scale
//     with the round rate, never with history size.

// MeshRow is one measured fleet.
type MeshRow struct {
	// Topology is the supervision graph: "ring" (each node supervises
	// its successor; exchanges are bidirectional so one direction
	// suffices) or "full" (every node supervises every other).
	Topology string `json:"topology"`
	// Nodes is the fleet size.
	Nodes int `json:"nodes"`
	// Writes is the total number of operations committed before the
	// convergence measurement.
	Writes int `json:"writes"`
	// ConvergeNs is the wall time from the first write until every node
	// reports the same value and the identical head hash.
	ConvergeNs int64 `json:"converge_ns"`
	// PropagateNs is the wall time for one post-convergence commit to
	// reach every node (values and heads re-converged).
	PropagateNs int64 `json:"propagate_ns"`
	// SteadyWindowNs is the idle window measured after convergence.
	SteadyWindowNs int64 `json:"steady_window_ns"`
	// SteadyBytes is the fleet-wide wire traffic (sent + received,
	// summed over all nodes) during the idle window.
	SteadyBytes int64 `json:"steady_bytes"`
	// SteadyBytesPerSec is SteadyBytes normalized by the window — the
	// cost of keeping a converged fleet converged.
	SteadyBytesPerSec float64 `json:"steady_bytes_per_sec"`
}

// MeshRingNs is the fleet-size sweep of the ring topology.
var MeshRingNs = []int{5, 10, 20}

// MeshFullNs is the fleet-size sweep of the full topology, capped lower
// because supervisors (and their exchanges) grow quadratically.
var MeshFullNs = []int{4, 8}

// MeshSteadyWindow is the idle window over which steady-state wire cost
// is measured.
const MeshSteadyWindow = 800 * time.Millisecond

const meshWritesPerNode = 3

// Mesh runs the fleet scenarios over their sweeps.
func Mesh(ringNs, fullNs []int, steady time.Duration) []MeshRow {
	var rows []MeshRow
	for _, n := range ringNs {
		rows = append(rows, meshFleet("ring", n, steady))
	}
	for _, n := range fullNs {
		rows = append(rows, meshFleet("full", n, steady))
	}
	return rows
}

type meshNode struct {
	node   *peepul.Node
	handle *peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]
}

// meshFleet builds one live fleet, writes concurrently on every node and
// takes the row's three measurements. The daemon interval is tightened
// well below the default so the benchmark measures the engine, not the
// idle period.
func meshFleet(topology string, n int, steady time.Duration) MeshRow {
	fleet := make([]meshNode, n)
	for i := range fleet {
		node, err := peepul.NewNode(fmt.Sprintf("bench-m%d", i), i+1,
			peepul.WithMeshInterval(50*time.Millisecond),
			peepul.WithMeshJitter(15*time.Millisecond),
			peepul.WithMeshBackoff(10*time.Millisecond, 200*time.Millisecond))
		if err != nil {
			panic(err)
		}
		defer node.Close()
		h, err := peepul.Open(node, peepul.PNCounter, "hits")
		if err != nil {
			panic(err)
		}
		if err := node.Listen("127.0.0.1:0"); err != nil {
			panic(err)
		}
		fleet[i] = meshNode{node: node, handle: h}
	}
	for i := range fleet {
		switch topology {
		case "ring":
			fleet[i].node.AddPeer(fleet[(i+1)%n].node.Addr())
		case "full":
			for j := range fleet {
				if j != i {
					fleet[i].node.AddPeer(fleet[j].node.Addr())
				}
			}
		default:
			panic("unknown mesh topology " + topology)
		}
	}

	// Concurrent writes on every node while the daemons gossip.
	writes := n * meshWritesPerNode
	start := time.Now()
	done := make(chan error, n)
	for _, m := range fleet {
		go func(h *peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]) {
			for j := 0; j < meshWritesPerNode; j++ {
				if _, err := h.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 1}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(m.handle)
	}
	for range fleet {
		if err := <-done; err != nil {
			panic(err)
		}
	}
	meshAwait(fleet, writes)
	convergeNs := time.Since(start).Nanoseconds()

	// Steady state: a converged fleet keeps gossiping span probes. Let any
	// in-flight exchanges settle before charging the idle window — heads
	// converge a few rounds before commit *sets* do (reconciliation
	// keeps shipping tracking-branch stragglers until every pair's
	// fingerprint trees agree), and the window should measure keeping a
	// converged fleet converged, not the tail of convergence.
	time.Sleep(400 * time.Millisecond)
	before := meshWireBytes(fleet)
	time.Sleep(steady)
	steadyBytes := meshWireBytes(fleet) - before

	// Propagation: one commit, cascading through push-on-commit.
	start = time.Now()
	if _, err := fleet[0].handle.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 1}); err != nil {
		panic(err)
	}
	meshAwait(fleet, writes+1)
	propagateNs := time.Since(start).Nanoseconds()

	return MeshRow{
		Topology: topology, Nodes: n, Writes: writes,
		ConvergeNs: convergeNs, PropagateNs: propagateNs,
		SteadyWindowNs:    steady.Nanoseconds(),
		SteadyBytes:       steadyBytes,
		SteadyBytesPerSec: float64(steadyBytes) / steady.Seconds(),
	}
}

// meshAwait blocks until every node holds value want and the identical
// head hash — the same convergence predicate the acceptance test
// asserts.
func meshAwait(fleet []meshNode, want int) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		ref, err := fleet[0].handle.Store().HeadHash(fleet[0].handle.Branch())
		if err != nil {
			panic(err)
		}
		converged := true
		for _, m := range fleet {
			s, err := m.handle.State()
			if err != nil {
				panic(err)
			}
			head, err := m.handle.Store().HeadHash(m.handle.Branch())
			if err != nil {
				panic(err)
			}
			if int(s.P-s.N) != want || head != ref {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("bench: %d-node fleet did not converge to %d", len(fleet), want))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// meshWireBytes sums the fleet's sync traffic, both directions on every
// node.
func meshWireBytes(fleet []meshNode) int64 {
	var total int64
	for _, m := range fleet {
		st := m.node.Stats()
		total += st.BytesSent + st.BytesRecv
	}
	return total
}

// WriteMeshJSON renders rows as the BENCH_mesh.json document: one object
// with the measured rows, stable field order, trailing newline.
func WriteMeshJSON(w io.Writer, seed int64, rows []MeshRow) error {
	doc := struct {
		Bench string    `json:"bench"`
		Seed  int64     `json:"seed"`
		Rows  []MeshRow `json:"rows"`
	}{Bench: "mesh", Seed: seed, Rows: rows}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
