package bench

import (
	"strings"
	"testing"
)

// TestSyncCostDeltaIsFlat asserts the acceptance property of the sync
// engine: re-syncing an already-converged pair ships no commits and
// costs bytes flat in history length.
func TestSyncCostDeltaIsFlat(t *testing.T) {
	rows := SyncCost([]int{64, 512}, 1)
	cost := map[string]int64{}
	for _, r := range rows {
		cost[r.Topology+"/"+r.Phase+"/"+itoa(r.History)] = r.Bytes
		if r.Phase == "resync" && r.Commits != 0 {
			t.Errorf("%s/%d: converged re-sync shipped %d commits, want 0",
				r.Topology, r.History, r.Commits)
		}
	}
	for _, topo := range []string{"pair", "ring"} {
		small := cost[topo+"/resync/64"]
		large := cost[topo+"/resync/512"]
		if small == 0 || large == 0 {
			t.Fatalf("%s: missing rows: %v", topo, cost)
		}
		// Flat within 2x across an 8x history growth (a round that still
		// settles a head difference pays hellos instead of one span probe).
		if large > 2*small {
			t.Errorf("%s: re-sync cost grew with history: %d -> %d bytes", topo, small, large)
		}
	}
}

func TestPrintSyncCost(t *testing.T) {
	rows := SyncCost([]int{32}, 7)
	var sb strings.Builder
	PrintSyncCost(&sb, rows)
	out := sb.String()
	for _, want := range []string{"Sync cost", "pair", "ring", "resync", "fresh-op"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output misses %q:\n%s", want, out)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
