package store_test

import (
	"testing"

	"repro/internal/orset"
	"repro/internal/store"
	"repro/internal/wire"
)

// BenchmarkIntegrateBatch measures landing one catch-up batch: 64 packed
// or-set commits on top of a 3 000-element state both stores share — the
// import layer of a deep catch-up sync, without the network. Each
// iteration ships the sender's next 64 commits, which add the newest
// element and remove the oldest in turn, so the state stays at 3 000.
func BenchmarkIntegrateBatch(b *testing.B) {
	const shared, batch = 3000, 64
	src := orsetStore()
	var oldest, next int64
	apply := func(op orset.Op) {
		if _, err := src.Apply("main", op); err != nil {
			b.Fatal(err)
		}
	}
	for ; next < shared; next++ {
		apply(orset.Op{Kind: orset.Add, E: next})
	}
	history, head, err := src.ExportSincePacked("main", nil)
	if err != nil {
		b.Fatal(err)
	}
	dst := store.NewAt[orset.SpaceState, orset.Op, orset.Val](orset.OrSetSpace{}, wire.OrSetSpace{}, "main", 64)
	if _, _, _, err := dst.Integrate("main", "remote/src", history, head); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < batch; j += 2 {
			apply(orset.Op{Kind: orset.Add, E: next})
			apply(orset.Op{Kind: orset.Remove, E: oldest})
			next++
			oldest++
		}
		commits, tip, err := src.ExportSincePacked("main", head)
		if err != nil {
			b.Fatal(err)
		}
		if len(commits) != batch {
			b.Fatalf("batch of %d commits, want %d", len(commits), batch)
		}
		b.StartTimer()
		if _, _, _, err := dst.Integrate("main", "remote/src", commits, tip); err != nil {
			b.Fatal(err)
		}
		head = tip
	}
}
