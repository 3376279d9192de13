package store_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/counter"
)

// TestConcurrentReadersAndWriters exercises the store's read-parallel
// locking discipline under -race: queries (Head, HeadHash, Size,
// Branches, Frontier, Export, ExportSincePacked, Commit, NumCommits) run on
// shared read locks while writers apply operations and merge branches.
// The assertions are deliberately weak — no reader may ever observe an
// error or a torn state; the race detector does the heavy lifting.
func TestConcurrentReadersAndWriters(t *testing.T) {
	s := counterStore()
	if err := s.Fork("main", "dev"); err != nil {
		t.Fatal(err)
	}

	const writerOps = 300
	var done atomic.Bool
	var wg sync.WaitGroup
	fail := func(err error) {
		if err != nil {
			done.Store(true)
			t.Error(err)
		}
	}

	// Writers: one per branch, plus a syncer converging them. Sync holds
	// the write lock across both pulls, so every merge is a clean diamond.
	for _, branch := range []string{"main", "dev"} {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			for i := 0; i < writerOps && !done.Load(); i++ {
				if _, err := s.Apply(b, counter.Op{Kind: counter.Inc, N: 1}); err != nil {
					fail(err)
					return
				}
			}
		}(branch)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerOps/4 && !done.Load(); i++ {
			if err := s.Sync("main", "dev"); err != nil {
				fail(err)
				return
			}
		}
	}()

	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()

	// Readers: hammer every query until the writers finish.
	readers := []func() error{
		func() error { _, err := s.Head("main"); return err },
		func() error {
			h, err := s.HeadHash("dev")
			if err != nil {
				return err
			}
			s.Commit(h)
			return nil
		},
		func() error {
			f, err := s.Frontier("main")
			if err != nil {
				return err
			}
			_, _, err = s.ExportSincePacked("main", f.HaveSet())
			return err
		},
		func() error { _, _, err := s.Export("dev"); return err },
		func() error {
			s.Branches()
			s.NumCommits()
			_, err := s.Size("main")
			return err
		},
	}
	var rg sync.WaitGroup
	for _, read := range readers {
		rg.Add(1)
		go func(read func() error) {
			defer rg.Done()
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				if err := read(); err != nil {
					fail(err)
					return
				}
			}
		}(read)
	}
	rg.Wait()
	<-writersDone

	if t.Failed() {
		return
	}
	if err := s.Sync("main", "dev"); err != nil {
		t.Fatal(err)
	}
	v, err := s.Head("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2*writerOps {
		t.Fatalf("converged value = %d, want %d (every increment exactly once)", v, 2*writerOps)
	}
}
