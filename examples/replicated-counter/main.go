// Replicated counter over real TCP: three nodes on localhost, each with
// its own Lamport clock, concurrently update a PN-counter and gossip
// commit histories peer-to-peer — the paper's geo-distributed deployment
// model in miniature. Each pairwise exchange reconciles the two commit
// sets with range fingerprints and ships only missing commits.
//
//	go run ./examples/replicated-counter
package main

import (
	"fmt"
	"sync"

	"repro/peepul"
)

// region pairs a node with its handle on the shared "requests" counter.
type region struct {
	node *peepul.Node
	hits *peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]
}

func main() {
	mk := func(name string, id int) region {
		n, err := peepul.NewNode(name, id)
		must(err)
		h, err := peepul.Open(n, peepul.PNCounter, "requests")
		must(err)
		must(n.Listen("127.0.0.1:0"))
		return region{node: n, hits: h}
	}
	eu, us, ap := mk("eu", 1), mk("us", 2), mk("ap", 3)
	defer eu.node.Close()
	defer us.node.Close()
	defer ap.node.Close()
	fmt.Printf("eu=%s us=%s ap=%s\n", eu.node.Addr(), us.node.Addr(), ap.node.Addr())

	// Each region concurrently applies its own traffic.
	var wg sync.WaitGroup
	for i, r := range []region{eu, us, ap} {
		wg.Add(1)
		go func(r region, amount int64) {
			defer wg.Done()
			for k := int64(0); k < 100; k++ {
				must2(r.hits.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: amount}))
			}
			must2(r.hits.Do(peepul.CounterOp{Kind: peepul.CounterDec, N: amount})) // one refund each
		}(r, int64(i+1))
	}
	wg.Wait()

	for _, r := range []region{eu, us, ap} {
		fmt.Printf("%s local view before gossip: %d\n",
			r.node.Name(), must2(r.hits.Do(peepul.CounterOp{Kind: peepul.CounterRead})))
	}

	// Ring gossip: two rounds spread every update everywhere.
	for round := 0; round < 2; round++ {
		must(eu.node.SyncWith(us.node.Addr()))
		must(us.node.SyncWith(ap.node.Addr()))
		must(ap.node.SyncWith(eu.node.Addr()))
	}

	want := int64(100*1 + 100*2 + 100*3 - 1 - 2 - 3)
	for _, r := range []region{eu, us, ap} {
		got := must2(r.hits.Do(peepul.CounterOp{Kind: peepul.CounterRead}))
		fmt.Printf("%s converged view: %d\n", r.node.Name(), got)
		if got != want {
			panic(fmt.Sprintf("%s: got %d, want %d", r.node.Name(), got, want))
		}
	}
	fmt.Printf("all regions agree on %d (every increment and refund counted once)\n", want)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// must2 unwraps an operation result, panicking on replication errors.
func must2(v peepul.CounterVal, err error) peepul.CounterVal {
	must(err)
	return v
}
