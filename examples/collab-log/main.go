// Collab log: the mergeable log (§5.2) as a collaborative activity feed —
// the motivating local-first scenario of the paper's introduction. Three
// researchers run real replicas on loopback TCP and append lab-notebook
// entries while disconnected; hub-and-spoke gossip through ada merges
// everyone's entries into one reverse-chronological feed with no entry
// lost or duplicated.
//
// Each sync reconciles the two replicas' commit sets with range
// fingerprints and ships only the missing commits, so gossiping an
// already-seen feed costs a few dozen bytes, not the whole history. The
// per-node wire stats printed at the end show it.
//
//	go run ./examples/collab-log
package main

import (
	"fmt"

	"repro/peepul"
)

type researcher struct {
	node *peepul.Node
	feed *peepul.Handle[peepul.MLogState, peepul.MLogOp, peepul.MLogVal]
}

func main() {
	mk := func(name string, id int) researcher {
		n, err := peepul.NewNode(name, id)
		must(err)
		h, err := peepul.Open(n, peepul.MLog, "lab-notebook")
		must(err)
		must(n.Listen("127.0.0.1:0"))
		return researcher{node: n, feed: h}
	}
	ada, grace, barbara := mk("ada", 1), mk("grace", 2), mk("barbara", 3)
	defer ada.node.Close()
	defer grace.node.Close()
	defer barbara.node.Close()

	note := func(r researcher, text string) {
		if _, err := r.feed.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: r.node.Name() + ": " + text}); err != nil {
			panic(err)
		}
	}

	note(ada, "calibrated the interferometer")
	note(grace, "compiler bootstrap reaches stage 2")
	note(barbara, "drafted the consistency proof")
	// Hub-and-spoke gossip through ada.
	must(grace.node.SyncWith(ada.node.Addr()))
	must(barbara.node.SyncWith(ada.node.Addr()))
	must(grace.node.SyncWith(ada.node.Addr()))

	note(grace, "stage 3 green, tagging release")
	note(ada, "interferometer drift back within tolerance")
	must(grace.node.SyncWith(ada.node.Addr()))
	must(barbara.node.SyncWith(ada.node.Addr()))

	feeds := make([]string, 0, 3)
	for _, r := range []researcher{ada, grace, barbara} {
		v, err := r.feed.Do(peepul.MLogOp{Kind: peepul.MLogRead})
		must(err)
		fmt.Printf("=== %s's feed (%d entries, newest first) ===\n", r.node.Name(), len(v.Log))
		feed := ""
		for _, e := range v.Log {
			fmt.Printf("  %s\n", e.Msg)
			feed += e.Msg + "\n"
		}
		feeds = append(feeds, feed)
		if len(v.Log) != 5 {
			panic("an entry was lost or duplicated")
		}
	}
	if feeds[0] != feeds[1] || feeds[1] != feeds[2] {
		panic("replicas diverged")
	}
	fmt.Println("all feeds identical: 5 entries, reverse-chronological")

	for _, r := range []researcher{ada, grace, barbara} {
		st := r.node.Stats()
		fmt.Printf("%s wire: %d B sent, %d B recv, %d commits shipped, %d syncs\n",
			r.node.Name(), st.BytesSent, st.BytesRecv, st.CommitsSent, st.DeltaSyncs)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
