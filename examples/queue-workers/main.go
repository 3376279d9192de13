// Queue workers: the replicated functional queue (§6) as a distributed
// task queue with at-least-once delivery — the semantics of Amazon SQS or
// RabbitMQ that the paper cites. A producer and two workers run as real
// replicas on loopback TCP; the workers dequeue concurrently and gossip
// reconciles: a job dequeued anywhere disappears everywhere, so a job may
// run twice (both workers grabbed it before syncing) but is never lost.
// Every sync reconciles commit sets first — only the missing commits
// cross the wire.
//
// The example also replays Figure 11's worked merge exactly, driving the
// registered implementation directly through its descriptor.
//
//	go run ./examples/queue-workers
package main

import (
	"fmt"

	"repro/peepul"
)

func main() {
	figure11()
	workers()
}

// figure11 replays the paper's worked example: LCA [1..5]; branch A
// dequeues twice and enqueues 8, 9; branch B dequeues once and enqueues
// 6, 7; the merge is [3,4,5,6,7,8,9]. The descriptor exposes the raw
// implementation, so the merge can be driven with hand-picked
// timestamps.
func figure11() {
	impl := peepul.Queue.Impl
	lca := impl.Init()
	for i := int64(1); i <= 5; i++ {
		lca, _ = impl.Do(peepul.QueueOp{Kind: peepul.QueueEnqueue, V: i}, lca, peepul.Timestamp(i))
	}
	a := lca
	a, _ = impl.Do(peepul.QueueOp{Kind: peepul.QueueDequeue}, a, 100)
	a, _ = impl.Do(peepul.QueueOp{Kind: peepul.QueueDequeue}, a, 101)
	a, _ = impl.Do(peepul.QueueOp{Kind: peepul.QueueEnqueue, V: 8}, a, 8)
	a, _ = impl.Do(peepul.QueueOp{Kind: peepul.QueueEnqueue, V: 9}, a, 9)
	b := lca
	b, _ = impl.Do(peepul.QueueOp{Kind: peepul.QueueDequeue}, b, 102)
	b, _ = impl.Do(peepul.QueueOp{Kind: peepul.QueueEnqueue, V: 6}, b, 6)
	b, _ = impl.Do(peepul.QueueOp{Kind: peepul.QueueEnqueue, V: 7}, b, 7)

	merged := impl.Merge(lca, a, b)
	fmt.Print("Figure 11 three-way merge: [")
	for i, p := range merged.ToSlice() {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Print(p.V)
	}
	fmt.Println("]  (paper: [3,4,5,6,7,8,9])")
}

type qworker struct {
	node *peepul.Node
	jobs *peepul.Handle[peepul.QueueState, peepul.QueueOp, peepul.QueueVal]
}

func workers() {
	mk := func(name string, id int) qworker {
		n, err := peepul.NewNode(name, id)
		must(err)
		h, err := peepul.Open(n, peepul.Queue, "jobs")
		must(err)
		must(n.Listen("127.0.0.1:0"))
		return qworker{node: n, jobs: h}
	}
	producer := mk("producer", 1)
	w1 := mk("worker-1", 2)
	w2 := mk("worker-2", 3)
	defer producer.node.Close()
	defer w1.node.Close()
	defer w2.node.Close()

	// The producer enqueues six jobs and the workers sync to see them.
	for job := int64(1); job <= 6; job++ {
		producer.jobs.Do(peepul.QueueOp{Kind: peepul.QueueEnqueue, V: job})
	}
	must(w1.node.SyncWith(producer.node.Addr()))
	must(w2.node.SyncWith(producer.node.Addr()))

	// Each worker processes two jobs offline. Both grab the queue head, so
	// jobs 1 and 2 run on both workers — at-least-once, never lost.
	processed := map[string][]int64{}
	for _, w := range []qworker{w1, w2} {
		for i := 0; i < 2; i++ {
			v, _ := w.jobs.Do(peepul.QueueOp{Kind: peepul.QueueDequeue})
			if v.OK {
				processed[w.node.Name()] = append(processed[w.node.Name()], v.V)
			}
		}
	}
	for _, w := range []qworker{w1, w2} {
		fmt.Printf("%s processed jobs %v\n", w.node.Name(), processed[w.node.Name()])
	}

	// Gossip the dequeues back through the producer; each exchange ships
	// only the commits the other side is missing.
	must(w1.node.SyncWith(producer.node.Addr()))
	must(w2.node.SyncWith(producer.node.Addr()))
	must(w1.node.SyncWith(producer.node.Addr()))

	var remaining []int64
	head, err := producer.jobs.State()
	must(err)
	for _, p := range head.ToSlice() {
		remaining = append(remaining, p.V)
	}
	fmt.Printf("jobs still queued after reconciliation: %v\n", remaining)
	// After merging, every dequeued job is gone exactly once from the
	// queue: 3..6 remain.
	if len(remaining) != 4 || remaining[0] != 3 {
		panic(fmt.Sprintf("unexpected queue state: %v", remaining))
	}
	st := producer.node.Stats()
	fmt.Printf("producer wire: %d B sent, %d B recv, %d syncs\n",
		st.BytesSent, st.BytesRecv, st.DeltaSyncs)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
