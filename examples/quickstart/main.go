// Quickstart: a three-node in-process cluster exchanging causally ordered
// broadcasts. Every node — including each sender — delivers every message
// exactly once, and any message sent after another was delivered is
// delivered after it everywhere.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"cobcast"
)

func main() {
	cluster, err := cobcast.NewCluster(3,
		cobcast.WithDeferredAckInterval(2*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	const total = 4 // messages each node will deliver

	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < cluster.Size(); i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for m := range cluster.Node(i).Deliveries() {
				mu.Lock()
				fmt.Printf("node %d delivered: [from %d #%d.%d] %s\n", i, m.Src, m.Seq, m.Index, m.Data)
				mu.Unlock()
				if seen++; seen == total {
					return
				}
			}
		}()
	}

	// Node 0 asks a question; node 1 answers only after delivering it, so
	// the answer is causally after the question — every node will deliver
	// them in that order. Nodes 0 and 2 also chime in concurrently.
	if err := cluster.Broadcast(0, []byte("anyone up for lunch?")); err != nil {
		log.Fatal(err)
	}
	// Give node 1 time to deliver the question before answering, so the
	// answer is causally downstream. (A real application would broadcast
	// from inside its delivery loop.)
	time.Sleep(20 * time.Millisecond)
	if err := cluster.Broadcast(1, []byte("yes — noodles")); err != nil {
		log.Fatal(err)
	}
	if err := cluster.Broadcast(2, []byte("I brought sandwiches")); err != nil {
		log.Fatal(err)
	}
	if err := cluster.Broadcast(0, []byte("noodles it is")); err != nil {
		log.Fatal(err)
	}

	wg.Wait()
	fmt.Println("all nodes delivered all messages in a causality-preserving order")
}
