package cobcast_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cobcast"
)

func TestClusterTotalOrderIdenticalSequences(t *testing.T) {
	c, err := cobcast.NewCluster(3,
		cobcast.WithTotalOrder(),
		cobcast.WithLossRate(0.1),
		cobcast.WithSeed(5),
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const msgs = 15
	var wg sync.WaitGroup
	orders := make([][]cobcast.Message, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.After(30 * time.Second)
			for len(orders[i]) < msgs {
				select {
				case m, ok := <-c.Node(i).Deliveries():
					if !ok {
						return
					}
					orders[i] = append(orders[i], m)
				case <-deadline:
					return
				}
			}
		}()
	}
	for i := 0; i < msgs; i++ {
		if err := c.Broadcast(i%3, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	for i := 0; i < 3; i++ {
		if len(orders[i]) != msgs {
			t.Fatalf("node %d delivered %d/%d (stats %+v)",
				i, len(orders[i]), msgs, c.Node(i).Stats())
		}
	}
	// Identical sequences at every node.
	for i := 1; i < 3; i++ {
		for pos := range orders[0] {
			a, b := orders[0][pos], orders[i][pos]
			if a.Src != b.Src || a.Seq != b.Seq || a.Index != b.Index {
				t.Fatalf("position %d: node 0 got s%d#%d.%d, node %d got s%d#%d.%d",
					pos, a.Src, a.Seq, a.Index, i, b.Src, b.Seq, b.Index)
			}
			if a.LTime != b.LTime || a.LTime == 0 {
				t.Fatalf("position %d: ltimes %d vs %d", pos, a.LTime, b.LTime)
			}
		}
	}
	// The sequence is sorted by (LTime, Src, Seq, Index).
	for pos := 1; pos < msgs; pos++ {
		p, q := orders[0][pos-1], orders[0][pos]
		if q.LTime < p.LTime ||
			(q.LTime == p.LTime && q.Src < p.Src) {
			t.Fatalf("total order not key-sorted at %d: %+v then %+v", pos, p, q)
		}
	}
}

func TestClusterTotalOrderCausalPair(t *testing.T) {
	// Total order must still respect causality: answer after question.
	c, err := cobcast.NewCluster(3,
		cobcast.WithTotalOrder(),
		cobcast.WithDeferredAckInterval(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Broadcast(0, []byte("question")); err != nil {
		t.Fatal(err)
	}
	// Node 1 waits to deliver the question before answering.
	deadline := time.After(30 * time.Second)
	for {
		select {
		case m := <-c.Node(1).Deliveries():
			if string(m.Data) == "question" {
				goto answer
			}
		case <-deadline:
			t.Fatal("node 1 never delivered the question")
		}
	}
answer:
	if err := c.Broadcast(1, []byte("answer")); err != nil {
		t.Fatal(err)
	}
	var got []string
	for len(got) < 2 {
		select {
		case m := <-c.Node(2).Deliveries():
			got = append(got, string(m.Data))
		case <-deadline:
			t.Fatalf("node 2 delivered %v", got)
		}
	}
	if got[0] != "question" || got[1] != "answer" {
		t.Fatalf("order: %v", got)
	}
}
