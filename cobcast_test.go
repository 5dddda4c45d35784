package cobcast_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cobcast"
)

// collectAll drains want messages from every node of the cluster.
func collectAll(t *testing.T, c *cobcast.Cluster, want int) [][]cobcast.Message {
	t.Helper()
	out := make([][]cobcast.Message, c.Size())
	var wg sync.WaitGroup
	for i := 0; i < c.Size(); i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.After(30 * time.Second)
			for len(out[i]) < want {
				select {
				case m, ok := <-c.Node(i).Deliveries():
					if !ok {
						return
					}
					out[i] = append(out[i], m)
				case <-deadline:
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range out {
		if len(out[i]) != want {
			t.Fatalf("node %d delivered %d/%d: %v", i, len(out[i]), want, out[i])
		}
	}
	return out
}

func TestClusterBroadcastDeliversEverywhere(t *testing.T) {
	c, err := cobcast.NewCluster(3, cobcast.WithDeferredAckInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const msgs = 5
	for i := 0; i < msgs; i++ {
		if err := c.Broadcast(i%3, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := collectAll(t, c, msgs)
	// Every node, including each sender, delivers all messages exactly
	// once; per-source order must hold everywhere.
	for i, ms := range got {
		checkSourceOrder(t, fmt.Sprintf("node %d", i), ms)
	}
}

// checkSourceOrder asserts that each source's messages in ms rise
// strictly in (Seq, Index): a backlog that rode one packed PDU shares
// its Seq, and Index orders the messages inside it.
func checkSourceOrder(t *testing.T, where string, ms []cobcast.Message) {
	t.Helper()
	last := map[int]cobcast.Message{}
	for _, m := range ms {
		if prev, ok := last[m.Src]; ok && (m.Seq < prev.Seq || (m.Seq == prev.Seq && m.Index <= prev.Index)) {
			t.Errorf("%s: source %d out of order: %d.%d after %d.%d", where, m.Src, m.Seq, m.Index, prev.Seq, prev.Index)
		}
		last[m.Src] = m
	}
}

func TestClusterCausalPairOrdering(t *testing.T) {
	// Node 1 broadcasts its reply only after delivering node 0's message;
	// every node must deliver question before answer.
	c, err := cobcast.NewCluster(3, cobcast.WithDeferredAckInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range c.Node(1).Deliveries() {
			if string(m.Data) == "question" {
				if err := c.Node(1).Broadcast([]byte("answer")); err != nil {
					t.Errorf("answer: %v", err)
				}
				return
			}
		}
	}()
	if err := c.Node(0).Broadcast([]byte("question")); err != nil {
		t.Fatal(err)
	}
	<-done

	check := func(node int) {
		var order []string
		deadline := time.After(30 * time.Second)
		for len(order) < 2 {
			select {
			case m := <-c.Node(node).Deliveries():
				order = append(order, string(m.Data))
			case <-deadline:
				t.Fatalf("node %d delivered %v", node, order)
			}
		}
		if order[0] != "question" || order[1] != "answer" {
			t.Errorf("node %d order: %v", node, order)
		}
	}
	check(0)
	check(2)
}

func TestClusterWithLossRecovers(t *testing.T) {
	c, err := cobcast.NewCluster(3,
		cobcast.WithLossRate(0.15),
		cobcast.WithSeed(7),
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const msgs = 12
	for i := 0; i < msgs; i++ {
		if err := c.Broadcast(i%3, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	collectAll(t, c, msgs)
	var retx uint64
	for i := 0; i < 3; i++ {
		retx += c.Node(i).Stats().Retransmitted
	}
	if retx == 0 {
		t.Error("loss run should have retransmitted")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := cobcast.NewCluster(1); err == nil {
		t.Error("1-node cluster accepted")
	}
}

func TestNodeCloseSemantics(t *testing.T) {
	c, err := cobcast.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
	if err := c.Node(0).Broadcast([]byte("x")); err == nil {
		t.Error("broadcast after close succeeded")
	}
	if _, ok := <-c.Node(0).Deliveries(); ok {
		t.Error("deliveries channel not closed")
	}
	// Stats must remain readable after close.
	_ = c.Node(0).Stats()
}

func TestStatsProgress(t *testing.T) {
	c, err := cobcast.NewCluster(2, cobcast.WithDeferredAckInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Broadcast(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	collectAll(t, c, 1)
	s0 := c.Node(0).Stats()
	if s0.DataSent != 1 || s0.Delivered != 1 {
		t.Errorf("node 0 stats: %+v", s0)
	}
	s1 := c.Node(1).Stats()
	if s1.Delivered != 1 || s1.Accepted == 0 {
		t.Errorf("node 1 stats: %+v", s1)
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := cobcast.NewNode(0, 3, nil); err == nil {
		t.Error("nil transport accepted")
	}
}

func TestWaitIdle(t *testing.T) {
	c, err := cobcast.NewCluster(3, cobcast.WithDeferredAckInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Fresh cluster is idle immediately.
	if err := c.Node(0).WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := c.Broadcast(i%3, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := c.Node(i).WaitIdle(30 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// Once idle, every message must already be in the delivery queue.
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			select {
			case <-c.Node(i).Deliveries():
			case <-time.After(5 * time.Second):
				t.Fatalf("node %d idle but delivered only %d/6", i, j)
			}
		}
	}
	c.Close()
	if err := c.Node(0).WaitIdle(time.Second); err == nil {
		t.Error("WaitIdle after close succeeded")
	}
}
