package cobcast_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"cobcast"
)

// TestAppendToPackedMessageKeepsNeighbour: the messages of a packed PDU
// are slices of one buffer that the sender retains for retransmission
// and, on a Cluster, every node shares. Appending to one must copy it,
// not run over the next message.
func TestAppendToPackedMessageKeepsNeighbour(t *testing.T) {
	c, err := cobcast.NewCluster(2,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithWindow(1), // the burst queues behind the first message and rides packed
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const msgs = 8
	for k := 0; k < msgs; k++ {
		if err := c.Broadcast(0, []byte(fmt.Sprintf("message %d", k))); err != nil {
			t.Fatal(err)
		}
	}
	got := drainGroup(t, c.Group(1, cobcast.DefaultGroup), msgs)
	for k := 0; k+1 < len(got); k++ {
		if got[k].Seq != got[k+1].Seq {
			continue
		}
		_ = append(got[k].Data, "appended by the application"...)
		if want := fmt.Sprintf("message %d", k+1); string(got[k+1].Data) != want {
			t.Fatalf("appending to message %d.%d turned message %d.%d into %q, want %q",
				got[k].Seq, got[k].Index, got[k+1].Seq, got[k+1].Index, got[k+1].Data, want)
		}
		return
	}
	t.Fatalf("no two of %d messages rode one PDU", msgs)
}

// TestSharedPDUsReadWhileShardsRun: on a Cluster every node's engine and
// application read the one copy of each PDU the sender made, while the
// shards keep receiving, retransmitting and delivering around them. Each
// consumer re-reads every payload it has been handed after each new
// delivery, so under -race any shard writing a shared PDU is reported,
// and without it a changed payload is. The sources broadcast in rounds
// until the network has drawn a loss, so retransmission is always
// exercised: the seeded loss rolls are fixed, but how many datagrams a
// round takes depends on timing.
func TestSharedPDUsReadWhileShardsRun(t *testing.T) {
	const nodes, perRound, maxRounds = 4, 60, 20
	c, err := cobcast.NewCluster(nodes,
		cobcast.WithLossRate(0.05),
		cobcast.WithSeed(11),
		cobcast.WithWindow(2), // bursts queue, so many PDUs are packs
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := func(src, k int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%d/%d;", src, k)), 4)
	}
	// total is how many messages each node must deliver, set before
	// final closes; until then the consumers read without an end.
	var total int
	final := make(chan struct{})
	var consumers sync.WaitGroup
	defer consumers.Wait() // before Close, should a round's wait fail the test
	packed := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		consumers.Add(1)
		go func(i int) {
			defer consumers.Done()
			var held []cobcast.Message
			next := make([]int, nodes)
			fin := final
			deadline := time.After(30 * time.Second)
			for fin != nil || len(held) < total {
				select {
				case <-fin:
					fin = nil
					continue
				case m := <-c.Node(i).Deliveries():
					if m.Index > 0 {
						packed[i]++
					}
					if want := payload(m.Src, next[m.Src]); !bytes.Equal(m.Data, want) {
						t.Errorf("node %d: message %d.%d from %d reads %q, want %q", i, m.Seq, m.Index, m.Src, m.Data, want)
						return
					}
					next[m.Src]++
					held = append(held, m)
				case <-deadline:
					t.Errorf("node %d delivered %d messages, want %d once the sources finished", i, len(held), total)
					return
				}
				seen := make([]int, nodes)
				for _, h := range held {
					if !bytes.Equal(h.Data, payload(h.Src, seen[h.Src])) {
						t.Errorf("node %d: message %d.%d from %d changed after delivery to %q", i, h.Seq, h.Index, h.Src, h.Data)
						return
					}
					seen[h.Src]++
				}
			}
		}(i)
	}
	rounds := 0
	for ; rounds < maxRounds && c.NetworkStats().DroppedLoss == 0; rounds++ {
		var sources sync.WaitGroup
		for src := 0; src < nodes; src++ {
			sources.Add(1)
			go func(src int) {
				defer sources.Done()
				for k := rounds * perRound; k < (rounds+1)*perRound; k++ {
					if err := c.Broadcast(src, payload(src, k)); err != nil {
						t.Errorf("source %d message %d: %v", src, k, err)
						return
					}
				}
			}(src)
		}
		sources.Wait()
		for i := 0; i < nodes; i++ {
			waitDelivered(t, fmt.Sprintf("node %d", i), c.Node(i).Stats, (rounds+1)*nodes*perRound)
		}
	}
	total = rounds * nodes * perRound
	close(final)
	consumers.Wait()
	for i, k := range packed {
		if k == 0 {
			t.Errorf("node %d delivered no packed message: the test exercised no shared pack", i)
		}
	}
	if st := c.NetworkStats(); st.DroppedLoss == 0 {
		t.Errorf("no loss drawn in %d rounds: the test exercised no retransmission", rounds)
	}
}
