package cobcast_test

import (
	"fmt"
	"testing"
	"time"

	"cobcast"
)

// TestSkewedLinkRealTime runs the skewed topology of the simulator's
// TestZeroLossSkewRepairs on the real-time runtime: four Cluster nodes,
// link 0→3 at 2.5 ms and every other link at 500 µs, no loss. Every
// message must reach every node exactly once, in per-source order. The
// slow link lets peers' ACK vectors name node 0's PDUs before they reach
// node 3, which asks for repairs of PDUs still in flight (ROADMAP item
// 1); the repair counts are logged, not asserted, until that is fixed.
func TestSkewedLinkRealTime(t *testing.T) {
	const n, perSender = 4, 40
	c, err := cobcast.NewClusterWithLinkDelays(n, func(from, to int) time.Duration {
		if from == 0 && to == 3 {
			return 2500 * time.Microsecond
		}
		return 500 * time.Microsecond
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < perSender; i++ {
		for src := 0; src < n; src++ {
			if err := c.Broadcast(src, []byte(fmt.Sprintf("%d/%d", src, i))); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	got := collectAll(t, c, n*perSender)
	var retSent, retransmitted uint64
	for i, ms := range got {
		checkSourceOrder(t, fmt.Sprintf("node %d", i), ms)
		next := make([]int, n) // next[src]: the payload index due next from src
		for _, m := range ms {
			if want := fmt.Sprintf("%d/%d", m.Src, next[m.Src]); string(m.Data) != want {
				t.Fatalf("node %d delivered %q from %d, want %q", i, m.Data, m.Src, want)
			}
			next[m.Src]++
		}
		st := c.Node(i).Stats()
		if st.Delivered != n*perSender {
			t.Errorf("node %d delivered %d messages, want %d exactly once", i, st.Delivered, n*perSender)
		}
		retSent += st.RetSent
		retransmitted += st.Retransmitted
	}
	if s := c.NetworkStats(); s.DroppedLoss+s.DroppedOverrun != 0 {
		t.Errorf("a lossless network dropped PDUs: %+v", s)
	}
	t.Logf("zero-loss skewed links: RetSent %d, Retransmitted %d", retSent, retransmitted)
}
