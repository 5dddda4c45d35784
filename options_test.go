package cobcast_test

import (
	"testing"
	"time"

	"cobcast"
)

// TestOptionsApply exercises every functional option through a working
// cluster, ensuring each value reaches the protocol (observable through
// behaviour or stats).
func TestOptionsApply(t *testing.T) {
	t.Run("window one blocks", func(t *testing.T) {
		c, err := cobcast.NewCluster(2,
			cobcast.WithWindow(1),
			cobcast.WithDeferredAckInterval(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 4; i++ {
			if err := c.Broadcast(0, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			select {
			case <-c.Node(1).Deliveries():
			case <-time.After(30 * time.Second):
				t.Fatal("window-1 cluster stalled")
			}
		}
		if c.Node(0).Stats().FlowBlocked == 0 {
			t.Error("window 1 never engaged flow control")
		}
	})

	t.Run("cluster id isolates clusters", func(t *testing.T) {
		// Two nodes configured with different CIDs on one network must
		// reject each other's PDUs.
		c, err := cobcast.NewCluster(2,
			cobcast.WithClusterID(7),
			cobcast.WithDeferredAckInterval(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Broadcast(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-c.Node(1).Deliveries():
		case <-time.After(30 * time.Second):
			t.Fatal("same-CID delivery failed")
		}
		if got := c.Node(1).Stats().InvalidPDUs; got != 0 {
			t.Errorf("InvalidPDUs = %d within one cluster", got)
		}
	})

	t.Run("network delay", func(t *testing.T) {
		c, err := cobcast.NewCluster(2,
			cobcast.WithNetworkDelay(2*time.Millisecond),
			cobcast.WithDeferredAckInterval(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		if err := c.Broadcast(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-c.Node(1).Deliveries():
		case <-time.After(30 * time.Second):
			t.Fatal("stalled")
		}
		// Full acknowledgment needs at least two propagation delays.
		if e := time.Since(start); e < 4*time.Millisecond {
			t.Errorf("delivered in %v, faster than 2 propagation delays", e)
		}
	})

	t.Run("inbox capacity induces overrun", func(t *testing.T) {
		c, err := cobcast.NewCluster(3,
			cobcast.WithInboxCapacity(2),
			cobcast.WithDeferredAckInterval(time.Millisecond),
			cobcast.WithRetransmitTimeout(4*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const msgs = 30
		for i := 0; i < msgs; i++ {
			if err := c.Broadcast(i%3, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < msgs; i++ {
			select {
			case <-c.Node(0).Deliveries():
			case <-time.After(60 * time.Second):
				t.Fatalf("stalled at %d/%d (net %+v)", i, msgs, c.NetworkStats())
			}
		}
	})
}
