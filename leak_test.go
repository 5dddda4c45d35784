package cobcast_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cobcast"
)

// waitGoroutines polls until the goroutine count drops to at most want or
// the deadline passes, returning the final count. Polling avoids flakes
// from goroutines still unwinding after Close returns.
func waitGoroutines(want int, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(end) {
			return n
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterCloseReleasesGoroutines guards the style-guide rule that
// every spawned goroutine has an owner that can stop it: creating and
// closing clusters repeatedly must not accumulate goroutines.
func TestClusterCloseReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		c, err := cobcast.NewCluster(4,
			cobcast.WithDeferredAckInterval(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := c.Broadcast(i, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		// Drain one node a bit, then shut down mid-flight.
		select {
		case <-c.Node(0).Deliveries():
		case <-time.After(time.Second):
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := waitGoroutines(baseline+2, 5*time.Second); got > baseline+2 {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, got)
	}
}

// TestIdleClusterGoroutinesLinear: an idle one-shard Cluster node runs
// exactly one goroutine — its shard loop — not one per pair of nodes, no
// router, no delivery pump before group 0 first delivers, and, at zero
// delay, no network delivery goroutine: the sender's broadcast enqueues
// on the shard.
func TestIdleClusterGoroutinesLinear(t *testing.T) {
	const n, perNode = 16, 1
	baseline := runtime.NumGoroutine()
	c, err := cobcast.NewCluster(n, cobcast.WithGroupShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if grew := runtime.NumGoroutine() - baseline; grew > perNode*n {
		t.Errorf("an idle %d-node cluster runs %d goroutines, want at most %d per node", n, grew, perNode)
	}
}

// TestUnusedGroupPortsCostNoGoroutine: a port starts its delivery pump
// at its group's first delivery, so opening ports — MaxGroups+64 of them,
// the last 64 refused by the group bound — on an idle node starts no
// goroutine, and Close still closes every port's channel.
func TestUnusedGroupPortsCostNoGoroutine(t *testing.T) {
	c, err := cobcast.NewCluster(2, cobcast.WithGroupShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	baseline := runtime.NumGoroutine()
	ports := make([]*cobcast.GroupPort, 0, cobcast.MaxGroups+64)
	for g := 1; g <= cobcast.MaxGroups+64; g++ {
		ports = append(ports, c.Group(0, cobcast.GroupID(g)))
	}
	if err := ports[len(ports)-1].Broadcast([]byte("x")); !errors.Is(err, cobcast.ErrTooManyGroups) {
		t.Fatalf("Broadcast past the group bound = %v, want ErrTooManyGroups", err)
	}
	if grew := runtime.NumGoroutine() - baseline; grew > 0 {
		t.Errorf("opening %d idle ports started %d goroutines, want 0", len(ports), grew)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range ports {
		select {
		case _, ok := <-p.Deliveries():
			if ok {
				t.Fatalf("group %d delivered on an idle cluster", p.ID())
			}
		default:
			t.Fatalf("group %d: Close left its Deliveries channel open", p.ID())
		}
	}
}

// TestCloseWithBacklogAndIdleConsumer: Close must not wait for an
// application that never reads. Every node's delivery queue holds
// several channel-fuls, every pump is parked on its full channel, and
// Close still returns promptly and takes the pumps with it.
func TestCloseWithBacklogAndIdleConsumer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const nodes = 3
	c, err := cobcast.NewCluster(nodes, cobcast.WithDeferredAckInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	total := 5 * cap(c.Node(0).Deliveries())
	for i := 0; i < total; i++ {
		if err := c.Broadcast(i%nodes, []byte("unread")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		waitDelivered(t, fmt.Sprintf("node %d", i), c.Node(i).Stats, total)
	}
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Close took %v with unread backlogs", d)
	}
	if got := waitGoroutines(baseline+2, 5*time.Second); got > baseline+2 {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, got)
	}
}

// heapInuse forces a collection and reports runtime.MemStats.HeapInuse.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// waitHeapBelow polls like waitGoroutines until HeapInuse drops to at
// most limit or the deadline passes, returning the final reading.
// Polling absorbs the lag between protocol-level drain and the GC
// actually returning spans.
func waitHeapBelow(limit uint64, deadline time.Duration) uint64 {
	end := time.Now().Add(deadline)
	for {
		h := heapInuse()
		if h <= limit || time.Now().After(end) {
			return h
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHeapCeilingUnderSaturateDrainCycles is the heap-level companion to
// the goroutine leak tests: with a memory budget in shed mode, repeated
// saturate→drain cycles against a stalled peer must leave HeapInuse
// within a fixed factor of the post-warm-up baseline. Without the ledger
// releasing every retention site (send log, pipeline, parked, pending
// submits, release queue) the per-cycle residue compounds and blows
// through the ceiling.
func TestHeapCeilingUnderSaturateDrainCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("heap soak: skipped in -short")
	}
	c, err := cobcast.NewCluster(3,
		cobcast.WithMemoryBudget(64<<10),
		cobcast.WithBackpressure(cobcast.BackpressureShed),
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		go func(ch <-chan cobcast.Message) {
			for range ch {
			}
		}(c.Node(i).Deliveries())
	}

	payload := make([]byte, 1024)
	cycle := func() {
		c.Isolate(2)
		// Saturate: push until the budget sheds, then a little more so
		// every cycle exercises the shed path, not just the first.
		shed := 0
		for i := 0; i < 10000 && shed < 10; i++ {
			if err := c.Node(0).Broadcast(payload); err != nil {
				shed++
			}
		}
		if shed == 0 {
			t.Fatal("budget never shed during saturation")
		}
		c.Rejoin(2)
		if err := c.Node(0).WaitIdle(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Warm-up cycle: populates every pool and lazily allocated structure
	// before the baseline is taken.
	cycle()
	baseline := heapInuse()
	// HeapInuse is spiky at small absolute sizes; 3x the post-warm-up
	// baseline (floored at 8 MiB) is far above steady-state noise yet far
	// below what even one cycle of leaked retention would accumulate.
	limit := 3 * baseline
	if floor := uint64(8 << 20); limit < floor {
		limit = floor
	}
	for round := 0; round < 4; round++ {
		cycle()
		if got := waitHeapBelow(limit, 10*time.Second); got > limit {
			t.Fatalf("round %d: HeapInuse %d exceeds ceiling %d (baseline %d)",
				round, got, limit, baseline)
		}
	}
}

// TestUDPNodeCloseReleasesGoroutines does the same over the UDP
// transport.
func TestUDPNodeCloseReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		tr, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := cobcast.NewNode(0, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Broadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := waitGoroutines(baseline+2, 5*time.Second); got > baseline+2 {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, got)
	}
}
