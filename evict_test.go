package cobcast_test

import (
	"testing"
	"time"

	"cobcast"
)

// TestCrashedNodeFreezesDeliveryUntilEvicted demonstrates the failure
// mode and the cure: with node 2 isolated, nothing can be acknowledged;
// after the survivors evict it, delivery resumes.
func TestCrashedNodeFreezesDeliveryUntilEvicted(t *testing.T) {
	c, err := cobcast.NewCluster(3,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Isolate(2) // node 2 "crashes" before anything is sent

	if err := c.Broadcast(0, []byte("stranded?")); err != nil {
		t.Fatal(err)
	}
	// Without eviction nothing may be delivered.
	select {
	case m := <-c.Node(0).Deliveries():
		t.Fatalf("delivered %q with a dead quorum member", m.Data)
	case <-time.After(300 * time.Millisecond):
	}

	for _, survivor := range []int{0, 1} {
		if err := c.Node(survivor).Evict(2); err != nil {
			t.Fatal(err)
		}
	}
	for _, survivor := range []int{0, 1} {
		select {
		case m := <-c.Node(survivor).Deliveries():
			if string(m.Data) != "stranded?" {
				t.Fatalf("node %d delivered %q", survivor, m.Data)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d still frozen after eviction (stats %+v)",
				survivor, c.Node(survivor).Stats())
		}
	}
}

// TestSuspectTimeoutAutoEvicts lets the suspicion timer handle the crash.
func TestSuspectTimeoutAutoEvicts(t *testing.T) {
	c, err := cobcast.NewCluster(3,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
		cobcast.WithSuspectTimeout(150*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Isolate(2)
	if err := c.Broadcast(0, []byte("self-healing")); err != nil {
		t.Fatal(err)
	}
	for _, survivor := range []int{0, 1} {
		select {
		case m := <-c.Node(survivor).Deliveries():
			if string(m.Data) != "self-healing" {
				t.Fatalf("node %d delivered %q", survivor, m.Data)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("node %d never delivered (stats %+v)",
				survivor, c.Node(survivor).Stats())
		}
	}
}

func TestEvictValidationPublic(t *testing.T) {
	c, err := cobcast.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Node(0).Evict(0); err == nil {
		t.Error("self-evict accepted")
	}
	if err := c.Node(0).Evict(9); err == nil {
		t.Error("out-of-range evict accepted")
	}
	c.Close()
	if err := c.Node(0).Evict(1); err == nil {
		t.Error("evict after close accepted")
	}
}

// TestEvictReachesEveryGroup pins that eviction is node-wide: a crashed
// peer is a member of every group, so Evict must shrink the quorum of
// every group engine — those already running on any shard, and those
// built afterwards — not just the default group's. Without
// WithSuspectTimeout nothing else would unfreeze them.
func TestEvictReachesEveryGroup(t *testing.T) {
	c, err := cobcast.NewCluster(3,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
		cobcast.WithGroupShards(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Isolate(2)
	running := []cobcast.GroupID{cobcast.DefaultGroup, cobcast.Group("side")}
	for _, g := range running {
		if err := c.Group(0, g).Broadcast([]byte("stranded")); err != nil {
			t.Fatal(err)
		}
	}
	// Let every survivor instantiate both engines before evicting.
	for _, survivor := range []int{0, 1} {
		for _, g := range running {
			deadline := time.Now().Add(10 * time.Second)
			for {
				if s, ok := c.Group(survivor, g).Stats(); ok && s.DataSent+s.DataRecv > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %d never saw group %d's message", survivor, g)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	for _, survivor := range []int{0, 1} {
		if err := c.Node(survivor).Evict(2); err != nil {
			t.Fatal(err)
		}
	}
	// A group first used after the eviction starts without the dead peer.
	late := cobcast.Group("late")
	if err := c.Group(1, late).Broadcast([]byte("stranded")); err != nil {
		t.Fatal(err)
	}
	for _, survivor := range []int{0, 1} {
		for _, g := range append(running, late) {
			select {
			case m := <-c.Group(survivor, g).Deliveries():
				if string(m.Data) != "stranded" || m.Group != g {
					t.Fatalf("node %d group %d delivered %q tagged group %d", survivor, g, m.Data, m.Group)
				}
			case <-time.After(10 * time.Second):
				s, _ := c.Group(survivor, g).Stats()
				t.Fatalf("node %d group %d still frozen after eviction (stats %+v)", survivor, g, s)
			}
		}
		if err := c.Node(survivor).WaitIdle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}
