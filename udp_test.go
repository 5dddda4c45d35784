package cobcast_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"cobcast"
)

// newUDPCluster starts n nodes over UDP loopback with ephemeral ports.
func newUDPCluster(t *testing.T, n int, opts ...cobcast.Option) []*cobcast.Node {
	t.Helper()
	return newUDPClusterOn(t, n, nil, opts...)
}

// newUDPClusterOn is newUDPCluster with transport options applied to
// every member's UDP transport.
func newUDPClusterOn(t *testing.T, n int, topts []cobcast.TransportOption, opts ...cobcast.Option) []*cobcast.Node {
	t.Helper()
	// Discover n free ports first (bind :0, note the address, release),
	// then re-bind each with the full peer list. Mildly racy, but fine on
	// loopback in a test environment.
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tr, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		addrs[i] = tr.LocalAddr()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]*cobcast.Node, n)
	for i := 0; i < n; i++ {
		var peers []string
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, addrs[j])
			}
		}
		tr, err := cobcast.NewUDPTransport(addrs[i], peers, 0, topts...)
		if err != nil {
			t.Fatalf("rebind %d: %v", i, err)
		}
		nd, err := cobcast.NewNode(i, n, tr, opts...)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
		t.Cleanup(func() { nd.Close() })
	}
	return nodes
}

func TestUDPClusterEndToEnd(t *testing.T) {
	nodes := newUDPCluster(t, 3, cobcast.WithDeferredAckInterval(2*time.Millisecond))
	const msgs = 9
	for i := 0; i < msgs; i++ {
		if err := nodes[i%3].Broadcast([]byte(fmt.Sprintf("udp-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range nodes {
		var got []cobcast.Message
		deadline := time.After(30 * time.Second)
		for len(got) < msgs {
			select {
			case m := <-nd.Deliveries():
				got = append(got, m)
			case <-deadline:
				t.Fatalf("node %d delivered %d/%d (stats %+v)", i, len(got), msgs, nd.Stats())
			}
		}
		checkSourceOrder(t, fmt.Sprintf("node %d", i), got)
	}
}

// TestUDPWirePathEquivalence runs the same workload over two clusters —
// one forced onto the batched sendmmsg/recvmmsg wire path, one forced
// onto the portable per-datagram path — and requires the protocol
// outcome to be identical: every node delivers the same message set, in
// per-source order, with equal digests across the two wire paths. The
// wire paths must be indistinguishable above the transport.
func TestUDPWirePathEquivalence(t *testing.T) {
	const n, msgs = 3, 24
	digest := func(batch bool) string {
		nodes := newUDPClusterOn(t, n, []cobcast.TransportOption{cobcast.WithBatchSyscalls(batch)},
			cobcast.WithDeferredAckInterval(2*time.Millisecond))
		for i := 0; i < msgs; i++ {
			if err := nodes[i%n].Broadcast([]byte(fmt.Sprintf("wirepath-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		var sum string
		for i, nd := range nodes {
			var got []cobcast.Message
			deadline := time.After(30 * time.Second)
			for len(got) < msgs {
				select {
				case m := <-nd.Deliveries():
					got = append(got, m)
				case <-deadline:
					t.Fatalf("batch=%v node %d delivered %d/%d", batch, i, len(got), msgs)
				}
			}
			checkSourceOrder(t, fmt.Sprintf("batch=%v node %d", batch, i), got)
			// Canonical per-node digest: each source's messages in its
			// own order (a stable sort by source keeps it), so legal
			// cross-source interleaving differences don't leak in. Seq
			// and Index stay out: they say which PDU carried a message,
			// and where the engines' own SYNCs fell between them — timing,
			// not outcome (the digests used to differ on exactly that
			// under -race, two runs in eight).
			sort.SliceStable(got, func(a, b int) bool { return got[a].Src < got[b].Src })
			for _, m := range got {
				sum += fmt.Sprintf("%d/%s;", m.Src, m.Data)
			}
			sum += "|"
		}
		return sum
	}
	if a, b := digest(true), digest(false); a != b {
		t.Errorf("clusters diverged across wire paths:\nmmsg: %s\nper-datagram: %s", a, b)
	}
}

func TestUDPTransportValidation(t *testing.T) {
	if _, err := cobcast.NewUDPTransport("127.0.0.1:0", nil, 0); err == nil {
		t.Error("no peers accepted")
	}
	if _, err := cobcast.NewUDPTransport("not-an-addr", []string{"127.0.0.1:1"}, 0); err == nil {
		t.Error("bad local address accepted")
	}
	if _, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{"bad peer"}, 0); err == nil {
		t.Error("bad peer address accepted")
	}
}

func TestUDPTransportOversizeDatagram(t *testing.T) {
	tr, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	err = tr.Broadcast(make([]byte, cobcast.MaxDatagram+1))
	if !errors.Is(err, cobcast.ErrDatagramTooLarge) {
		t.Errorf("oversize error = %v, want ErrDatagramTooLarge", err)
	}
	if s := tr.Stats(); s.Oversize != 1 {
		t.Errorf("Oversize = %d, want 1 (stats %+v)", s.Oversize, s)
	}
}

func TestUDPTransportCloseIdempotent(t *testing.T) {
	tr, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if _, ok := <-tr.Recv(); ok {
		t.Error("recv channel not closed")
	}
	if err := tr.Broadcast([]byte("x")); err == nil {
		t.Error("broadcast after close succeeded")
	}
}
