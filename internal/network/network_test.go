package network

import (
	"errors"
	"testing"
	"time"

	"cobcast/internal/pdu"
)

func syncPDU(src pdu.EntityID, seq pdu.Seq) *pdu.PDU {
	return &pdu.PDU{Kind: pdu.KindSync, Src: src, SEQ: seq, ACK: []pdu.Seq{1, 1, 1}}
}

// collect drains up to want datagrams from a port, with a deadline.
func collect(t *testing.T, p *Port, want int) []Inbound {
	t.Helper()
	var got []Inbound
	deadline := time.After(5 * time.Second)
	for len(got) < want {
		select {
		case in, ok := <-p.Recv():
			if !ok {
				t.Fatalf("inbox closed after %d/%d", len(got), want)
			}
			got = append(got, in)
		case <-deadline:
			t.Fatalf("timeout after %d/%d PDUs", len(got), want)
		}
	}
	return got
}

// settle waits until every PDU sent has been delivered or dropped.
func settle(t *testing.T, net *Net, sent uint64) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := net.Stats()
		if s.Delivered+s.DroppedLoss+s.DroppedOverrun+s.DroppedPartition == sent {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("did not settle: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBroadcastReachesAllOthers(t *testing.T) {
	net := New(3)
	defer net.Close()
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 1)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []pdu.EntityID{1, 2} {
		in := collect(t, net.Endpoint(id), 1)[0]
		if in.From != 0 || in.PDUs[0].SEQ != 1 {
			t.Errorf("entity %d got %v from %d", id, in.PDUs[0], in.From)
		}
	}
	select {
	case in := <-net.Endpoint(0).Recv():
		t.Errorf("sender received its own broadcast: %v", in.PDUs[0])
	case <-time.After(50 * time.Millisecond):
	}
}

func TestPerSenderOrderPreservedWithDelay(t *testing.T) {
	// The MC service must be local-order-preserved even with latency.
	net := New(2, WithUniformDelay(time.Millisecond))
	defer net.Close()
	const count = 50
	for i := 1; i <= count; i++ {
		if err := net.Endpoint(0).Broadcast(syncPDU(0, pdu.Seq(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, net.Endpoint(1), count)
	for i, in := range got {
		if in.PDUs[0].SEQ != pdu.Seq(i+1) {
			t.Fatalf("position %d: got seq %d, want %d", i, in.PDUs[0].SEQ, i+1)
		}
	}
}

// TestDelayIsPropagationNotSpacing: a burst sent at once arrives about
// one delay later, all of it — not one delay per datagram.
func TestDelayIsPropagationNotSpacing(t *testing.T) {
	const d, burst = 5 * time.Millisecond, 20
	net := New(2, WithUniformDelay(d))
	defer net.Close()
	start := time.Now()
	for i := 1; i <= burst; i++ {
		if err := net.Endpoint(0).Broadcast(syncPDU(0, pdu.Seq(i))); err != nil {
			t.Fatal(err)
		}
	}
	first := collect(t, net.Endpoint(1), 1)
	if early := time.Since(start); early < d {
		t.Errorf("first datagram arrived after %v, before the %v delay", early, d)
	}
	collect(t, net.Endpoint(1), burst-len(first))
	if took := time.Since(start); took > 4*d {
		t.Errorf("a %d-datagram burst took %v to arrive with delay %v: the delay spaces datagrams", burst, took, d)
	}
}

func TestLossRateDropsApproximately(t *testing.T) {
	net := New(2, WithLossRate(0.5), WithSeed(42))
	defer net.Close()
	const count = 2000
	for i := 1; i <= count; i++ {
		if err := net.Endpoint(0).Broadcast(syncPDU(0, pdu.Seq(i))); err != nil {
			t.Fatal(err)
		}
	}
	s := settle(t, net, count)
	if s.DroppedLoss < count/3 || s.DroppedLoss > 2*count/3 {
		t.Errorf("loss rate 0.5 dropped %d of %d", s.DroppedLoss, count)
	}
	if s.Sent != count {
		t.Errorf("Sent = %d, want %d", s.Sent, count)
	}
}

func TestLossIsDeterministicPerSeed(t *testing.T) {
	run := func() uint64 {
		net := New(2, WithLossRate(0.3), WithSeed(7))
		defer net.Close()
		for i := 1; i <= 500; i++ {
			if err := net.Endpoint(0).Broadcast(syncPDU(0, pdu.Seq(i))); err != nil {
				t.Fatal(err)
			}
		}
		return net.Stats().DroppedLoss
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different loss: %d vs %d", a, b)
	}
}

func TestInboxOverrunDrops(t *testing.T) {
	// A receiver that never drains loses PDUs to buffer overrun — the
	// paper's loss model.
	net := New(2, WithInboxCapacity(4))
	defer net.Close()
	const count = 100
	for i := 1; i <= count; i++ {
		if err := net.Endpoint(0).Broadcast(syncPDU(0, pdu.Seq(i))); err != nil {
			t.Fatal(err)
		}
	}
	s := settle(t, net, count)
	if s.DroppedOverrun == 0 {
		t.Error("expected overrun drops with tiny inbox")
	}
	if s.Delivered < 4 {
		t.Errorf("Delivered = %d, want at least inbox capacity", s.Delivered)
	}
}

// TestQueueCapacityOverflowDrops: datagrams in flight beyond the
// receiver's queue are lost as overrun rather than blocking the sender.
func TestQueueCapacityOverflowDrops(t *testing.T) {
	const extra = 50
	net := New(2, WithUniformDelay(time.Hour)) // nothing falls due
	defer net.Close()
	for i := 1; i <= queueCap+extra; i++ {
		if err := net.Endpoint(0).Broadcast(syncPDU(0, pdu.Seq(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The delivery goroutine may hold one datagram out of the queue
	// while it waits for it to fall due.
	if s := net.Stats(); s.DroppedOverrun != extra && s.DroppedOverrun != extra-1 {
		t.Errorf("DroppedOverrun = %d, want %d beyond the %d-datagram queue", s.DroppedOverrun, extra, queueCap)
	}
}

func TestPartitionBlockAndHeal(t *testing.T) {
	net := New(2)
	defer net.Close()
	net.Block(0, 1)
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 1)); err != nil {
		t.Fatal(err)
	}
	if s := net.Stats(); s.DroppedPartition != 1 {
		t.Fatalf("DroppedPartition = %d, want 1", s.DroppedPartition)
	}
	net.Unblock(0, 1)
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 2)); err != nil {
		t.Fatal(err)
	}
	in := collect(t, net.Endpoint(1), 1)[0]
	if in.PDUs[0].SEQ != 2 {
		t.Errorf("after heal got seq %d, want 2", in.PDUs[0].SEQ)
	}
}

func TestIsolateAndRejoin(t *testing.T) {
	net := New(3)
	defer net.Close()
	net.Isolate(1)
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := net.Endpoint(1).Broadcast(syncPDU(1, 1)); err != nil {
		t.Fatal(err)
	}
	// Entity 2 hears only entity 0.
	in := collect(t, net.Endpoint(2), 1)[0]
	if in.From != 0 {
		t.Errorf("entity 2 heard %d, want 0", in.From)
	}
	net.Rejoin(1)
	if err := net.Endpoint(1).Broadcast(syncPDU(1, 2)); err != nil {
		t.Fatal(err)
	}
	in = collect(t, net.Endpoint(2), 1)[0]
	if in.From != 1 || in.PDUs[0].SEQ != 2 {
		t.Errorf("after rejoin: %v from %d", in.PDUs[0], in.From)
	}
}

// TestPDUsAreSharedNotCloned: every receiver gets the sender's own PDU,
// while the batch slice is the network's, so the sender may reuse its
// own.
func TestPDUsAreSharedNotCloned(t *testing.T) {
	net := New(3)
	defer net.Close()
	p := syncPDU(0, 1)
	batch := []*pdu.PDU{p}
	if err := net.Endpoint(0).Broadcast(batch...); err != nil {
		t.Fatal(err)
	}
	batch[0] = nil // the sender reuses its batch slice
	for _, id := range []pdu.EntityID{1, 2} {
		if got := collect(t, net.Endpoint(id), 1)[0].PDUs[0]; got != p {
			t.Errorf("entity %d received %p, not the sent PDU %p", id, got, p)
		}
	}
}

func TestCloseIdempotentAndRejectsSends(t *testing.T) {
	net := New(2)
	net.Close()
	net.Close()
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 1)); err == nil {
		t.Error("send on closed network succeeded")
	}
	if _, ok := <-net.Endpoint(1).Recv(); ok {
		t.Error("inbox not closed")
	}
}

func TestBatchDeliveredAsUnitInOrder(t *testing.T) {
	// A multi-PDU batch is one datagram: it arrives as one Inbound with
	// its PDUs in append order.
	net := New(2)
	defer net.Close()
	batch := []*pdu.PDU{syncPDU(0, 1), syncPDU(0, 2), syncPDU(0, 3)}
	if err := net.Endpoint(0).Broadcast(batch...); err != nil {
		t.Fatal(err)
	}
	in := collect(t, net.Endpoint(1), 1)[0]
	if len(in.PDUs) != 3 {
		t.Fatalf("batch of 3 arrived as %d PDUs", len(in.PDUs))
	}
	for i, p := range in.PDUs {
		if p.SEQ != pdu.Seq(i+1) {
			t.Errorf("position %d: got seq %d, want %d", i, p.SEQ, i+1)
		}
	}
	if s := net.Stats(); s.Sent != 3 || s.Delivered != 3 {
		t.Errorf("stats count PDUs: Sent=%d Delivered=%d, want 3/3", s.Sent, s.Delivered)
	}
}

func TestBatchLostAsUnit(t *testing.T) {
	// Loss hits the datagram, so a batch is lost or delivered whole —
	// never split.
	net := New(2)
	defer net.Close()
	net.Block(0, 1)
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 1), syncPDU(0, 2)); err != nil {
		t.Fatal(err)
	}
	net.Unblock(0, 1)
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 3), syncPDU(0, 4)); err != nil {
		t.Fatal(err)
	}
	in := collect(t, net.Endpoint(1), 1)[0]
	if len(in.PDUs) != 2 || in.PDUs[0].SEQ != 3 || in.PDUs[1].SEQ != 4 {
		t.Fatalf("surviving batch = %v, want seqs 3,4", in.PDUs)
	}
	if s := net.Stats(); s.DroppedPartition != 2 {
		t.Errorf("DroppedPartition = %d, want 2 (whole batch)", s.DroppedPartition)
	}
}

// TestAttachedReceiverTakesDeliveries: an attached port hands each due
// datagram to its receiver in arrival order, counting it delivered on
// true and lost to overrun on false, and has no inbox; a second Attach,
// or one after the port fell back to its inbox, is refused.
func TestAttachedReceiverTakesDeliveries(t *testing.T) {
	const count, take = 20, 12
	net := New(3)
	defer net.Close()
	got := make(chan pdu.Seq, count)
	recv := func(in Inbound) bool {
		if len(got) == take {
			return false // a full receive buffer
		}
		got <- in.PDUs[0].SEQ
		return true
	}
	if err := net.Endpoint(1).Attach(recv); err != nil {
		t.Fatal(err)
	}
	if err := net.Endpoint(1).Attach(recv); !errors.Is(err, ErrAttached) {
		t.Errorf("second Attach = %v, want ErrAttached", err)
	}
	if net.Endpoint(1).Recv() != nil {
		t.Error("an attached port has an inbox")
	}
	net.Endpoint(2).Recv()
	if err := net.Endpoint(2).Attach(recv); !errors.Is(err, ErrAttached) {
		t.Errorf("Attach after Recv = %v, want ErrAttached", err)
	}
	for i := 1; i <= count; i++ {
		if err := net.Endpoint(0).Broadcast(syncPDU(0, pdu.Seq(i))); err != nil {
			t.Fatal(err)
		}
	}
	s := settle(t, net, 2*count)
	if s.Delivered != count+take || s.DroppedOverrun != count-take {
		t.Errorf("Delivered %d, DroppedOverrun %d; want %d and %d", s.Delivered, s.DroppedOverrun, count+take, count-take)
	}
	for i := 1; i <= take; i++ {
		if seq := <-got; seq != pdu.Seq(i) {
			t.Fatalf("receiver got seq %d at position %d", seq, i)
		}
	}
}
