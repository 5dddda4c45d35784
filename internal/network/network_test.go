package network

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
		if s.Delivered+s.Dropped() == sent {
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

// TestZeroDelayDeliversInBroadcast: without delay the broadcast itself
// calls each destination's receiver, so a datagram is delivered or lost
// to overrun before Broadcast returns, and no receiver is called once
// Close has returned.
func TestZeroDelayDeliversInBroadcast(t *testing.T) {
	net := New(3)
	var got []pdu.Seq
	refuse := false
	if err := net.Endpoint(1).Attach(func(in Inbound) bool {
		if refuse {
			return false
		}
		got = append(got, in.PDUs[0].SEQ)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := net.Endpoint(2).Attach(func(Inbound) bool { calls++; return true }); err != nil {
		t.Fatal(err)
	}
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 1), syncPDU(0, 2)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 || calls != 1 {
		t.Fatalf("after Broadcast returned: receiver 1 got %v, receiver 2 called %d times; want [1] and 1", got, calls)
	}
	if s := net.Stats(); s.Delivered != 4 {
		t.Errorf("Delivered = %d right after Broadcast, want 4", s.Delivered)
	}
	refuse = true
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 3)); err != nil {
		t.Fatal(err)
	}
	if s := net.Stats(); s.Delivered != 5 || s.DroppedOverrun != 1 {
		t.Errorf("a refused datagram: Delivered %d, DroppedOverrun %d; want 5 and 1", s.Delivered, s.DroppedOverrun)
	}
	net.Close()
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 4)); !errors.Is(err, ErrClosed) {
		t.Errorf("Broadcast after Close = %v, want ErrClosed", err)
	}
	if calls != 2 {
		t.Errorf("receiver 2 called %d times, want 2: a call came after Close", calls)
	}
}

// TestZeroDelayPerSenderOrderConcurrent: several senders broadcast at
// once and every receiver sees each sender's datagrams in send order.
// The receivers keep unsynchronized state, so under -race a second
// concurrent caller of one receiver is reported.
func TestZeroDelayPerSenderOrderConcurrent(t *testing.T) {
	const n, count = 4, 500
	net := New(n)
	defer net.Close()
	received := make([][]pdu.Seq, n) // received[to][from]: PDUs to has had from from
	for to := range received {
		received[to] = make([]pdu.Seq, n)
		seen := received[to]
		if err := net.Endpoint(pdu.EntityID(to)).Attach(func(in Inbound) bool {
			for _, p := range in.PDUs {
				seen[in.From]++
				if p.SEQ != seen[in.From] {
					t.Errorf("entity %d got seq %d from %d, want %d", to, p.SEQ, in.From, seen[in.From])
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for from := 0; from < n; from++ {
		wg.Add(1)
		go func(from pdu.EntityID) {
			defer wg.Done()
			for i := 1; i <= count; i += 2 {
				if err := net.Endpoint(from).Broadcast(syncPDU(from, pdu.Seq(i)), syncPDU(from, pdu.Seq(i+1))); err != nil {
					t.Error(err)
					return
				}
			}
		}(pdu.EntityID(from))
	}
	wg.Wait()
	net.Close()
	for to, seen := range received {
		for from, seq := range seen {
			if want := pdu.Seq(count); from != to && seq != want {
				t.Errorf("entity %d received %d PDUs from %d, want %d", to, seq, from, want)
			}
		}
	}
}

// settledGoroutines reads the goroutine count once it holds still: an
// earlier test's delivery goroutine may still be unwinding after its
// network's Close returned.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestDelayedNetDeliversFromItsGoroutines: only a delayed network runs
// a goroutine — one delivery goroutine, whatever the endpoint count —
// and its receivers are called once the delay has passed.
func TestDelayedNetDeliversFromItsGoroutines(t *testing.T) {
	const n, d = 4, 20 * time.Millisecond
	baseline := settledGoroutines()
	instant := New(n)
	if grew := runtime.NumGoroutine() - baseline; grew != 0 {
		t.Errorf("a zero-delay network started %d goroutines, want 0", grew)
	}
	instant.Close()
	net := New(n, WithUniformDelay(d))
	defer net.Close()
	if grew := runtime.NumGoroutine() - baseline; grew != 1 {
		t.Errorf("a delayed %d-endpoint network started %d goroutines, want 1", n, grew)
	}
	arrived := make(chan time.Time, 1)
	if err := net.Endpoint(1).Attach(func(Inbound) bool { arrived <- time.Now(); return true }); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := net.Endpoint(0).Broadcast(syncPDU(0, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-arrived:
		if at.Sub(start) < d {
			t.Errorf("delivered after %v, before the %v delay", at.Sub(start), d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the delayed datagram never arrived")
	}
}

// TestMixedDelayPerSenderOrderConcurrent: concurrent senders on per-link
// delays that mix zero and non-zero draws on the same links, with
// jitter. A zero-delay datagram is handed inline only when nothing is in
// flight on its link, so every receiver still sees each sender's PDUs in
// send order, and each receiver has one caller at a time: the receivers
// keep unsynchronized state, which -race checks, and flag overlapping
// calls themselves.
func TestMixedDelayPerSenderOrderConcurrent(t *testing.T) {
	const n, count = 4, 400
	net := New(n, WithSeed(5), WithDelay(func(from, to pdu.EntityID, rng *rand.Rand) time.Duration {
		switch {
		case (from+to)%2 == 0:
			return 0 // an instant link
		case rng.Intn(3) == 0:
			return 0 // a queued link's occasional instant draw
		}
		return time.Duration(50+rng.Intn(400)) * time.Microsecond
	}))
	defer net.Close()
	received := make([][]pdu.Seq, n) // received[to][from]: PDUs to has had from from
	for to := range received {
		received[to] = make([]pdu.Seq, n)
		seen := received[to]
		var inCall atomic.Bool
		if err := net.Endpoint(pdu.EntityID(to)).Attach(func(in Inbound) bool {
			if inCall.Swap(true) {
				t.Errorf("entity %d: two concurrent receiver calls", to)
			}
			defer inCall.Store(false)
			for _, p := range in.PDUs {
				seen[in.From]++
				if p.SEQ != seen[in.From] {
					t.Errorf("entity %d got seq %d from %d, want %d", to, p.SEQ, in.From, seen[in.From])
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for from := 0; from < n; from++ {
		wg.Add(1)
		go func(from pdu.EntityID) {
			defer wg.Done()
			for i := 1; i <= count; i += 2 {
				if err := net.Endpoint(from).Broadcast(syncPDU(from, pdu.Seq(i)), syncPDU(from, pdu.Seq(i+1))); err != nil {
					t.Error(err)
					return
				}
				if i%32 == 1 {
					time.Sleep(100 * time.Microsecond) // let some links drain to empty
				}
			}
		}(pdu.EntityID(from))
	}
	wg.Wait()
	if s := settle(t, net, n*(n-1)*count); s.Delivered != n*(n-1)*count {
		t.Fatalf("delivered %d of %d PDUs: %+v", s.Delivered, n*(n-1)*count, s)
	}
	net.Close()
	for to, seen := range received {
		for from, seq := range seen {
			if want := pdu.Seq(count); from != to && seq != want {
				t.Errorf("entity %d received %d PDUs from %d, want %d", to, seq, from, want)
			}
		}
	}
}

// TestLossPatternPinned pins which transmissions the seeded loss roll
// drops: seed 1, loss 0.05, n=4, broadcast i from entity i mod 4. The
// (from, to, i) triples are the ones this network dropped before it took
// the simulator's fault model in, so a Cluster (mem-lossy among them)
// draws the same losses it always has.
func TestLossPatternPinned(t *testing.T) {
	const n, count = 4, 100
	want := [][3]int{
		{2, 1, 10}, {3, 1, 35}, {1, 2, 37}, {1, 3, 37}, {2, 0, 38}, {0, 3, 40}, {3, 2, 43},
		{0, 1, 48}, {0, 1, 60}, {0, 2, 60}, {1, 2, 69}, {2, 1, 74}, {0, 3, 76}, {2, 3, 82},
		{1, 3, 89}, {2, 3, 90}, {0, 1, 92}, {1, 3, 93}, {3, 1, 95},
	}
	net := New(n, WithLossRate(0.05), WithSeed(1))
	defer net.Close()
	arrived := make(map[[3]int]bool)
	for to := 0; to < n; to++ {
		if err := net.Endpoint(pdu.EntityID(to)).Attach(func(in Inbound) bool {
			arrived[[3]int{int(in.From), to, int(in.PDUs[0].SEQ)}] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		from := pdu.EntityID(i % n)
		if err := net.Endpoint(from).Broadcast(syncPDU(from, pdu.Seq(i))); err != nil {
			t.Fatal(err)
		}
	}
	var got [][3]int
	for i := 0; i < count; i++ {
		for to := 0; to < n; to++ {
			if k := [3]int{i % n, to, i}; to != i%n && !arrived[k] {
				got = append(got, k)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("dropped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dropped %v, want %v", got, want)
		}
	}
}
