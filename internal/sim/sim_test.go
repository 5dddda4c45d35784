package sim

import (
	"math/rand"
	"testing"
	"time"

	"cobcast/internal/pdu"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.After(3*time.Millisecond, func() { order = append(order, 3) })
	s.After(1*time.Millisecond, func() { order = append(order, 1) })
	s.After(2*time.Millisecond, func() { order = append(order, 2) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run fired %d events, want 3", n)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms", s.Now())
	}
}

func TestTiesFireInSchedulingOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	s := New()
	var fired []time.Duration
	s.After(time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.After(time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 2*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New()
	var count int
	s.After(1*time.Millisecond, func() { count++ })
	s.After(5*time.Millisecond, func() { count++ })
	if n := s.RunUntil(2 * time.Millisecond); n != 1 {
		t.Fatalf("RunUntil fired %d, want 1", n)
	}
	if s.Now() != 2*time.Millisecond {
		t.Errorf("Now = %v, want 2ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestNegativeAndPastTimesClamp(t *testing.T) {
	s := New()
	s.After(time.Millisecond, func() {
		s.At(0, func() {}) // in the past: clamps to now
		s.After(-time.Second, func() {})
	})
	s.Run()
	if s.Now() != time.Millisecond {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestNetDeliversWithDelayAndOrder(t *testing.T) {
	s := New()
	net := NewNet(s, 2, NetUniformDelay(2*time.Millisecond))
	var got []pdu.Seq
	var at []time.Duration
	attachPDUs(net, 1, func(from pdu.EntityID, p *pdu.PDU) {
		got = append(got, p.SEQ)
		at = append(at, s.Now())
	})
	for i := 1; i <= 3; i++ {
		net.Send(0, 1, pdus(&pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: pdu.Seq(i), ACK: []pdu.Seq{1, 1}}))
	}
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v", got)
	}
	if at[0] != 2*time.Millisecond {
		t.Errorf("first arrival at %v, want 2ms", at[0])
	}
}

func TestNetFIFOUnderJitter(t *testing.T) {
	// Random per-PDU delays must not reorder a channel (MC service).
	s := New()
	net := NewNet(s, 2, NetSeed(3), NetDelay(
		func(_, _ pdu.EntityID, rng *rand.Rand) time.Duration {
			return time.Duration(rng.Intn(1000)) * time.Microsecond
		}))
	var got []pdu.Seq
	attachPDUs(net, 1, func(from pdu.EntityID, p *pdu.PDU) { got = append(got, p.SEQ) })
	const count = 200
	for i := 1; i <= count; i++ {
		net.Send(0, 1, pdus(&pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: pdu.Seq(i), ACK: []pdu.Seq{1, 1}}))
	}
	s.Run()
	if len(got) != count {
		t.Fatalf("delivered %d, want %d", len(got), count)
	}
	for i, seq := range got {
		if seq != pdu.Seq(i+1) {
			t.Fatalf("position %d: seq %d (reordered)", i, seq)
		}
	}
}

func TestNetLossAndStats(t *testing.T) {
	s := New()
	net := NewNet(s, 2, NetLossRate(0.5), NetSeed(9))
	delivered := 0
	attachPDUs(net, 1, func(pdu.EntityID, *pdu.PDU) { delivered++ })
	const count = 1000
	for i := 1; i <= count; i++ {
		net.Send(0, 1, pdus(&pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: pdu.Seq(i), ACK: []pdu.Seq{1, 1}}))
	}
	s.Run()
	st := net.Stats()
	if st.Sent != count || st.Delivered+st.Dropped != count {
		t.Errorf("stats: %+v", st)
	}
	if delivered != int(st.Delivered) {
		t.Errorf("handler saw %d, stats %d", delivered, st.Delivered)
	}
	if st.Dropped < count/3 || st.Dropped > 2*count/3 {
		t.Errorf("dropped %d of %d at rate 0.5", st.Dropped, count)
	}
}

func TestNetBroadcastSkipsSelfAndShares(t *testing.T) {
	s := New()
	net := NewNet(s, 3, NetDuplicateRate(1.0))
	heard := make(map[pdu.EntityID][]*pdu.PDU)
	for i := 0; i < 3; i++ {
		id := pdu.EntityID(i)
		attachPDUs(net, id, func(from pdu.EntityID, p *pdu.PDU) { heard[id] = append(heard[id], p) })
	}
	p := &pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: 1, ACK: []pdu.Seq{1, 1, 1}}
	net.Broadcast(0, pdus(p))
	s.Run()
	if _, ok := heard[0]; ok {
		t.Error("sender heard its own broadcast")
	}
	for _, id := range []pdu.EntityID{1, 2} {
		if got := heard[id]; len(got) != 2 || got[0] != p || got[1] != p {
			t.Errorf("entity %d heard %p: want the sent PDU %p, once per duplicate", id, got, p)
		}
	}
}

func TestNetDropFilter(t *testing.T) {
	s := New()
	net := NewNet(s, 2, NetDropFilter(func(_, _ pdu.EntityID, d Datagram) bool {
		return d.PDUs[0].SEQ == 2
	}))
	var got []pdu.Seq
	attachPDUs(net, 1, func(_ pdu.EntityID, p *pdu.PDU) { got = append(got, p.SEQ) })
	for i := 1; i <= 3; i++ {
		net.Send(0, 1, pdus(&pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: pdu.Seq(i), ACK: []pdu.Seq{1, 1}}))
	}
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("got = %v, want [1 3]", got)
	}
}

// TestNetDatagramFilter: the drop filter sees each datagram once,
// whatever its size, and drops it whole.
func TestNetDatagramFilter(t *testing.T) {
	s := New()
	calls := 0
	net := NewNet(s, 2, NetDropFilter(func(_, to pdu.EntityID, _ Datagram) bool {
		calls++
		return to == 1 && calls == 2 // drop the second datagram whole
	}))
	var got []pdu.Seq
	attachPDUs(net, 1, func(_ pdu.EntityID, p *pdu.PDU) { got = append(got, p.SEQ) })
	mk := func(seq pdu.Seq) *pdu.PDU {
		return &pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: seq, ACK: []pdu.Seq{1, 1}}
	}
	net.Send(0, 1, pdus(mk(1), mk(2))) // batch of 2: one filter call
	net.Send(0, 1, pdus(mk(3), mk(4))) // dropped as a unit
	net.Send(0, 1, pdus(mk(5)))
	s.Run()
	if calls != 3 {
		t.Errorf("filter consulted %d times, want once per datagram (3)", calls)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 5 {
		t.Errorf("got = %v, want [1 2 5]", got)
	}
	if st := net.Stats(); st.Sent != 3 || st.Dropped != 1 {
		t.Errorf("stats %+v, want 3 datagrams sent and 1 dropped", st)
	}
}

func TestNetDuplicateRate(t *testing.T) {
	s := New()
	net := NewNet(s, 2, NetDuplicateRate(1.0))
	var got []pdu.Seq
	attachPDUs(net, 1, func(_ pdu.EntityID, p *pdu.PDU) { got = append(got, p.SEQ) })
	net.Send(0, 1, pdus(&pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: 1, ACK: []pdu.Seq{1, 1}}))
	net.Send(0, 1, pdus(&pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: 2, ACK: []pdu.Seq{1, 1}}))
	s.Run()
	want := []pdu.Seq{1, 1, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v (duplicates must stay in channel order)", got, want)
		}
	}
}

// TestNetGroupTagRoutes pins the datagram as the network's unit: a
// pointer datagram keeps its group tag, a frame datagram arrives as a
// receiver-owned copy of its bytes (the byte-fault hook mangles that copy
// only), and every datagram, whatever its group or form, shares the
// directed channel's FIFO horizon and counts once.
func TestNetGroupTagRoutes(t *testing.T) {
	s := New()
	calls := 0
	var corrupted int
	net := NewNet(s, 2,
		NetDelay(func(_, _ pdu.EntityID, _ *rand.Rand) time.Duration {
			calls++
			return time.Duration(4-calls) * time.Millisecond // later sends draw shorter delays
		}),
		NetCorrupt(func(_, _ pdu.EntityID, frame []byte) []byte {
			corrupted++
			return frame[:len(frame)-1]
		}))
	var got []Datagram
	net.Attach(1, func(_ pdu.EntityID, d Datagram) { got = append(got, d) })
	mk := func(seq pdu.Seq) *pdu.PDU {
		return &pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: seq, ACK: []pdu.Seq{1, 1}}
	}
	frame, err := pdu.EncodeFrameGroup([]*pdu.PDU{mk(2), mk(3)}, 9, pdu.WireVersion2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent := append([]byte(nil), frame...)
	net.Broadcast(0, Datagram{Group: 7, PDUs: []*pdu.PDU{mk(1)}})
	net.Broadcast(0, Datagram{Raw: frame})
	frame[0] = 0 // the sender's buffer is its own again once Broadcast returns
	s.Run()
	if len(got) != 2 || got[0].Group != 7 || len(got[0].PDUs) != 1 || got[0].PDUs[0].SEQ != 1 {
		t.Fatalf("arrivals %+v: want the group-7 datagram first (one channel FIFO)", got)
	}
	if raw := got[1].Raw; corrupted != 1 || string(raw) != string(sent[:len(sent)-1]) {
		t.Fatalf("frame arrived as %x after %d corruptions, want the receiver's own mangled copy of %x", raw, corrupted, sent)
	}
	if st := net.Stats(); st.Sent != 2 || st.Delivered != 2 {
		t.Errorf("stats %+v, want 2 datagrams sent and 2 delivered", st)
	}
}

// attachPDUs attaches a per-PDU handler to entity i: each arriving
// pointer datagram's PDUs, in order.
func attachPDUs(net *Net, i pdu.EntityID, h func(from pdu.EntityID, p *pdu.PDU)) {
	net.Attach(i, func(from pdu.EntityID, d Datagram) {
		for _, p := range d.PDUs {
			h(from, p)
		}
	})
}

// pdus is a group-0 pointer datagram.
func pdus(ps ...*pdu.PDU) Datagram { return Datagram{PDUs: ps} }
