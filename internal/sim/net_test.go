package sim_test

// The MC network model on the simulator's virtual clock: the network
// itself lives in internal/network, which runs the same model on the
// wall clock for the runtime's Cluster.

import (
	"math/rand"
	"testing"
	"time"

	"cobcast/internal/network"
	"cobcast/internal/pdu"
	"cobcast/internal/sim"
)

func syncPDU(seq pdu.Seq) *pdu.PDU {
	return &pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: seq, ACK: []pdu.Seq{1, 1}}
}

// attachPDUs attaches a per-PDU handler to entity i: each arriving
// pointer datagram's PDUs, in order.
func attachPDUs(t *testing.T, net *network.Net, i pdu.EntityID, h func(from pdu.EntityID, p *pdu.PDU)) {
	t.Helper()
	if err := net.Endpoint(i).Attach(func(in network.Inbound) bool {
		for _, p := range in.PDUs {
			h(in.From, p)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// send broadcasts one pointer datagram from entity 0.
func send(t *testing.T, net *network.Net, ps ...*pdu.PDU) {
	t.Helper()
	if err := net.Endpoint(0).Broadcast(ps...); err != nil {
		t.Fatal(err)
	}
}

func TestNetDeliversWithDelayAndOrder(t *testing.T) {
	s := sim.New()
	net := network.NewVirtual(s, 2, network.WithUniformDelay(2*time.Millisecond))
	var got []pdu.Seq
	var at []time.Duration
	attachPDUs(t, net, 1, func(from pdu.EntityID, p *pdu.PDU) {
		got = append(got, p.SEQ)
		at = append(at, s.Now())
	})
	for i := 1; i <= 3; i++ {
		send(t, net, syncPDU(pdu.Seq(i)))
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
	s := sim.New()
	net := network.NewVirtual(s, 2, network.WithSeed(3), network.WithDelay(
		func(_, _ pdu.EntityID, rng *rand.Rand) time.Duration {
			return time.Duration(rng.Intn(1000)) * time.Microsecond
		}))
	var got []pdu.Seq
	attachPDUs(t, net, 1, func(from pdu.EntityID, p *pdu.PDU) { got = append(got, p.SEQ) })
	const count = 200
	for i := 1; i <= count; i++ {
		send(t, net, syncPDU(pdu.Seq(i)))
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
	s := sim.New()
	net := network.NewVirtual(s, 2, network.WithLossRate(0.5), network.WithSeed(9))
	delivered := 0
	attachPDUs(t, net, 1, func(pdu.EntityID, *pdu.PDU) { delivered++ })
	const count = 1000
	for i := 1; i <= count; i++ {
		send(t, net, syncPDU(pdu.Seq(i)))
	}
	s.Run()
	st := net.Stats()
	if st.Sent != count || st.Delivered+st.DroppedLoss != count {
		t.Errorf("stats: %+v", st)
	}
	if delivered != int(st.Delivered) {
		t.Errorf("handler saw %d, stats %d", delivered, st.Delivered)
	}
	if st.DroppedLoss < count/3 || st.DroppedLoss > 2*count/3 {
		t.Errorf("dropped %d of %d at rate 0.5", st.DroppedLoss, count)
	}
}

func TestNetBroadcastSkipsSelfAndShares(t *testing.T) {
	s := sim.New()
	net := network.NewVirtual(s, 3, network.WithDuplicateRate(1.0))
	heard := make(map[pdu.EntityID][]*pdu.PDU)
	for i := 0; i < 3; i++ {
		id := pdu.EntityID(i)
		attachPDUs(t, net, id, func(from pdu.EntityID, p *pdu.PDU) { heard[id] = append(heard[id], p) })
	}
	p := &pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: 1, ACK: []pdu.Seq{1, 1, 1}}
	send(t, net, p)
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
	s := sim.New()
	net := network.NewVirtual(s, 2, network.WithDropFilter(func(_, _ pdu.EntityID, in network.Inbound) bool {
		return in.PDUs[0].SEQ == 2
	}))
	var got []pdu.Seq
	attachPDUs(t, net, 1, func(_ pdu.EntityID, p *pdu.PDU) { got = append(got, p.SEQ) })
	for i := 1; i <= 3; i++ {
		send(t, net, syncPDU(pdu.Seq(i)))
	}
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("got = %v, want [1 3]", got)
	}
}

// TestNetDatagramFilter: the drop filter sees each datagram once,
// whatever its size, and drops it whole.
func TestNetDatagramFilter(t *testing.T) {
	s := sim.New()
	calls := 0
	net := network.NewVirtual(s, 2, network.WithDropFilter(func(_, to pdu.EntityID, _ network.Inbound) bool {
		calls++
		return to == 1 && calls == 2 // drop the second datagram whole
	}))
	var got []pdu.Seq
	attachPDUs(t, net, 1, func(_ pdu.EntityID, p *pdu.PDU) { got = append(got, p.SEQ) })
	send(t, net, syncPDU(1), syncPDU(2)) // batch of 2: one filter call
	send(t, net, syncPDU(3), syncPDU(4)) // dropped as a unit
	send(t, net, syncPDU(5))
	s.Run()
	if calls != 3 {
		t.Errorf("filter consulted %d times, want once per datagram (3)", calls)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 5 {
		t.Errorf("got = %v, want [1 2 5]", got)
	}
	if st := net.Stats(); st.Sent != 5 || st.DroppedLoss != 2 {
		t.Errorf("stats %+v, want 5 PDUs sent and the 2 of one datagram dropped", st)
	}
}

func TestNetDuplicateRate(t *testing.T) {
	s := sim.New()
	net := network.NewVirtual(s, 2, network.WithDuplicateRate(1.0))
	var got []pdu.Seq
	attachPDUs(t, net, 1, func(_ pdu.EntityID, p *pdu.PDU) { got = append(got, p.SEQ) })
	send(t, net, syncPDU(1))
	send(t, net, syncPDU(2))
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
// directed channel's FIFO horizon. A frame counts as one PDU.
func TestNetGroupTagRoutes(t *testing.T) {
	s := sim.New()
	calls := 0
	var corrupted int
	net := network.NewVirtual(s, 2,
		network.WithDelay(func(_, _ pdu.EntityID, _ *rand.Rand) time.Duration {
			calls++
			return time.Duration(4-calls) * time.Millisecond // later sends draw shorter delays
		}),
		network.WithCorrupt(func(_, _ pdu.EntityID, frame []byte) []byte {
			corrupted++
			return frame[:len(frame)-1]
		}))
	var got []network.Inbound
	if err := net.Endpoint(1).Attach(func(in network.Inbound) bool { got = append(got, in); return true }); err != nil {
		t.Fatal(err)
	}
	frame, err := pdu.EncodeFrameGroup([]*pdu.PDU{syncPDU(2), syncPDU(3)}, 9, pdu.WireVersion2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent := append([]byte(nil), frame...)
	if err := net.Endpoint(0).BroadcastGroup(7, syncPDU(1)); err != nil {
		t.Fatal(err)
	}
	if err := net.Endpoint(0).BroadcastFrame(frame); err != nil {
		t.Fatal(err)
	}
	frame[0] = 0 // the sender's buffer is its own again once the broadcast returns
	s.Run()
	if len(got) != 2 || got[0].Group != 7 || len(got[0].PDUs) != 1 || got[0].PDUs[0].SEQ != 1 {
		t.Fatalf("arrivals %+v: want the group-7 datagram first (one channel FIFO)", got)
	}
	if raw := got[1].Raw; corrupted != 1 || string(raw) != string(sent[:len(sent)-1]) {
		t.Fatalf("frame arrived as %x after %d corruptions, want the receiver's own mangled copy of %x", raw, corrupted, sent)
	}
	if st := net.Stats(); st.Sent != 2 || st.Delivered != 2 {
		t.Errorf("stats %+v, want 2 sent and 2 delivered", st)
	}
}
