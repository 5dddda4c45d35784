package cbcast

import (
	"math/rand"
	"testing"

	"cobcast/internal/flight"
	"cobcast/internal/pdu"
	"cobcast/internal/trace"
)

func newGroup(t *testing.T, n int) []*Entity {
	t.Helper()
	es := make([]*Entity, n)
	for i := range es {
		e, err := New(pdu.EntityID(i), n)
		if err != nil {
			t.Fatal(err)
		}
		es[i] = e
	}
	return es
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := New(3, 3); err == nil {
		t.Error("id out of range accepted")
	}
	if _, err := New(-1, 3); err == nil {
		t.Error("negative id accepted")
	}
}

func TestImmediateDeliveryInOrder(t *testing.T) {
	es := newGroup(t, 2)
	m1 := es[0].Broadcast([]byte("one"))
	m2 := es[0].Broadcast([]byte("two"))
	d, err := es[1].Receive(m1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 || string(d[0].Data) != "one" {
		t.Fatalf("first delivery: %v", d)
	}
	d, err = es[1].Receive(m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 || string(d[0].Data) != "two" {
		t.Fatalf("second delivery: %v", d)
	}
}

func TestHoldsForSourceGap(t *testing.T) {
	es := newGroup(t, 2)
	m1 := es[0].Broadcast([]byte("one"))
	m2 := es[0].Broadcast([]byte("two"))
	d, err := es[1].Receive(m2) // out of order
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 || es[1].Held() != 1 {
		t.Fatalf("m2 should be held: deliveries=%v held=%d", d, es[1].Held())
	}
	d, err = es[1].Receive(m1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || string(d[0].Data) != "one" || string(d[1].Data) != "two" {
		t.Fatalf("repair should release both in order: %v", d)
	}
	if es[1].Stats().Held != 1 {
		t.Errorf("Held = %d, want 1", es[1].Stats().Held)
	}
}

func TestHoldsForCausalDependency(t *testing.T) {
	// e0 broadcasts p; e1 delivers p then broadcasts q (q depends on p).
	// e2 receives q first: it must wait for p.
	es := newGroup(t, 3)
	p := es[0].Broadcast([]byte("p"))
	if _, err := es[1].Receive(p); err != nil {
		t.Fatal(err)
	}
	q := es[1].Broadcast([]byte("q"))

	d, err := es[2].Receive(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 {
		t.Fatalf("q delivered before its dependency p: %v", d)
	}
	d, err = es[2].Receive(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || string(d[0].Data) != "p" || string(d[1].Data) != "q" {
		t.Fatalf("expected p then q, got %v", d)
	}
}

func TestDuplicatesDropped(t *testing.T) {
	es := newGroup(t, 2)
	m := es[0].Broadcast([]byte("m"))
	if _, err := es[1].Receive(m); err != nil {
		t.Fatal(err)
	}
	d, err := es[1].Receive(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 || es[1].Stats().Duplicates != 1 {
		t.Errorf("duplicate not dropped: %v, stats %+v", d, es[1].Stats())
	}
}

func TestOwnMessageIgnored(t *testing.T) {
	es := newGroup(t, 2)
	m := es[0].Broadcast([]byte("m"))
	d, err := es[0].Receive(m)
	if err != nil || len(d) != 0 {
		t.Errorf("own echo: %v, %v", d, err)
	}
}

func TestBadStampRejected(t *testing.T) {
	es := newGroup(t, 2)
	if _, err := es[1].Receive(Message{Src: 0, VT: []uint64{1, 2, 3}}); err == nil {
		t.Error("wrong-length stamp accepted")
	}
}

// TestRandomRunCausalOrder shuffles delivery of a random causal history
// (per-source order preserved, cross-source arbitrary) and checks the
// resulting delivery order against the ground-truth checker.
func TestRandomRunCausalOrder(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		es := newGroup(t, n)
		streams := make([][]flight.Event, n)
		record := func(t flight.EventType, at int, src pdu.EntityID, seq pdu.Seq) {
			streams[at] = append(streams[at], flight.Event{Entity: int32(at), Type: t,
				Src: int32(src), Seq: uint64(seq), Kind: uint8(pdu.KindData)})
		}

		// Per-receiver pending queues preserve per-sender order but
		// interleave sources randomly (the MC-network hazard).
		queues := make([][]Message, n)
		var msgCount int
		for round := 0; round < 12; round++ {
			src := rng.Intn(n)
			m := es[src].Broadcast([]byte{byte(round)})
			msgCount++
			record(flight.EvSequence, src, m.Src, pdu.Seq(m.VT[m.Src]))
			record(flight.EvDeliver, src, m.Src, pdu.Seq(m.VT[m.Src]))
			// Everyone must "accept" it for the sender's next stamp to be
			// causally downstream in ground truth; queue for receivers.
			for r := 0; r < n; r++ {
				if r != src {
					queues[r] = append(queues[r], m)
				}
			}
			// Randomly drain some queued messages.
			for r := 0; r < n; r++ {
				drain := rng.Intn(len(queues[r]) + 1)
				for k := 0; k < drain; k++ {
					m := queues[r][0]
					queues[r] = queues[r][1:]
					ds, err := es[r].Receive(m)
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range ds {
						record(flight.EvAccept, r, d.Src, pdu.Seq(d.Seq))
						record(flight.EvDeliver, r, d.Src, pdu.Seq(d.Seq))
					}
				}
			}
		}
		// Drain everything remaining.
		for r := 0; r < n; r++ {
			for len(queues[r]) > 0 {
				m := queues[r][0]
				queues[r] = queues[r][1:]
				ds, err := es[r].Receive(m)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range ds {
					record(flight.EvAccept, r, d.Src, pdu.Seq(d.Seq))
					record(flight.EvDeliver, r, d.Src, pdu.Seq(d.Seq))
				}
			}
		}
		a, err := trace.Analyze(streams)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := a.CheckCOService(); err != nil {
			t.Fatalf("seed %d (n=%d): %v", seed, n, err)
		}
	}
}

func TestComparisonsCounted(t *testing.T) {
	es := newGroup(t, 4)
	m := es[0].Broadcast([]byte("m"))
	if _, err := es[1].Receive(m); err != nil {
		t.Fatal(err)
	}
	if es[1].Stats().Comparisons == 0 {
		t.Error("delivery condition performed no counted comparisons")
	}
}
