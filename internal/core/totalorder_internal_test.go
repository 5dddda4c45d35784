package core

// White-box tests for the total-order release stage internals.

import (
	"errors"
	"testing"
	"time"

	"cobcast/internal/pdu"
)

func TestToKeyOrdering(t *testing.T) {
	tests := []struct {
		name string
		a, b toKey
		less bool
	}{
		{"by ltime", toKey{lt: 1, src: 9, seq: 9}, toKey{lt: 2, src: 0, seq: 0}, true},
		{"ltime tie by src", toKey{lt: 5, src: 0, seq: 9}, toKey{lt: 5, src: 1, seq: 0}, true},
		{"full tie by seq", toKey{lt: 5, src: 1, seq: 1}, toKey{lt: 5, src: 1, seq: 2}, true},
		{"equal", toKey{lt: 5, src: 1, seq: 1}, toKey{lt: 5, src: 1, seq: 1}, false},
		{"greater", toKey{lt: 6, src: 0, seq: 0}, toKey{lt: 5, src: 9, seq: 9}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.less(tt.b); got != tt.less {
				t.Errorf("less(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.less)
			}
		})
	}
}

func TestToHeapPopsInKeyOrder(t *testing.T) {
	s := newTOState(3)
	keys := []toKey{
		{lt: 3, src: 1, seq: 1}, {lt: 1, src: 2, seq: 1}, {lt: 2, src: 0, seq: 1},
		{lt: 1, src: 0, seq: 1}, {lt: 4, src: 2, seq: 2}, {lt: 4, src: 1, seq: 2},
		{lt: 6, src: 0, seq: 2}, {lt: 5, src: 1, seq: 3},
	}
	for _, k := range keys {
		s.push(toItem{key: k})
	}
	var prev *toKey
	for len(s.pending) > 0 {
		k := s.pop().key
		if prev != nil && !prev.less(k) {
			t.Fatalf("heap popped %v after %v", k, *prev)
		}
		prev = &k
	}
}

// runTOPair runs two total-order entities exchanging PDUs for the given
// rounds, entity 0 submitting every fourth round before round feed, and
// returns the deliveries and the clock. Each round hands every PDU of the
// last one to the other entity, then ticks both.
func runTOPair(t *testing.T, e0, e1 *Entity, pending []*pdu.PDU, now time.Duration, rounds, feed int) (int, time.Duration) {
	t.Helper()
	deliveries := 0
	for round := 0; round < rounds; round++ {
		now += time.Millisecond
		var next []*pdu.PDU
		for _, p := range pending {
			dst := e1
			if p.Src == 1 {
				dst = e0
			}
			out, err := dst.Receive(p.Clone(), now)
			if err != nil {
				t.Fatal(err)
			}
			deliveries += len(out.Deliveries)
			next = append(next, out.PDUs...)
		}
		o0, o1 := e0.Tick(now), e1.Tick(now)
		deliveries += len(o0.Deliveries) + len(o1.Deliveries)
		next = append(next, o0.PDUs...)
		next = append(next, o1.PDUs...)
		pending = next
		// Feed more data every few rounds to keep commits flowing.
		if round%4 == 0 && round < feed {
			out := e0.Submit([]byte{byte(round)}, now)
			pending = append(pending, out.PDUs...)
			deliveries += len(out.Deliveries)
		}
	}
	return deliveries, now
}

// newTOPair returns two total-order entities of a 2-entity cluster.
func newTOPair(t *testing.T) (*Entity, *Entity) {
	t.Helper()
	mk := func(id pdu.EntityID) *Entity {
		e, err := New(Config{ID: id, N: 2, TotalOrder: true,
			DeferredAckInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return mk(0), mk(1)
}

// TestLTimePruning forces the pruning pass with a tiny threshold and
// verifies referenced entries survive while history shrinks.
func TestLTimePruning(t *testing.T) {
	old := ltimePruneThreshold
	ltimePruneThreshold = 8
	defer func() { ltimePruneThreshold = old }()

	// Two entities exchanging continuously in TO mode.
	e0, e1 := newTOPair(t)
	deliveries, _ := runTOPair(t, e0, e1, e0.Submit([]byte("kick"), 0).PDUs, 0, 400, 300)
	if deliveries == 0 {
		t.Fatal("nothing delivered")
	}
	// Pruning must have moved the base forward on the busy source.
	if e1.to.base[0] <= 1 {
		t.Errorf("ltime history never pruned: base=%v len=%d",
			e1.to.base[0], e1.to.ltimes[0].len())
	}
	for k := 0; k < 2; k++ {
		if e1.to.ltimes[k].len() > 8*ltimePruneThreshold {
			t.Errorf("source %d history %d entries despite pruning", k, e1.to.ltimes[k].len())
		}
	}
}

// regressedSync is a SYNC from source 0 at seq that honours clause 1
// (ACK[0] == SEQ) but names entity 1's PDU 1 in ACK[1], far below what
// source 0 has already acknowledged: once that logical time is pruned, a
// commit of it would read history that is gone.
func regressedSync(seq pdu.Seq) *pdu.PDU {
	return &pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: seq, ACK: []pdu.Seq{seq, 2}, LSrc: pdu.NoEntity}
}

// TestRegressedACKRefused feeds a total-order entity whose logical-time
// history has been pruned a well-formed SYNC whose ACK entry for entity
// 1 goes backwards. Clause 2 of the honest-sender contract refuses it at
// acceptance, before it could reach the commit stage.
func TestRegressedACKRefused(t *testing.T) {
	old := ltimePruneThreshold
	ltimePruneThreshold = 8
	defer func() { ltimePruneThreshold = old }()

	e0, e1 := newTOPair(t)
	_, now := runTOPair(t, e0, e1, e0.Submit([]byte("kick"), 0).PDUs, 0, 400, 300)
	if e1.to.base[1] <= 2 {
		t.Fatalf("entity 1's own history never pruned: base %d", e1.to.base[1])
	}
	invalid, committed := e1.stats.InvalidPDUs, append([]pdu.Seq(nil), e1.committed...)
	_, err := e1.Receive(regressedSync(e1.req[0]), now)
	if !errors.Is(err, ErrACKRegressed) {
		t.Fatalf("Receive = %v, want ErrACKRegressed", err)
	}
	if got := e1.stats.InvalidPDUs; got != invalid+1 {
		t.Fatalf("InvalidPDUs = %d, want %d", got, invalid+1)
	}
	for k, c := range committed {
		if e1.committed[k] != c {
			t.Fatalf("committed[%d] = %d, was %d", k, e1.committed[k], c)
		}
	}
	runTOPair(t, e0, e1, nil, now, 50, 0)
	checkInvariants(t, e1, 0)
}

// TestRegressedACKDroppedAtUnpark parks the same violator behind the gap
// of entity 0's next DATA, then delivers that DATA: the violator is
// dropped as it is unparked, counted, and never accepted, and the pair
// carries on delivering.
func TestRegressedACKDroppedAtUnpark(t *testing.T) {
	old := ltimePruneThreshold
	ltimePruneThreshold = 8
	defer func() { ltimePruneThreshold = old }()

	e0, e1 := newTOPair(t)
	_, now := runTOPair(t, e0, e1, e0.Submit([]byte("kick"), 0).PDUs, 0, 400, 300)
	next := e0.Submit([]byte("next"), now).PDUs
	if len(next) != 1 || next[0].SEQ != e1.req[0] {
		t.Fatalf("entity 0 sent %v, want its next DATA at SEQ %d", next, e1.req[0])
	}
	invalid := e1.stats.InvalidPDUs
	if _, err := e1.Receive(regressedSync(next[0].SEQ+1), now); err != nil {
		t.Fatalf("parking the violator: %v", err)
	}
	if e1.parkedTotal != 1 {
		t.Fatalf("parked %d PDUs, want the violator", e1.parkedTotal)
	}
	out, err := e1.Receive(next[0].Clone(), now)
	if err != nil {
		t.Fatalf("Receive of the honest DATA = %v", err)
	}
	if got := e1.stats.InvalidPDUs; got != invalid+1 {
		t.Fatalf("InvalidPDUs = %d, want %d", got, invalid+1)
	}
	if e1.parkedTotal != 0 || e1.req[0] != next[0].SEQ+1 {
		t.Fatalf("parked %d, REQ[0] %d: want the violator dropped and REQ %d", e1.parkedTotal, e1.req[0], next[0].SEQ+1)
	}
	deliveries, _ := runTOPair(t, e0, e1, out.PDUs, now, 50, 0)
	if deliveries != 2 {
		t.Fatalf("delivered %d messages after the drop, want the DATA at both", deliveries)
	}
	checkInvariants(t, e1, 0)
}
