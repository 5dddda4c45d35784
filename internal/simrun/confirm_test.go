package simrun

import (
	"fmt"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/network"
	"cobcast/internal/pdu"
	"cobcast/internal/workload"
)

// TestSoloMessageCostsTwoRounds pins §5's O(n) confirmation cost from a
// cold start: one DATA in an idle cluster that has never spoken, and
// once every entity has delivered it nothing sequenced leaves again,
// however long the cluster idles. The DATA is its sender's round 1. At
// n = 2 its one receiver has heard from every peer and its round 1 is
// also its round 2 (no other peer to wait for), so the message costs 3
// PDUs. From n = 3 on, no receiver has heard from every peer, so round
// 1 goes on the late deadline, and the sender fires one late SYNC of
// its own just before: 2n+1 PDUs.
func TestSoloMessageCostsTwoRounds(t *testing.T) {
	for n := 2; n <= 8; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c, err := New(Options{N: n, Net: []network.Option{network.WithUniformDelay(500 * time.Microsecond)}, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			c.SubmitAt(0, []byte("solo"), time.Millisecond)
			if _, err := c.RunToQuiescence(virtualDeadline); err != nil {
				t.Fatal(err)
			}
			c.Sim.RunFor(time.Second)
			st := c.TotalStats()
			want := uint64(2*n + 1)
			if n == 2 {
				want = 3
			}
			if got := st.DataSent + st.SyncSent + st.AckOnlySent + st.RetSent; got != want {
				t.Errorf("%d PDUs (DATA %d, SYNC %d, ACKONLY %d, RET %d), want %d",
					got, st.DataSent, st.SyncSent, st.AckOnlySent, st.RetSent, want)
			}
			if st.Delivered != uint64(n) {
				t.Errorf("delivered %d times, want once at each of %d entities", st.Delivered, n)
			}
			var lastDeliver int64
			events := c.Flight.Snapshot(nil)
			for _, ev := range events {
				if ev.Type == flight.EvDeliver && ev.At > lastDeliver {
					lastDeliver = ev.At
				}
			}
			for _, ev := range events {
				if ev.Type == flight.EvSequence && ev.At > lastDeliver {
					t.Errorf("entity %d sent s%d#%d at %v, after the last delivery at %v",
						ev.Entity, ev.Src, ev.Seq, time.Duration(ev.At), time.Duration(lastDeliver))
				}
			}
		})
	}
}

// TestWarmSoloMessageCostsThreeTrips pins the cost of one message in a
// warm cluster, one whose entities have all heard from every peer since
// they last spoke: the DATA is its sender's round 1, because each
// receiver infers from the DATA that its sender accepted it; each
// receiver's round 1 goes on arrival, and each entity's round 2 once
// every peer's round 1 is in. That is 2n PDUs (3 at n = 2, where the
// one receiver's round 1 is its round 2 too), and every entity delivers
// three one-way link delays after the send.
func TestWarmSoloMessageCostsThreeTrips(t *testing.T) {
	const link = 500 * time.Microsecond
	const at = 400 * time.Millisecond
	for n := 2; n <= 8; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c, err := New(Options{N: n, Net: []network.Option{network.WithUniformDelay(link)}, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			c.SubmitAt(0, []byte("warm-1"), time.Millisecond)
			c.SubmitAt(pdu.EntityID(n-1), []byte("warm-2"), 200*time.Millisecond)
			c.SubmitAt(0, []byte("solo"), at)
			c.Sim.RunFor(at - time.Millisecond)
			before := c.TotalStats()
			if before.Delivered != uint64(2*n) {
				t.Fatalf("warm-up delivered %d, want %d", before.Delivered, 2*n)
			}
			if _, err := c.RunToQuiescence(virtualDeadline); err != nil {
				t.Fatal(err)
			}
			c.Sim.RunFor(time.Second)
			st := c.TotalStats()
			want := uint64(2 * n)
			if n == 2 {
				want = 3
			}
			sent := func(s core.Stats) uint64 { return s.DataSent + s.SyncSent + s.AckOnlySent + s.RetSent }
			if got := sent(st) - sent(before); got != want {
				t.Errorf("%d PDUs after the send (DATA %d, SYNC %d, ACKONLY %d, RET %d), want %d",
					got, st.DataSent-before.DataSent, st.SyncSent-before.SyncSent,
					st.AckOnlySent-before.AckOnlySent, st.RetSent-before.RetSent, want)
			}
			if st.Delivered != uint64(3*n) {
				t.Errorf("delivered %d times, want %d", st.Delivered, 3*n)
			}
			var lastDeliver int64
			for _, ev := range c.Flight.Snapshot(nil) {
				if ev.Type == flight.EvDeliver && ev.At > lastDeliver {
					lastDeliver = ev.At
				}
			}
			if got := time.Duration(lastDeliver) - at; got != 3*link {
				t.Errorf("last delivery %v after the send, want three link delays (%v)", got, 3*link)
			}
		})
	}
}

// TestSkewedLinkConfirmsLate runs paced traffic over
// TestZeroLossSkewRepairs' topology, one link five times slower than the
// rest, so the other entities' round 1 for entity 0's DATA reaches
// entity 3 before the DATA does. Every message is still delivered
// everywhere, and the confirmations the late-confirmation deadline fired
// are counted apart from the rest. The counts are pinned as the engine
// stands: the deadline following the observed round moved them from 876
// and 20 to 857 and 11, a RET confirming like an ACKONLY (the skew
// draws spurious RETs, ROADMAP item 1) to 826 and 19, and an own DATA
// standing as its sender's round 1 to 709 and 12.
func TestSkewedLinkConfirmsLate(t *testing.T) {
	const n, msgs = 4, 160
	c := run(t, Options{N: n, Net: []network.Option{network.WithDelay(skewedLink)}},
		workload.NewInteractive(n, msgs, 32, 3*time.Millisecond, 7))
	st := c.TotalStats()
	if st.Delivered != n*msgs {
		t.Fatalf("delivered %d, want %d", st.Delivered, n*msgs)
	}
	const deferred, late = 709, 12
	if st.DeferredConfirms != deferred || st.LateConfirms != late {
		t.Errorf("DeferredConfirms %d, LateConfirms %d; pinned %d, %d",
			st.DeferredConfirms, st.LateConfirms, deferred, late)
	}
}

// TestSlowLinksConfirmOnObservedRound runs paced traffic over uniform
// links twice as slow as DeferredAckInterval. A round takes two link
// delays, so a deadline of DeferredAckInterval after the last send fires
// a late SYNC into every round still in flight (449 of them for 40
// messages, 3237 for 320). The deadline follows the observed round
// instead: late confirmations go only until every entity has timed a
// round of its own DATA, so eight times the traffic drew just two more
// (54 and 56). Since an own DATA stands as its sender's round 1, both
// runs draw 49: the 280 messages past the first 40 (the same workload's
// prefix) draw none. Every message is still delivered everywhere; the
// counts are pinned as the engine stands.
func TestSlowLinksConfirmOnObservedRound(t *testing.T) {
	const n = 4
	for _, tc := range []struct{ msgs, late uint64 }{{40, 49}, {320, 49}} {
		c := run(t, Options{N: n, Core: core.Config{DeferredAckInterval: time.Millisecond},
			Net: []network.Option{network.WithUniformDelay(2 * time.Millisecond)}},
			workload.NewInteractive(n, int(tc.msgs), 32, 10*time.Millisecond, 7))
		st := c.TotalStats()
		if st.Delivered != n*tc.msgs {
			t.Fatalf("%d messages: delivered %d, want %d", tc.msgs, st.Delivered, n*tc.msgs)
		}
		if st.LateConfirms != tc.late {
			t.Errorf("%d messages: LateConfirms %d, pinned %d", tc.msgs, st.LateConfirms, tc.late)
		}
	}
}
