package simrun

import (
	"fmt"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/network"
	"cobcast/internal/workload"
)

// TestSoloMessageCostsTwoRounds pins §5's O(n) confirmation cost: one
// DATA in an idle cluster draws two confirmation rounds of one PDU per
// entity each — 2n+1 PDUs in all — and once every entity has delivered
// it nothing sequenced leaves again, however long the cluster idles.
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
			if got, want := st.DataSent+st.SyncSent+st.AckOnlySent+st.RetSent, uint64(2*n+1); got != want {
				t.Errorf("%d PDUs (DATA %d, SYNC %d, ACKONLY %d, RET %d), want 2n+1 = %d",
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

// TestSkewedLinkConfirmsLate runs paced traffic over
// TestZeroLossSkewRepairs' topology, one link five times slower than the
// rest, so the other entities' round 1 for entity 0's DATA reaches
// entity 3 before the DATA does. Every message is still delivered
// everywhere, and the confirmations the late-confirmation deadline fired
// are counted apart from the rest. The counts are pinned as the engine
// stands: the deadline following the observed round moved them from 876
// and 20 to 857 and 11, and a RET confirming like an ACKONLY (the skew
// draws spurious RETs, ROADMAP item 1) to 826 and 19.
func TestSkewedLinkConfirmsLate(t *testing.T) {
	const n, msgs = 4, 160
	c := run(t, Options{N: n, Net: []network.Option{network.WithDelay(skewedLink)}},
		workload.NewInteractive(n, msgs, 32, 3*time.Millisecond, 7))
	st := c.TotalStats()
	if st.Delivered != n*msgs {
		t.Fatalf("delivered %d, want %d", st.Delivered, n*msgs)
	}
	const deferred, late = 826, 19
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
// round of its own DATA, so eight times the traffic draws just two more.
// Every message is still delivered everywhere; the counts are pinned as
// the engine stands.
func TestSlowLinksConfirmOnObservedRound(t *testing.T) {
	const n = 4
	for _, tc := range []struct{ msgs, late uint64 }{{40, 54}, {320, 56}} {
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
