package simrun

import (
	"fmt"
	"testing"
	"time"

	"cobcast/internal/sim"
	"cobcast/internal/trace"
	"cobcast/internal/workload"
)

// TestSoloMessageCostsTwoRounds pins §5's O(n) confirmation cost: one
// DATA in an idle cluster draws two confirmation rounds of one PDU per
// entity each — 2n+1 PDUs in all — and once every entity has delivered
// it nothing sequenced leaves again, however long the cluster idles.
func TestSoloMessageCostsTwoRounds(t *testing.T) {
	for n := 2; n <= 8; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c, err := New(Options{N: n, Net: []sim.NetOption{sim.NetUniformDelay(500 * time.Microsecond)}, Trace: true})
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
			var lastDeliver time.Duration
			for _, ev := range c.Recorder.Events() {
				if ev.Type == trace.Deliver && ev.At > lastDeliver {
					lastDeliver = ev.At
				}
			}
			for _, ev := range c.Recorder.Events() {
				if ev.Type == trace.Send && ev.At > lastDeliver {
					t.Errorf("entity %d sent %v at %v, after the last delivery at %v", ev.Entity, ev.Msg, ev.At, lastDeliver)
				}
			}
		})
	}
}

// TestSkewedLinkConfirmsLate runs paced traffic over
// TestZeroLossSkewRepairs' topology, one link five times slower than the
// rest, so the other entities' round 1 for entity 0's DATA reaches
// entity 3 before the DATA does. Every message is still delivered
// everywhere, and the confirmations the deferred-ack timer fired are
// counted apart from the rest. The counts are pinned as the engine
// stands.
func TestSkewedLinkConfirmsLate(t *testing.T) {
	const n, msgs = 4, 160
	c := run(t, Options{N: n, Net: []sim.NetOption{sim.NetDelay(skewedLink)}},
		workload.NewInteractive(n, msgs, 32, 3*time.Millisecond, 7))
	st := c.TotalStats()
	if st.Delivered != n*msgs {
		t.Fatalf("delivered %d, want %d", st.Delivered, n*msgs)
	}
	const deferred, late = 876, 20
	if st.DeferredConfirms != deferred || st.LateConfirms != late {
		t.Errorf("DeferredConfirms %d, LateConfirms %d; pinned %d, %d",
			st.DeferredConfirms, st.LateConfirms, deferred, late)
	}
}
