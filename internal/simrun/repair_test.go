package simrun

import (
	"math/rand"
	"testing"
	"time"

	"cobcast/internal/network"
	"cobcast/internal/pdu"
	"cobcast/internal/workload"
)

// TestZeroLossSkewRepairs reproduces the spurious repair of ROADMAP item
// 1 deterministically: with no loss at all, one slow link (0→3 at
// 2.5 ms, every other link 500 µs) lets the other entities' ACK vectors
// name entity 0's PDUs before those PDUs reach entity 3, which counts
// each as an F2 detection and asks entity 0 to retransmit PDUs that are
// still in flight. With a uniform delay the same workload repairs
// nothing. The counts are pinned as the engine stands (the two-round
// confirmation rule sends fewer SYNCs, and one fewer ACK vector names a
// PDU still in flight: F2Detections 18 → 17); item 1's fix — no first
// RET while the named source's PDU can still be in flight — drives
// RetSent, and with it Retransmitted and Duplicates, to 0.
func TestZeroLossSkewRepairs(t *testing.T) {
	for _, tc := range []struct {
		name                                   string
		delay                                  network.Option
		f2, retSent, retransmitted, duplicates uint64
	}{
		{"skewed", network.WithDelay(skewedLink), 17, 1, 1, 3},
		{"uniform", network.WithUniformDelay(500 * time.Microsecond), 0, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := run(t, Options{N: 4, Net: []network.Option{tc.delay}}, workload.NewContinuous(4, 40, 32))
			if lost := c.Net.Stats().Dropped(); lost != 0 {
				t.Fatalf("zero-loss network dropped %d PDUs", lost)
			}
			st := c.TotalStats()
			if st.F2Detections != tc.f2 || st.RetSent != tc.retSent ||
				st.Retransmitted != tc.retransmitted || st.Duplicates != tc.duplicates {
				t.Errorf("F2Detections %d, RetSent %d, Retransmitted %d, Duplicates %d; pinned %d, %d, %d, %d",
					st.F2Detections, st.RetSent, st.Retransmitted, st.Duplicates,
					tc.f2, tc.retSent, tc.retransmitted, tc.duplicates)
			}
		})
	}
}

// skewedLink delays 0→3 by 2.5 ms and every other link by 500 µs.
func skewedLink(from, to pdu.EntityID, _ *rand.Rand) time.Duration {
	if from == 0 && to == 3 {
		return 2500 * time.Microsecond
	}
	return 500 * time.Microsecond
}
