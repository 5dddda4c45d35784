package totalorder_test

import (
	"testing"
	"time"

	"cobcast/internal/baseline/totalorder"
	"cobcast/internal/network"
	"cobcast/internal/pdu"
	"cobcast/internal/simrun"
	"cobcast/internal/workload"
)

// TestCOAdvantageHoldsUnderLoss pits the CO protocol's selective
// retransmission against the go-back-n bus at matching loss rates — the
// Section 5 comparison, here run under drops rather than a lossless
// wire. At every loss level both must still deliver everything, the bus
// must exhibit go-back-n waste (discarded in-window slots), and the CO
// protocol must retransmit strictly fewer PDUs than the bus — the
// paper's central efficiency claim.
func TestCOAdvantageHoldsUnderLoss(t *testing.T) {
	const (
		n    = 4
		msgs = 48
		seed = 11
	)
	for _, loss := range []float64{0.1, 0.2, 0.3} {
		co, err := simrun.New(simrun.Options{
			N:     n,
			Trace: true,
			Net: []network.Option{
				network.WithUniformDelay(time.Millisecond),
				network.WithLossRate(loss),
				network.WithSeed(seed),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		co.LoadWorkload(workload.NewContinuous(n, msgs/n, 32))
		if _, err := co.RunToQuiescence(2 * time.Minute); err != nil {
			t.Fatalf("loss %v: CO run: %v", loss, err)
		}
		an, err := co.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if err := an.CheckCOService(); err != nil {
			t.Fatalf("loss %v: CO service violated: %v", loss, err)
		}
		coRetx := co.TotalStats().Retransmitted

		bus, err := totalorder.New(totalorder.Config{N: n, LossRate: loss, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < msgs; i++ {
			bus.Broadcast(pdu.EntityID(i%n), nil)
		}
		st, err := bus.Run()
		if err != nil {
			t.Fatalf("loss %v: bus run: %v", loss, err)
		}
		for r := 0; r < n; r++ {
			if got := len(bus.Delivered(r)); got != msgs {
				t.Fatalf("loss %v: bus receiver %d delivered %d/%d", loss, r, got, msgs)
			}
		}
		if st.Discarded == 0 {
			t.Errorf("loss %v: go-back-n bus discarded nothing; loss not exercised", loss)
		}
		if st.Retransmissions == 0 {
			t.Errorf("loss %v: bus retransmitted nothing; comparison is vacuous", loss)
		}
		if coRetx >= st.Retransmissions {
			t.Errorf("loss %v: CO retransmitted %d PDUs, go-back-n bus %d — selective advantage lost",
				loss, coRetx, st.Retransmissions)
		}
		t.Logf("loss %v: CO retransmitted %d, go-back-n %d (+%d discarded)",
			loss, coRetx, st.Retransmissions, st.Discarded)
	}
}
