package simrun

import (
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/network"
	"cobcast/internal/workload"
)

// TestSoakLargeClusterCO pushes a larger cluster through a long lossy run
// in virtual time and checks the full CO service. Skipped in -short.
func TestSoakLargeClusterCO(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	c, err := New(Options{
		N:     10,
		Trace: true,
		Net: []network.Option{
			network.WithUniformDelay(time.Millisecond),
			network.WithLossRate(0.05),
			network.WithDuplicateRate(0.05),
			network.WithSeed(1234),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(workload.NewContinuous(10, 40, 64))
	if _, err := c.RunToQuiescence(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	a, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCOService(); err != nil {
		t.Fatal(err)
	}
	st := c.TotalStats()
	if st.Delivered != uint64(10*10*40) {
		t.Errorf("Delivered = %d, want %d", st.Delivered, 10*10*40)
	}
	t.Logf("soak: %d PDUs (%d data, %d sync, %d ackonly), %d retransmitted, max resident %d",
		st.DataSent+st.SyncSent+st.AckOnlySent+st.RetSent,
		st.DataSent, st.SyncSent, st.AckOnlySent, st.Retransmitted, st.MaxResident)
}

// TestSoakTotalOrder soaks the TO extension with a mixed workload.
func TestSoakTotalOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	c, err := New(Options{
		N:     6,
		Trace: true,
		Core:  core.Config{TotalOrder: true},
		Net: []network.Option{
			network.WithUniformDelay(time.Millisecond),
			network.WithLossRate(0.08),
			network.WithSeed(77),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(workload.NewInteractive(6, 150, 48, 2*time.Millisecond, 77))
	if _, err := c.RunToQuiescence(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	a, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCOService(); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckTotalOrderPreserved(); err != nil {
		t.Fatal(err)
	}
}
