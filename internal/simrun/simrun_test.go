package simrun

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/network"
	"cobcast/internal/pdu"
	"cobcast/internal/workload"
)

const virtualDeadline = 30 * time.Second

// run builds a cluster, loads the workload, runs to quiescence and runs
// the full CO-service trace check.
func run(t *testing.T, opts Options, gen workload.Generator) *Cluster {
	t.Helper()
	opts.Trace = true
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(gen)
	if _, err := c.RunToQuiescence(virtualDeadline); err != nil {
		t.Fatal(err)
	}
	a, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCOService(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLosslessClusters(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		n := n
		t.Run(string(rune('0'+n))+"entities", func(t *testing.T) {
			t.Parallel()
			c := run(t, Options{
				N:   n,
				Net: []network.Option{network.WithUniformDelay(time.Millisecond)},
			}, workload.NewContinuous(n, 10, 32))
			st := c.TotalStats()
			if st.RetSent != 0 || st.Retransmitted != 0 {
				t.Errorf("lossless run retransmitted: %+v", st)
			}
		})
	}
}

func TestSingleMessageIdleCluster(t *testing.T) {
	// One message into an otherwise idle cluster must still be fully
	// acknowledged and delivered everywhere (the deferred-confirmation
	// gossip does the work), and the cluster must then go quiet.
	c := run(t, Options{
		N:   4,
		Net: []network.Option{network.WithUniformDelay(2 * time.Millisecond)},
	}, workload.NewSingleSource(0, 1, 64))
	for i, ds := range c.Delivered {
		if len(ds) != 1 || ds[0].Src != 0 || ds[0].SEQ != 1 {
			t.Errorf("entity %d deliveries: %v", i, ds)
		}
	}
	// After quiescence, a long further run must produce no new traffic.
	sent := c.Net.Stats().Sent
	c.Sim.RunFor(time.Second)
	if got := c.Net.Stats().Sent; got != sent {
		t.Errorf("cluster kept talking after quiescence: %d -> %d datagrams", sent, got)
	}
}

func TestLossyClusters(t *testing.T) {
	tests := []struct {
		name string
		n    int
		loss float64
		seed int64
	}{
		{"n3 loss5%", 3, 0.05, 1},
		{"n4 loss10%", 4, 0.10, 2},
		{"n3 loss30%", 3, 0.30, 3},
		{"n5 loss10%", 5, 0.10, 4},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			c := run(t, Options{
				N: tt.n,
				Net: []network.Option{
					network.WithUniformDelay(time.Millisecond),
					network.WithLossRate(tt.loss),
					network.WithSeed(tt.seed),
				},
			}, workload.NewContinuous(tt.n, 8, 32))
			st := c.TotalStats()
			if st.RetSent == 0 {
				t.Error("lossy run issued no retransmission requests")
			}
			if st.Retransmitted == 0 {
				t.Error("lossy run rebroadcast nothing")
			}
		})
	}
}

func TestTargetedLossBurst(t *testing.T) {
	// Drop every copy of one specific PDU on first transmission; the
	// selective repair path must recover exactly it.
	dropped := 0
	c, err := New(Options{
		N:     3,
		Trace: true,
		Net: []network.Option{
			network.WithUniformDelay(time.Millisecond),
			network.WithDropFilter(func(_, _ pdu.EntityID, d network.Inbound) bool {
				for _, p := range d.PDUs {
					if p.Kind == pdu.KindData && p.Src == 0 && p.SEQ == 2 && dropped < 2 {
						dropped++
						return true
					}
				}
				return false
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(workload.NewSingleSource(0, 4, 32))
	if _, err := c.RunToQuiescence(virtualDeadline); err != nil {
		t.Fatal(err)
	}
	a, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCOService(); err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Errorf("filter dropped %d copies, want 2", dropped)
	}
	if st := c.TotalStats(); st.Retransmitted == 0 {
		t.Error("no retransmission despite targeted drop")
	}
}

func TestWindowOneMutualPressure(t *testing.T) {
	// Both entities flood with window 1: the ACKONLY fallback must
	// prevent the mutual piggyback deadlock (DESIGN.md liveness note).
	c := run(t, Options{
		N:    2,
		Core: core.Config{Window: 1},
		Net:  []network.Option{network.WithUniformDelay(time.Millisecond)},
	}, workload.NewContinuous(2, 10, 16))
	if got := c.TotalStats().Delivered; got != 2*2*10 {
		t.Errorf("Delivered = %d, want 40", got)
	}
}

func TestBurstyWorkload(t *testing.T) {
	run(t, Options{
		N:   4,
		Net: []network.Option{network.WithUniformDelay(time.Millisecond), network.WithLossRate(0.05), network.WithSeed(5)},
	}, workload.NewBursty(4, 6, 4, 32, 20*time.Millisecond, 5))
}

func TestInteractiveWorkload(t *testing.T) {
	run(t, Options{
		N:   3,
		Net: []network.Option{network.WithUniformDelay(3 * time.Millisecond)},
	}, workload.NewInteractive(3, 30, 24, 5*time.Millisecond, 11))
}

func TestAsymmetricDelays(t *testing.T) {
	// Heterogeneous propagation delays reorder PDUs across senders — the
	// MC network's defining hazard for causal delivery.
	delay := func(from, to pdu.EntityID, _ *rand.Rand) time.Duration {
		return time.Duration(1+3*int(from)+int(to)) * time.Millisecond
	}
	run(t, Options{
		N:   4,
		Net: []network.Option{network.WithDelay(delay)},
	}, workload.NewContinuous(4, 8, 16))
}

func TestJitteredDelaysWithLoss(t *testing.T) {
	delay := func(_, _ pdu.EntityID, rng *rand.Rand) time.Duration {
		return time.Duration(500+rng.Intn(4000)) * time.Microsecond
	}
	run(t, Options{
		N:   5,
		Net: []network.Option{network.WithDelay(delay), network.WithLossRate(0.08), network.WithSeed(13)},
	}, workload.NewContinuous(5, 6, 16))
}

// TestQuickRandomClusters fuzzes cluster size, loss rate, window and
// workload shape; every combination must provide the CO service.
func TestQuickRandomClusters(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		loss := []float64{0, 0.05, 0.15, 0.3}[rng.Intn(4)]
		window := pdu.Seq(1 + rng.Intn(8))
		perSender := 1 + rng.Intn(6)
		c, err := New(Options{
			N:     n,
			Trace: true,
			Core:  core.Config{Window: window},
			Net: []network.Option{
				network.WithUniformDelay(time.Duration(1+rng.Intn(3)) * time.Millisecond),
				network.WithLossRate(loss),
				network.WithSeed(seed),
			},
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		c.LoadWorkload(workload.NewContinuous(n, perSender, 16))
		if _, err := c.RunToQuiescence(virtualDeadline); err != nil {
			t.Logf("seed %d (n=%d loss=%v w=%d): %v", seed, n, loss, window, err)
			return false
		}
		a, err := c.Analyze()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := a.CheckCOService(); err != nil {
			t.Logf("seed %d (n=%d loss=%v w=%d): %v", seed, n, loss, window, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTapSamplesRecorded(t *testing.T) {
	c := run(t, Options{
		N:   3,
		Net: []network.Option{network.WithUniformDelay(2 * time.Millisecond)},
	}, workload.NewContinuous(3, 4, 16))
	taps := c.TapSamples()
	if len(taps) == 0 {
		t.Fatal("no Tap samples recorded")
	}
	for _, d := range taps {
		if d < 0 {
			t.Fatalf("negative delay %v", d)
		}
	}
	// Delivery at a remote entity requires at least one propagation
	// delay; full acknowledgment requires more (the 2R claim).
	var maxTap time.Duration
	for _, d := range taps {
		if d > maxTap {
			maxTap = d
		}
	}
	if maxTap < 2*time.Millisecond {
		t.Errorf("max Tap %v below one propagation delay", maxTap)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{N: 1}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := New(Options{N: core.BufferUnits/(2*core.UnitsPerPDU) + 1}); err == nil {
		t.Error("invalid core config accepted")
	}
}

func TestAnalyzeRequiresTrace(t *testing.T) {
	c, err := New(Options{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Analyze(); err == nil {
		t.Error("Analyze without tracing succeeded")
	}
}

func TestDuplicationAndLossTogether(t *testing.T) {
	// UDP-realistic conditions: loss and duplication at once. Delivery
	// must stay exactly-once and causally ordered.
	run(t, Options{
		N: 4,
		Net: []network.Option{
			network.WithUniformDelay(time.Millisecond),
			network.WithLossRate(0.1),
			network.WithDuplicateRate(0.2),
			network.WithSeed(21),
		},
	}, workload.NewContinuous(4, 8, 24))
}

func TestTotalOrderWithDuplication(t *testing.T) {
	c, err := New(Options{
		N:     3,
		Trace: true,
		Core:  core.Config{TotalOrder: true},
		Net: []network.Option{
			network.WithUniformDelay(time.Millisecond),
			network.WithDuplicateRate(0.3),
			network.WithSeed(8),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(workload.NewContinuous(3, 6, 16))
	if _, err := c.RunToQuiescence(virtualDeadline); err != nil {
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

// TestNewGroupsIsolatesGroups runs three groups over one lossy network on
// the pointer path and under the wire codec: each group delivers exactly its
// own submissions everywhere, the CO service holds per group, and node
// names carry the group.
func TestNewGroupsIsolatesGroups(t *testing.T) {
	for _, wire := range []int{0, 2} {
		cs, err := NewGroups(Options{
			N: 3,
			Net: []network.Option{
				network.WithUniformDelay(time.Millisecond), network.WithLossRate(0.1), network.WithSeed(7),
			},
			Trace:       true,
			WireVersion: wire,
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		for g, c := range cs {
			for k := 0; k < 5+g; k++ {
				c.SubmitAt(pdu.EntityID(k%3), []byte{byte(g)}, time.Duration(k)*time.Millisecond)
			}
		}
		// Stepping one cluster advances the shared simulator for all.
		if _, err := cs[0].RunUntil(func() bool {
			for _, c := range cs {
				if !c.AllDelivered() || !c.Quiescent() {
					return false
				}
			}
			return true
		}, virtualDeadline); err != nil {
			t.Fatalf("wire %d: %v", wire, err)
		}
		if cs[0].Net.Stats().Dropped() == 0 {
			t.Errorf("wire %d: no loss injected", wire)
		}
		for g, c := range cs {
			for i, ds := range c.Delivered {
				if len(ds) != 5+g {
					t.Fatalf("wire %d group %d entity %d delivered %d, want %d", wire, g, i, len(ds), 5+g)
				}
				for _, d := range ds {
					if len(d.Data) != 1 || int(d.Data[0]) != g {
						t.Fatalf("wire %d group %d entity %d delivered another group's payload %v", wire, g, i, d.Data)
					}
				}
			}
			a, err := c.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.CheckCOService(); err != nil {
				t.Fatalf("wire %d group %d: %v", wire, g, err)
			}
			if got, want := c.FlightDumps()[1].Node, "1/g"+string(rune('0'+g)); got != want {
				t.Errorf("wire %d: node name %q, want %q", wire, got, want)
			}
		}
	}
}
