package simrun

import (
	"math/rand"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/network"
	"cobcast/internal/pdu"
	"cobcast/internal/workload"
)

// runTO builds a TotalOrder-mode cluster, runs the workload to
// quiescence, and checks both the CO service and total order.
func runTO(t *testing.T, n int, gen workload.Generator, netOpts ...network.Option) *Cluster {
	t.Helper()
	c, err := New(Options{
		N:     n,
		Trace: true,
		Core:  core.Config{TotalOrder: true},
		Net:   netOpts,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(gen)
	if _, err := c.RunToQuiescence(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	a, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCOService(); err != nil {
		t.Fatalf("CO service: %v", err)
	}
	if err := a.CheckTotalOrderPreserved(); err != nil {
		t.Fatalf("total order: %v", err)
	}
	return c
}

func TestTotalOrderLossless(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		n := n
		t.Run(string(rune('0'+n))+"entities", func(t *testing.T) {
			t.Parallel()
			runTO(t, n, workload.NewContinuous(n, 8, 32),
				network.WithUniformDelay(time.Millisecond))
		})
	}
}

func TestTotalOrderUnderLoss(t *testing.T) {
	runTO(t, 4, workload.NewContinuous(4, 6, 32),
		network.WithUniformDelay(time.Millisecond),
		network.WithLossRate(0.15),
		network.WithSeed(3))
}

func TestTotalOrderUnderJitter(t *testing.T) {
	// Heterogeneous delays reorder arrivals across senders; every entity
	// must still deliver the identical sequence.
	runTO(t, 5, workload.NewContinuous(5, 5, 16),
		network.WithSeed(17),
		network.WithDelay(func(_, _ pdu.EntityID, rng *rand.Rand) time.Duration {
			return time.Duration(200+rng.Intn(3000)) * time.Microsecond
		}))
}

func TestTotalOrderLTimesConsistent(t *testing.T) {
	c := runTO(t, 3, workload.NewContinuous(3, 5, 16),
		network.WithUniformDelay(time.Millisecond))
	// Every entity must assign the identical LTime to each message.
	type key struct {
		src int
		seq uint64
	}
	ref := make(map[key]uint64)
	for _, d := range c.Delivered[0] {
		ref[key{int(d.Src), uint64(d.SEQ)}] = d.LTime
		if d.LTime == 0 {
			t.Fatalf("LTime missing on %v", d)
		}
	}
	for e := 1; e < 3; e++ {
		for _, d := range c.Delivered[e] {
			if ref[key{int(d.Src), uint64(d.SEQ)}] != d.LTime {
				t.Fatalf("entity %d ltime mismatch on s%d#%d: %d vs %d",
					e, d.Src, d.SEQ, d.LTime, ref[key{int(d.Src), uint64(d.SEQ)}])
			}
		}
	}
	// LTimes must be consistent with per-source order.
	for e := 0; e < 3; e++ {
		last := make(map[int]uint64)
		for _, d := range c.Delivered[e] {
			if prev, ok := last[int(d.Src)]; ok && d.LTime <= prev {
				t.Fatalf("entity %d: ltime not increasing for source %d", e, d.Src)
			}
			last[int(d.Src)] = d.LTime
		}
	}
}

func TestTotalOrderSingleMessage(t *testing.T) {
	// One message into an idle cluster must still release (the stability
	// rule needs a committed key from every source; the gossip provides
	// them).
	c, err := New(Options{
		N:     4,
		Trace: true,
		Core:  core.Config{TotalOrder: true},
		Net:   []network.Option{network.WithUniformDelay(2 * time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SubmitAt(0, []byte("solo"), 0)
	if _, err := c.RunToQuiescence(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, ds := range c.Delivered {
		if len(ds) != 1 || string(ds[0].Data) != "solo" {
			t.Errorf("entity %d: %v", i, ds)
		}
	}
}

func TestTotalOrderFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		loss := []float64{0, 0.1, 0.25}[rng.Intn(3)]
		c, err := New(Options{
			N:     n,
			Trace: true,
			Core:  core.Config{TotalOrder: true},
			Net: []network.Option{
				network.WithUniformDelay(time.Duration(1+rng.Intn(3)) * time.Millisecond),
				network.WithLossRate(loss),
				network.WithSeed(seed),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.LoadWorkload(workload.NewContinuous(n, 1+rng.Intn(6), 16))
		if _, err := c.RunToQuiescence(2 * time.Minute); err != nil {
			t.Fatalf("seed %d (n=%d loss=%v): %v", seed, n, loss, err)
		}
		a, err := c.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.CheckCOService(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := a.CheckTotalOrderPreserved(); err != nil {
			t.Fatalf("seed %d (n=%d loss=%v): %v", seed, n, loss, err)
		}
	}
}
