package simrun

import (
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/network"
	"cobcast/internal/pdu"
)

// TestPartitionHealRecovers partitions one entity mid-run and heals it:
// delivery stalls during the partition (the quorum waits) and completes
// after the heal — deterministic in virtual time.
func TestPartitionHealRecovers(t *testing.T) {
	c, err := New(Options{
		N:     3,
		Trace: true,
		Net:   []network.Option{network.WithUniformDelay(time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Spread 12 submissions across the first 120ms so several fall
	// inside the partition window.
	for i := 0; i < 12; i++ {
		c.SubmitAt(pdu.EntityID(i%3), []byte{byte(i)}, time.Duration(i)*10*time.Millisecond)
	}

	// Partition entity 2 at t=5ms, heal at t=200ms.
	c.Sim.At(5*time.Millisecond, func() { c.Net.Isolate(2) })
	c.Sim.At(200*time.Millisecond, func() { c.Net.Rejoin(2) })

	// During the partition nothing new can be fully acknowledged (at
	// most what squeaked through before the cut).
	c.Sim.RunUntil(150 * time.Millisecond)
	stalled := len(c.Delivered[0])
	if stalled >= 12 {
		t.Fatalf("delivery did not stall during partition: %d", stalled)
	}

	if _, err := c.RunToQuiescence(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Delivered[0]); got != 12 {
		t.Errorf("after heal delivered %d/12", got)
	}
	a, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCOService(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashEvictionAmongSurvivors crashes one entity permanently; the
// survivors auto-suspect, evict, and finish delivering everything the
// survivors broadcast. (Messages from the dead entity's future obviously
// never exist; it had sent nothing.)
func TestCrashEvictionAmongSurvivors(t *testing.T) {
	c, err := New(Options{
		N:     4,
		Trace: true,
		Core:  core.Config{SuspectAfter: 100 * time.Millisecond},
		Net:   []network.Option{network.WithUniformDelay(time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crash entity 3 before anything happens.
	c.Net.Isolate(3)
	// Survivors broadcast.
	for i := 0; i < 9; i++ {
		c.SubmitAt(pdu.EntityID(i%3), []byte{byte(i)}, time.Duration(i)*time.Millisecond)
	}
	// Run generously; survivors must deliver all 9 each.
	for pass := 0; pass < 600; pass++ {
		c.Sim.RunFor(5 * time.Millisecond)
		done := true
		for i := 0; i < 3; i++ {
			if len(c.Delivered[i]) < 9 {
				done = false
			}
		}
		if done {
			break
		}
	}
	for i := 0; i < 3; i++ {
		if len(c.Delivered[i]) != 9 {
			t.Fatalf("survivor %d delivered %d/9 (stats %+v)",
				i, len(c.Delivered[i]), c.Entities[i].Stats())
		}
		if !c.Entities[i].Evicted(3) {
			t.Errorf("survivor %d did not evict the dead entity", i)
		}
	}
	// Causal order must hold among the survivors' deliveries.
	a, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckLocalOrderPreserved(); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCausalOrderPreserved(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashEvictionTotalOrder does the same in TO mode: survivors must
// still converge on one identical sequence.
func TestCrashEvictionTotalOrder(t *testing.T) {
	c, err := New(Options{
		N:     3,
		Trace: true,
		Core: core.Config{
			TotalOrder:   true,
			SuspectAfter: 100 * time.Millisecond,
		},
		Net: []network.Option{network.WithUniformDelay(time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Isolate(2)
	for i := 0; i < 6; i++ {
		c.SubmitAt(pdu.EntityID(i%2), []byte{byte(i)}, time.Duration(i)*time.Millisecond)
	}
	for pass := 0; pass < 600; pass++ {
		c.Sim.RunFor(5 * time.Millisecond)
		if len(c.Delivered[0]) >= 6 && len(c.Delivered[1]) >= 6 {
			break
		}
	}
	for i := 0; i < 2; i++ {
		if len(c.Delivered[i]) != 6 {
			t.Fatalf("survivor %d delivered %d/6 (stats %+v)",
				i, len(c.Delivered[i]), c.Entities[i].Stats())
		}
	}
	for pos := range c.Delivered[0] {
		a, b := c.Delivered[0][pos], c.Delivered[1][pos]
		if a.Src != b.Src || a.SEQ != b.SEQ {
			t.Fatalf("total order diverged at %d: s%d#%d vs s%d#%d",
				pos, a.Src, a.SEQ, b.Src, b.SEQ)
		}
	}
}
