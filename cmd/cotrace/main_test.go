package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
	"cobcast/internal/sim"
	"cobcast/internal/simrun"
	"cobcast/internal/workload"
)

// save writes rings as a /tracez document and returns its path.
func save(t *testing.T, nodes []obsv.NodeFlight) string {
	t.Helper()
	b, err := json.Marshal(obsv.Tracez{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dump.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// simulatedDump runs a lossy simulated cluster and saves its streams.
func simulatedDump(t *testing.T, n int, total bool) string {
	t.Helper()
	c, err := simrun.New(simrun.Options{
		N:     n,
		Trace: true,
		Core:  core.Config{TotalOrder: total},
		Net: []sim.NetOption{
			sim.NetUniformDelay(time.Millisecond), sim.NetLossRate(0.1), sim.NetSeed(1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(workload.NewContinuous(n, 4, 32))
	if _, err := c.RunToQuiescence(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return save(t, c.FlightDumps())
}

// handBuilt is a two-entity run, ring by ring: entity 0 sends p, entity 1
// accepts p and then sends q, so q causally follows p. Entity 1 delivers
// in the order given.
func handBuilt(order1 ...pdu.Seq) []obsv.NodeFlight {
	ev := func(t flight.EventType, entity, src int32) flight.Event {
		return flight.Event{Entity: entity, Type: t, TypeName: t.String(), Src: src, Seq: 1,
			Kind: uint8(pdu.KindData), Peer: -1}
	}
	rings := [][]flight.Event{
		{ev(flight.EvSequence, 0, 0), ev(flight.EvAccept, 0, 0), ev(flight.EvAccept, 0, 1),
			ev(flight.EvDeliver, 0, 0), ev(flight.EvDeliver, 0, 1)},
		{ev(flight.EvAccept, 1, 0), ev(flight.EvSequence, 1, 1), ev(flight.EvAccept, 1, 1)},
	}
	for _, src := range order1 {
		rings[1] = append(rings[1], ev(flight.EvDeliver, 1, int32(src)))
	}
	nodes := make([]obsv.NodeFlight, len(rings))
	for i, evs := range rings {
		nodes[i] = obsv.NodeFlight{Node: string(rune('0' + i)), Recorded: uint64(len(evs)), Capacity: 8, Events: evs}
	}
	return nodes
}

// TestRunChecksSimulatedDump: a lossy simulated run's saved streams pass.
func TestRunChecksSimulatedDump(t *testing.T) {
	if err := check([]string{simulatedDump(t, 4, false)}); err != nil {
		t.Fatal(err)
	}
}

// TestRunChecksTotalOrderDump: a total-order run passes with -total.
func TestRunChecksTotalOrderDump(t *testing.T) {
	if err := check([]string{"-total", simulatedDump(t, 3, true)}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadN(t *testing.T) {
	if err := check(nil); err == nil {
		t.Error("no sources accepted")
	}
	if err := check([]string{save(t, handBuilt(0, 1)[:1])}); err == nil {
		t.Error("a group of one ring accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := check([]string{"/nonexistent/dump.json"}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunDetectsViolation: entity 1 delivers q before its causal
// predecessor p, so the check fails; in causal order it passes.
func TestRunDetectsViolation(t *testing.T) {
	if err := check([]string{save(t, handBuilt(0, 1))}); err != nil {
		t.Fatalf("causal order rejected: %v", err)
	}
	if err := check([]string{save(t, handBuilt(1, 0))}); err == nil {
		t.Error("causal violation not detected")
	}
}

// TestRunRefusesWrappedRing: a ring that recorded more than it holds is
// refused by name rather than checked as a suffix.
func TestRunRefusesWrappedRing(t *testing.T) {
	nodes := handBuilt(0, 1)
	nodes[1].Recorded = 9
	err := check([]string{save(t, nodes)})
	if err == nil || !strings.Contains(err.Error(), "ring 1 wrapped") {
		t.Fatalf("got %v, want ring 1 refused as wrapped", err)
	}
}
