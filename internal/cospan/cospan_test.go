package cospan

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
	"cobcast/internal/sim"
	"cobcast/internal/simrun"
)

func mkEvent(t flight.EventType, kind pdu.Kind, src int32, seq uint64, peer int32, at int64) flight.Event {
	return flight.Event{At: at, Type: t, TypeName: t.String(), Src: src, Seq: seq, Kind: uint8(kind), Peer: peer}
}

func TestAssembleSlicesAndFlows(t *testing.T) {
	nodes := []obsv.NodeFlight{
		{Node: "0", Events: []flight.Event{
			mkEvent(flight.EvSubmit, pdu.KindData, 0, 0, -1, 1000),
			mkEvent(flight.EvSequence, pdu.KindData, 0, 1, -1, 2000),
			mkEvent(flight.EvWireOut, pdu.KindData, 0, 1, -1, 3000),
			mkEvent(flight.EvDeliver, pdu.KindData, 0, 1, -1, 9000),
		}},
		{Node: "1", Events: []flight.Event{
			mkEvent(flight.EvWireIn, pdu.KindData, 0, 1, -1, 5000),
			mkEvent(flight.EvAccept, pdu.KindData, 0, 1, -1, 5500),
			mkEvent(flight.EvCommit, pdu.KindData, 0, 1, -1, 7000),
			mkEvent(flight.EvDeliver, pdu.KindData, 0, 1, -1, 8000),
		}},
	}
	events := Assemble(nodes)

	var slices, flowStarts, flowEnds int
	for _, ev := range events {
		switch {
		case ev.Ph == "X" && ev.Name == "s0#1":
			slices++
			if ev.Pid == 1 {
				if ev.Ts != 5.0 {
					t.Errorf("peer slice ts = %v, want 5.0 us", ev.Ts)
				}
				if ev.Dur != 3.0 {
					t.Errorf("peer slice dur = %v, want 3.0 us", ev.Dur)
				}
			}
		case ev.Ph == "s":
			flowStarts++
			if ev.Pid != 0 || ev.Ts != 3.0 {
				t.Errorf("flow start pid=%d ts=%v, want pid 0 at wire-out 3.0", ev.Pid, ev.Ts)
			}
		case ev.Ph == "f":
			flowEnds++
			if ev.Pid != 1 || ev.Ts != 5.0 {
				t.Errorf("flow end pid=%d ts=%v, want pid 1 at wire-in 5.0", ev.Pid, ev.Ts)
			}
		}
	}
	if slices != 2 {
		t.Errorf("got %d s0#1 slices, want one per node (2)", slices)
	}
	if flowStarts != 1 || flowEnds != 1 {
		t.Errorf("got %d/%d flow starts/ends, want 1/1", flowStarts, flowEnds)
	}
}

func TestPairSubmitsBackfillsSeq(t *testing.T) {
	events := []flight.Event{
		mkEvent(flight.EvSubmit, pdu.KindData, 3, 0, -1, 100),
		mkEvent(flight.EvSequence, pdu.KindData, 3, 7, -1, 150),
		mkEvent(flight.EvSubmit, pdu.KindData, 3, 0, -1, 200),
		mkEvent(flight.EvSequence, pdu.KindData, 3, 9, -1, 250),
	}
	pairSubmits(events)
	if events[0].Seq != 7 || events[2].Seq != 9 {
		t.Fatalf("submit seqs = %d, %d; want 7, 9", events[0].Seq, events[2].Seq)
	}
}

// TestAssembleFromSimulatedRun drives a real lossy simulated cluster
// with flight recording, assembles the rings, and asserts every
// sequenced data message yields a slice on every node plus a flow from
// its origin to each peer — the end-to-end shape `cotrace live` emits.
func TestAssembleFromSimulatedRun(t *testing.T) {
	const n = 3
	c, err := simrun.New(simrun.Options{
		N:     n,
		Trace: true,
		Net: []sim.NetOption{
			sim.NetUniformDelay(time.Millisecond),
			sim.NetLossRate(0.2),
			sim.NetSeed(7),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.SubmitAt(pdu.EntityID(i%n), []byte("m"), time.Duration(i)*2*time.Millisecond)
	}
	if _, err := c.RunToQuiescence(time.Minute); err != nil {
		t.Fatal(err)
	}
	if c.TotalStats().Retransmitted == 0 {
		t.Fatal("run exercised no retransmissions; raise loss or messages")
	}

	dumps := c.FlightDumps()
	if len(dumps) != n {
		t.Fatalf("got %d flight dumps, want %d", len(dumps), n)
	}
	events := Assemble(dumps)

	// Every data message must have one slice per node and n-1 flow ends.
	sliceCount := make(map[string]int)
	flowEnd := make(map[string]int)
	retMarks := 0
	for _, ev := range events {
		switch ev.Ph {
		case "X":
			if args, ok := ev.Args["kind"]; ok && args == "DATA" {
				sliceCount[ev.Name]++
			}
		case "f":
			flowEnd[ev.Name]++
		case "i":
			retMarks++
		}
	}
	if len(sliceCount) == 0 {
		t.Fatal("no DATA slices assembled")
	}
	for name, got := range sliceCount {
		if got != n {
			t.Errorf("message %s has %d slices, want one per node (%d)", name, got, n)
		}
		if flowEnd[name] < n-1 {
			t.Errorf("message %s has %d flow ends, want >= %d", name, flowEnd[name], n-1)
		}
	}
	if retMarks == 0 {
		t.Error("lossy run produced no instant markers (retransmit/unsequenced events)")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, dumps); err != nil {
		t.Fatal(err)
	}
	var doc Trace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(events) {
		t.Fatalf("round-trip lost events: %d != %d", len(doc.TraceEvents), len(events))
	}
}

// TestChasedMessageKeepsItsKind: a node that first hears of a message by
// chasing it records RET-kind events — the request, the RET PDU's own
// wire-out — before any event of the message itself; the slice is still
// the message's, and only a chase that never succeeded reads RET.
func TestChasedMessageKeepsItsKind(t *testing.T) {
	chased := []flight.Event{
		mkEvent(flight.EvRetRequest, pdu.KindRet, 0, 1, 0, 1000),
		mkEvent(flight.EvWireOut, pdu.KindRet, 0, 1, 1, 1100),
		mkEvent(flight.EvWireIn, pdu.KindData, 0, 1, -1, 2000),
		mkEvent(flight.EvAccept, pdu.KindData, 0, 1, -1, 2100),
	}
	if got := kindName(chased); got != "DATA" {
		t.Errorf("chased and received: kind %q, want DATA", got)
	}
	if got := kindName(chased[:2]); got != "RET" {
		t.Errorf("chased, never received: kind %q, want RET", got)
	}
}
