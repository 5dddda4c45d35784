package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

const (
	send    = flight.EvSequence
	accept  = flight.EvAccept
	deliver = flight.EvDeliver
)

func ev(t flight.EventType, entity pdu.EntityID, src pdu.EntityID, seq pdu.Seq) flight.Event {
	return flight.Event{Type: t, TypeName: t.String(), Entity: int32(entity),
		Src: int32(src), Seq: uint64(seq), Kind: uint8(pdu.KindData)}
}

// streams splits a script, written in one global order for readability,
// into n per-entity streams by the recording entity.
func streams(n int, evs ...flight.Event) [][]flight.Event {
	out := make([][]flight.Event, n)
	for _, e := range evs {
		out[e.Entity] = append(out[e.Entity], e)
	}
	return out
}

// figure2Trace reproduces Figure 2 of the paper: E_g sends p; E_h receives
// p then sends q; E_k receives both. g is an earlier message from E_g.
// (Entities g,h,k = 0,1,2.)
func figure2Trace(deliverOrderAtK []MsgID) [][]flight.Event {
	evs := []flight.Event{
		ev(send, 0, 0, 1),   // g
		ev(send, 0, 0, 2),   // p
		ev(accept, 1, 0, 1), // h accepts g
		ev(accept, 1, 0, 2), // h accepts p
		ev(send, 1, 1, 1),   // q (causally after p)
		ev(accept, 2, 0, 1),
		ev(accept, 2, 0, 2),
		ev(accept, 2, 1, 1),
		// Deliveries at 0 and 1 in causal order.
		ev(deliver, 0, 0, 1), ev(deliver, 0, 0, 2), ev(deliver, 0, 1, 1),
		ev(deliver, 1, 0, 1), ev(deliver, 1, 0, 2), ev(deliver, 1, 1, 1),
	}
	for _, m := range deliverOrderAtK {
		evs = append(evs, ev(deliver, 2, m.Src, m.Seq))
	}
	return streams(3, evs...)
}

func TestCheckCOServiceFigure2(t *testing.T) {
	g, p, q := MsgID{0, 1}, MsgID{0, 2}, MsgID{1, 1}

	t.Run("causality-preserved RL_k = <g p q]", func(t *testing.T) {
		a, err := Analyze(figure2Trace([]MsgID{g, p, q}))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.CheckCOService(); err != nil {
			t.Errorf("CheckCOService: %v", err)
		}
	})

	t.Run("violating RL_k = <g q p] (paper: not causality-preserved)", func(t *testing.T) {
		a, err := Analyze(figure2Trace([]MsgID{g, q, p}))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.CheckCausalOrderPreserved(); err == nil {
			t.Error("q-before-p passed the causal check")
		}
		// The paper notes <g q p] is still local-order-preserved.
		if err := a.CheckLocalOrderPreserved(); err != nil {
			t.Errorf("local order should hold: %v", err)
		}
	})
}

func TestGroundTruthStamps(t *testing.T) {
	a, err := Analyze(figure2Trace([]MsgID{{0, 1}, {0, 2}, {1, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	p, q := a.Stamp(MsgID{0, 2}), a.Stamp(MsgID{1, 1})
	if !p.Before(q) {
		t.Errorf("stamp(p)=%v should be before stamp(q)=%v", p, q)
	}
	if a.Stamp(MsgID{2, 9}) != nil {
		t.Error("unsent message has a stamp")
	}
}

// TestAnalyzeAnyInterleaving: entity 0 accepts entity 1's q and then
// sends p, so entity 0's stream cannot be replayed first; Analyze must
// still find q before p whichever stream comes first.
func TestAnalyzeAnyInterleaving(t *testing.T) {
	a, err := Analyze(streams(2,
		ev(send, 1, 1, 1), ev(accept, 1, 1, 1),
		ev(accept, 0, 1, 1), ev(send, 0, 0, 1), ev(accept, 0, 0, 1),
		ev(accept, 1, 0, 1),
	))
	if err != nil {
		t.Fatal(err)
	}
	if q, p := a.Stamp(MsgID{1, 1}), a.Stamp(MsgID{0, 1}); !q.Before(p) {
		t.Errorf("stamp(q)=%v should be before stamp(p)=%v", q, p)
	}
}

func TestCheckInformationPreserved(t *testing.T) {
	base := []flight.Event{
		ev(send, 0, 0, 1),
		ev(accept, 1, 0, 1),
		ev(deliver, 0, 0, 1),
	}
	with := func(evs ...flight.Event) [][]flight.Event {
		return streams(2, append(append([]flight.Event{}, base...), evs...)...)
	}
	t.Run("missing delivery", func(t *testing.T) {
		a, err := Analyze(with())
		if err != nil {
			t.Fatal(err)
		}
		err = a.CheckInformationPreserved()
		if err == nil || !strings.Contains(err.Error(), "entity 1") {
			t.Errorf("got %v, want entity-1 miss", err)
		}
	})
	t.Run("duplicate delivery", func(t *testing.T) {
		a, err := Analyze(with(ev(deliver, 1, 0, 1), ev(deliver, 1, 0, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.CheckInformationPreserved(); err == nil {
			t.Error("duplicate delivery passed")
		}
	})
	t.Run("complete", func(t *testing.T) {
		a, err := Analyze(with(ev(deliver, 1, 0, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.CheckInformationPreserved(); err != nil {
			t.Error(err)
		}
	})
	t.Run("sync PDUs are exempt", func(t *testing.T) {
		sync := ev(send, 0, 0, 2)
		sync.Kind = uint8(pdu.KindSync)
		a, err := Analyze(with(ev(deliver, 1, 0, 1), sync))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.CheckInformationPreserved(); err != nil {
			t.Errorf("undelivered SYNC should not fail the check: %v", err)
		}
	})
}

func TestCheckLocalOrder(t *testing.T) {
	a, err := Analyze(streams(2,
		ev(send, 0, 0, 1), ev(send, 0, 0, 2),
		ev(deliver, 1, 0, 2), ev(deliver, 1, 0, 1),
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckLocalOrderPreserved(); err == nil {
		t.Error("out-of-order same-source delivery passed")
	}
}

func TestCheckTotalOrder(t *testing.T) {
	mk := func(order1 []pdu.Seq) [][]flight.Event {
		evs := []flight.Event{
			ev(send, 0, 0, 1),
			ev(send, 1, 1, 1),
			ev(deliver, 0, 0, 1), ev(deliver, 0, 1, 1),
		}
		for _, s := range order1 {
			if s == 1 {
				evs = append(evs, ev(deliver, 1, 0, 1))
			} else {
				evs = append(evs, ev(deliver, 1, 1, 1))
			}
		}
		return streams(2, evs...)
	}
	a, err := Analyze(mk([]pdu.Seq{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckTotalOrderPreserved(); err != nil {
		t.Errorf("identical orders failed: %v", err)
	}
	a, err = Analyze(mk([]pdu.Seq{2, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckTotalOrderPreserved(); err == nil {
		t.Error("different orders passed total-order check")
	}
}

func TestAnalyzeRejectsMalformedTraces(t *testing.T) {
	tests := []struct {
		name    string
		streams [][]flight.Event
	}{
		{"accept before send", streams(2, ev(accept, 1, 0, 1))},
		{"duplicate send", streams(2, ev(send, 0, 0, 1), ev(send, 0, 0, 1))},
		// Entity 1 records a send of source 5's PDU: no stream is entity 5's.
		{"entity out of range", streams(2, ev(send, 1, 5, 1))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Analyze(tt.streams); err == nil {
				t.Error("Analyze accepted malformed trace")
			}
		})
	}
}

// dumps wraps per-entity streams as the complete rings of one group.
func dumps(suffix string, ss [][]flight.Event) []obsv.NodeFlight {
	out := make([]obsv.NodeFlight, len(ss))
	for i, evs := range ss {
		out[i] = obsv.NodeFlight{Node: string(rune('0'+i)) + suffix,
			Recorded: uint64(len(evs)), Capacity: len(evs), Events: evs}
	}
	return out
}

// TestJSONRoundTrip: rings saved as a /tracez document and read back
// analyze exactly as the streams they were taken from.
func TestJSONRoundTrip(t *testing.T) {
	ss := figure2Trace([]MsgID{{0, 1}, {0, 2}, {1, 1}})
	b, err := json.Marshal(obsv.Tracez{Nodes: append(dumps("", ss), dumps("/g7", ss)...)})
	if err != nil {
		t.Fatal(err)
	}
	var doc obsv.Tracez
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	as, err := AnalyzeDumps(doc.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(ss)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0] == nil || as[7] == nil {
		t.Fatalf("analyses for groups %v, want 0 and 7", as)
	}
	for g, a := range as {
		if a.Summary() != want.Summary() || a.CheckCOService() != nil {
			t.Errorf("group %d: summary %+v (want %+v), CO service %v", g, a.Summary(), want.Summary(), a.CheckCOService())
		}
	}
}

// TestAnalyzeDumpsRefuses: what the checker cannot read as whole streams
// is refused, naming the ring.
func TestAnalyzeDumpsRefuses(t *testing.T) {
	ss := figure2Trace([]MsgID{{0, 1}, {0, 2}, {1, 1}})
	for _, tt := range []struct {
		name, want string
		edit       func(ds []obsv.NodeFlight) []obsv.NodeFlight
	}{
		{"wrapped", "ring 1 wrapped", func(ds []obsv.NodeFlight) []obsv.NodeFlight {
			ds[1].Recorded = uint64(ds[1].Capacity) + 1
			return ds
		}},
		{"torn scrape", "ring 2: the scrape holds", func(ds []obsv.NodeFlight) []obsv.NodeFlight {
			ds[2].Events = ds[2].Events[1:]
			return ds
		}},
		{"bad label", `ring "x"`, func(ds []obsv.NodeFlight) []obsv.NodeFlight {
			ds[0].Node = "x"
			return ds
		}},
		{"duplicate", "appears twice", func(ds []obsv.NodeFlight) []obsv.NodeFlight { return append(ds, ds[0]) }},
		{"missing entity", "one is entity 2", func(ds []obsv.NodeFlight) []obsv.NodeFlight { return ds[1:] }},
		{"one ring", "group 0: 1 ring", func(ds []obsv.NodeFlight) []obsv.NodeFlight { return ds[:1] }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, err := AnalyzeDumps(tt.edit(dumps("", ss)))
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("got %v, want an error containing %q", err, tt.want)
			}
		})
	}
}

func TestMsgIDString(t *testing.T) {
	if (MsgID{1, 3}).String() != "s1#3" {
		t.Error("MsgID string wrong")
	}
}

func TestSummarize(t *testing.T) {
	sync := ev(send, 1, 1, 1)
	sync.Kind = uint8(pdu.KindSync)
	a, err := Analyze(streams(2,
		ev(send, 0, 0, 1),
		sync,
		ev(accept, 1, 0, 1),
		ev(deliver, 0, 0, 1),
		ev(deliver, 1, 0, 1),
		ev(flight.EvWireOut, 0, 0, 1), // not a checked event
		ev(flight.EvRetServe, 0, 0, 1),
	))
	if err != nil {
		t.Fatal(err)
	}
	if s := a.Summary(); s != (Summary{Events: 6, DataSends: 1, SyncSends: 1, Accepts: 1, Deliveries: 2, Retransmits: 1}) {
		t.Errorf("summary: %+v", s)
	}
}
