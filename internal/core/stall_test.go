package core_test

import (
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

func findStall(stalls []obsv.Stall, stage string) *obsv.Stall {
	for i := range stalls {
		if stalls[i].Stage == stage {
			return &stalls[i]
		}
	}
	return nil
}

func waitingOn(st *obsv.Stall, peer int) bool {
	for _, w := range st.WaitingOn {
		if w == peer {
			return true
		}
	}
	return false
}

// exchangeRounds ticks the live entities and cross-delivers every
// emitted PDU among them — including the cascading responses Receive
// itself produces — while the rest of the cluster stays unreachable.
// Virtual time advances per round; returns the last timestamp used.
func exchangeRounds(t *testing.T, live []*core.Entity, from time.Duration, rounds int) time.Duration {
	t.Helper()
	type envelope struct {
		from pdu.EntityID
		p    *pdu.PDU
	}
	now := from
	for r := 0; r < rounds; r++ {
		now += 10 * time.Millisecond
		var queue []envelope
		for _, e := range live {
			out := e.Tick(now)
			for _, q := range out.PDUs {
				queue = append(queue, envelope{e.ID(), q})
			}
		}
		for len(queue) > 0 {
			env := queue[0]
			queue = queue[1:]
			for _, o := range live {
				if o.ID() == env.from {
					continue
				}
				out, err := o.Receive(env.p.Clone(), now)
				if err != nil {
					t.Fatalf("Receive at %d: %v", o.ID(), err)
				}
				for _, q := range out.PDUs {
					queue = append(queue, envelope{o.ID(), q})
				}
			}
		}
	}
	return now
}

// TestStallAnalyzerNamesMissingAckPeer is the acceptance scenario: in a
// 3-entity cluster where entity 2 is silent (isolated), a broadcast
// from 0 confirmed only by 1 must be reported as pack-waiting on
// exactly peer 2 — the missing-ACK peer, named by ID.
func TestStallAnalyzerNamesMissingAckPeer(t *testing.T) {
	ents := make([]*core.Entity, 3)
	for i := range ents {
		e, err := core.New(core.Config{ID: pdu.EntityID(i), N: 3})
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = e
	}
	e0, e1 := ents[0], ents[1] // entity 2 is isolated: never hears, never speaks
	live := []*core.Entity{e0, e1}

	out := e0.Submit([]byte("m1"), 0)
	if len(out.PDUs) != 1 {
		t.Fatalf("submit produced %d PDUs, want 1", len(out.PDUs))
	}
	if _, err := e1.Receive(out.PDUs[0].Clone(), 0); err != nil {
		t.Fatal(err)
	}
	// Deferred confirmation gets e1's receipt evidence back to e0.
	now := exchangeRounds(t, live, 0, 4)

	stalls := e0.Stalls(now, 0)
	if len(stalls) == 0 {
		t.Fatalf("Stalls() empty; want the undelivered broadcast reported")
	}
	st := findStall(stalls, "pack-wait")
	if st == nil {
		t.Fatalf("no pack-wait stall in %+v", stalls)
	}
	if st.Msg != "s0#1" {
		t.Errorf("stall.Msg = %q, want s0#1", st.Msg)
	}
	if len(st.WaitingOn) != 1 || !waitingOn(st, 2) {
		t.Errorf("stall.WaitingOn = %v, want exactly [2]; reason: %s", st.WaitingOn, st.Reason)
	}

	// Evicting the silent peer everywhere unblocks the pipeline; the
	// stall report must drain to empty once the message delivers.
	for _, e := range live {
		if _, err := e.Evict(2, now); err != nil {
			t.Fatalf("Evict: %v", err)
		}
	}
	now = exchangeRounds(t, live, now, 6)
	if got := e0.Stats().Delivered; got != 1 {
		t.Fatalf("Delivered = %d after eviction, want 1", got)
	}
	if rest := e0.Stalls(now, 0); len(rest) != 0 {
		t.Errorf("Stalls() after evict+confirm = %+v, want empty", rest)
	}
}

// TestStallAnalyzerParkedGap: a PDU parked over a sequence gap is
// attributed to the source whose retransmission is awaited.
func TestStallAnalyzerParkedGap(t *testing.T) {
	ents := newScriptCluster(t, 3)
	e0, e1 := ents[0], ents[1]

	p1 := submit(t, e0, "m1")
	p2 := submit(t, e0, "m2")
	_ = p1 // lost on the wire to e1
	receive(t, e1, p2)

	st := findStall(e1.Stalls(0, 0), "parked")
	if st == nil {
		t.Fatalf("no parked stall: %+v", e1.Stalls(0, 0))
	}
	if st.Msg != "s0#2" {
		t.Errorf("parked head = %q, want s0#2", st.Msg)
	}
	if len(st.WaitingOn) != 1 || !waitingOn(st, 0) {
		t.Errorf("WaitingOn = %v, want [0] (the source repairs its own gap)", st.WaitingOn)
	}

	// Repair closes the gap; parked stall disappears.
	receive(t, e1, p1)
	if st := findStall(e1.Stalls(0, 0), "parked"); st != nil {
		t.Errorf("parked stall survived repair: %+v", st)
	}
}

// TestStallAnalyzerFlowBlocked: with a window of 1 and no
// acknowledgments coming back, queued submits report flow-blocked and
// name the peers holding minAL down.
func TestStallAnalyzerFlowBlocked(t *testing.T) {
	e0 := newScripted(t, core.Config{ID: 0, N: 2, Window: 1})
	submit(t, e0, "m1")
	if out := e0.Submit([]byte("m2"), 0); len(out.PDUs) != 0 {
		t.Fatalf("second submit escaped a closed window: %d PDUs", len(out.PDUs))
	}
	st := findStall(e0.Stalls(0, 0), "flow-blocked")
	if st == nil {
		t.Fatalf("no flow-blocked stall: %+v", e0.Stalls(0, 0))
	}
	if !waitingOn(st, 1) {
		t.Errorf("WaitingOn = %v, want peer 1 (sole acknowledger)", st.WaitingOn)
	}
}

// TestFlightHooksRecordLifecycle: an entity with a ring attached
// records the full local lifecycle for its own broadcast.
func TestFlightHooksRecordLifecycle(t *testing.T) {
	n := 2
	rings := []*flight.Ring{flight.NewRing(64), flight.NewRing(64)}
	ents := make([]*core.Entity, n)
	for i := range ents {
		cfg := core.Config{ID: pdu.EntityID(i), N: n, Flight: rings[i]}
		e, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = e
	}
	p := submit(t, ents[0], "m1")
	receive(t, ents[1], p)
	exchangeRounds(t, ents, 0, 6)

	want := []flight.EventType{flight.EvSubmit, flight.EvSequence, flight.EvAccept, flight.EvCommit, flight.EvDeliver}
	for who, r := range rings {
		got := map[flight.EventType]bool{}
		for _, ev := range r.Snapshot(nil) {
			if ev.Src == 0 && (ev.Seq == 1 || ev.Type == flight.EvSubmit) {
				got[ev.Type] = true
			}
		}
		for _, ty := range want {
			if ty == flight.EvSubmit || ty == flight.EvSequence {
				if who != 0 {
					continue // only the broadcaster submits/sequences
				}
			}
			if !got[ty] {
				t.Errorf("entity %d: missing %v for s0#1; ring = %+v", who, ty, rings[who].Snapshot(nil))
			}
		}
	}
}
